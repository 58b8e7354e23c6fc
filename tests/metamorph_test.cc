// Metamorphic oracle subsystem tests (DESIGN.md §11): per-transform validity
// and semantics preservation on a curated accepted corpus, engine parity of
// witnesses, oracle determinism, the bug13 injected-asymmetry detection that
// base indicators miss, replay through ExecuteCase, and the mmorph
// checkpoint line round-trip.

#include <cerrno>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/checkpoint.h"
#include "src/core/parallel.h"
#include "src/core/metamorph/metamorph.h"
#include "src/core/metamorph/transform.h"
#include "src/core/metamorph/witness.h"
#include "src/core/repro.h"
#include "src/core/structured_gen.h"
#include "src/ebpf/insn.h"
#include "src/kernel/rng.h"

namespace bvf {
namespace {

CampaignOptions CorrectKernelOptions() {
  CampaignOptions options;
  options.version = bpf::KernelVersion::kBpfNext;
  options.bugs = bpf::BugConfig::None();  // a correct verifier/runtime pair
  options.limits.wall_budget_ms = 2000;
  return options;
}

// Accepted cases from the structured generator: the curated corpus every
// semantics-preservation test runs over.
std::vector<FuzzCase> AcceptedCorpus(const CampaignOptions& options, size_t want) {
  std::vector<FuzzCase> corpus;
  StructuredGenerator generator(options.version);
  bpf::Rng rng(11);
  for (int i = 0; i < 400 && corpus.size() < want; ++i) {
    FuzzCase fc = generator.Generate(rng);
    if (CollectWitness(fc.prog, fc, options).accepted) {
      corpus.push_back(std::move(fc));
    }
  }
  return corpus;
}

// r0 = 5; loop: r0 -= 1; if r0 != 0 goto loop; exit. Accepted because the
// mov-imm path tracks the constant bound; its only 64-bit mov-imm is the
// counter, so kConstRemat deterministically rewrites it into ld_imm64 — the
// exact shape bug13 pessimizes into an "infinite loop detected" rejection.
FuzzCase CountdownLoopCase() {
  FuzzCase fc;
  fc.prog.type = bpf::ProgType::kSocketFilter;
  fc.prog.insns = {
      bpf::MovImm(bpf::kR0, 5),
      bpf::AluImm(bpf::kAluSub, bpf::kR0, 1),
      bpf::JmpImm(bpf::kJmpJne, bpf::kR0, 0, -2),
      bpf::Exit(),
  };
  fc.test_runs = 2;
  return fc;
}

TEST(MetamorphTransformTest, ValidityPredicateHonored) {
  const CampaignOptions options = CorrectKernelOptions();
  const std::vector<FuzzCase> corpus = AcceptedCorpus(options, 12);
  ASSERT_GE(corpus.size(), 8u);
  for (size_t c = 0; c < corpus.size(); ++c) {
    for (int t = 0; t < kNumTransformKinds; ++t) {
      const TransformKind kind = static_cast<TransformKind>(t);
      const bool applicable = TransformApplicable(kind, corpus[c].prog);
      bpf::Program variant = corpus[c].prog;
      bpf::Rng rng(MetamorphSeed(1, ProgramFnv(corpus[c].prog), t));
      const bool applied = ApplyTransform(kind, variant, rng);
      EXPECT_EQ(applied, applicable)
          << "case " << c << " transform " << TransformKindName(kind);
      if (!applied) {
        // Rejected transforms must leave the program untouched.
        EXPECT_EQ(ProgramFnv(variant), ProgramFnv(corpus[c].prog));
      } else {
        // Applied transforms must change the instruction stream and keep it
        // structurally loadable.
        EXPECT_NE(ProgramFnv(variant), ProgramFnv(corpus[c].prog))
            << "case " << c << " transform " << TransformKindName(kind);
        EXPECT_EQ(bpf::CheckEncoding(variant, nullptr), 0)
            << "case " << c << " transform " << TransformKindName(kind);
      }
    }
  }
}

TEST(MetamorphTransformTest, TransformsPreserveVerdictAndWitness) {
  const CampaignOptions options = CorrectKernelOptions();
  const std::vector<FuzzCase> corpus = AcceptedCorpus(options, 12);
  ASSERT_GE(corpus.size(), 8u);
  size_t variants_checked = 0;
  for (size_t c = 0; c < corpus.size(); ++c) {
    const ExecWitness base = CollectWitness(corpus[c].prog, corpus[c], options);
    ASSERT_TRUE(base.accepted);
    for (int t = 0; t < kNumTransformKinds; ++t) {
      const TransformKind kind = static_cast<TransformKind>(t);
      bpf::Program variant = corpus[c].prog;
      bpf::Rng rng(MetamorphSeed(2, ProgramFnv(corpus[c].prog), t));
      if (!ApplyTransform(kind, variant, rng)) {
        continue;
      }
      const ExecWitness var = CollectWitness(variant, corpus[c], options);
      EXPECT_TRUE(var.accepted)
          << "verdict flipped on a correct kernel: case " << c << " transform "
          << TransformKindName(kind);
      EXPECT_TRUE(base.SameExecution(var))
          << "witness diverged on a correct kernel: case " << c << " transform "
          << TransformKindName(kind);
      EXPECT_EQ(base.report_kinds, var.report_kinds)
          << "indicator set diverged: case " << c << " transform "
          << TransformKindName(kind);
      ++variants_checked;
    }
  }
  EXPECT_GE(variants_checked, 30u);  // the corpus must actually exercise transforms
}

TEST(MetamorphTransformTest, WitnessIdenticalAcrossEngines) {
  CampaignOptions decoded = CorrectKernelOptions();
  CampaignOptions legacy = CorrectKernelOptions();
  decoded.interp_engine = bpf::ExecEngine::kDecoded;
  legacy.interp_engine = bpf::ExecEngine::kLegacy;
  const std::vector<FuzzCase> corpus = AcceptedCorpus(decoded, 8);
  ASSERT_GE(corpus.size(), 6u);
  for (const FuzzCase& fc : corpus) {
    const ExecWitness a = CollectWitness(fc.prog, fc, decoded);
    const ExecWitness b = CollectWitness(fc.prog, fc, legacy);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_TRUE(a.SameExecution(b));
    EXPECT_EQ(a.report_kinds, b.report_kinds);
  }
}

TEST(MetamorphOracleTest, ExamineIsDeterministic) {
  CampaignOptions options = CorrectKernelOptions();
  options.bugs = bpf::BugConfig::All();
  options.metamorph = true;
  options.metamorph_k = 3;
  const std::vector<FuzzCase> corpus = AcceptedCorpus(CorrectKernelOptions(), 6);
  ASSERT_GE(corpus.size(), 4u);
  const MetamorphOracle oracle(options);
  for (const FuzzCase& fc : corpus) {
    const MetamorphOracle::Result a = oracle.Examine(fc, 1);
    const MetamorphOracle::Result b = oracle.Examine(fc, 1);
    EXPECT_EQ(a.bases_examined, b.bases_examined);
    EXPECT_EQ(a.variants_executed, b.variants_executed);
    EXPECT_EQ(a.verdict_divergences, b.verdict_divergences);
    EXPECT_EQ(a.witness_divergences, b.witness_divergences);
    EXPECT_EQ(a.sanitizer_divergences, b.sanitizer_divergences);
    ASSERT_EQ(a.findings.size(), b.findings.size());
    for (size_t i = 0; i < a.findings.size(); ++i) {
      EXPECT_EQ(a.findings[i].signature, b.findings[i].signature);
      EXPECT_EQ(a.findings[i].details, b.findings[i].details);
    }
  }
}

TEST(MetamorphOracleTest, Bug13CaughtViaVerdictDivergence) {
  const FuzzCase fc = CountdownLoopCase();

  // On a correct kernel the const-remat variant stays accepted.
  {
    const CampaignOptions clean = CorrectKernelOptions();
    const ExecWitness base = CollectWitness(fc.prog, fc, clean);
    ASSERT_TRUE(base.accepted);
    bpf::Program variant = fc.prog;
    bpf::Rng rng(1);
    ASSERT_TRUE(ApplyTransform(TransformKind::kConstRemat, variant, rng));
    ASSERT_TRUE(variant.insns[0].IsLdImm64());
    EXPECT_TRUE(CollectWitness(variant, fc, clean).accepted);
  }

  // Under bug13 the base still loads (mov-imm keeps the constant) but the
  // ld_imm64 spelling loses it, the loop bound becomes unprovable, and the
  // variant is spuriously rejected — the divergence the oracle must flag.
  CampaignOptions buggy = CorrectKernelOptions();
  buggy.bugs = bpf::BugConfig::All();
  buggy.metamorph = true;
  buggy.metamorph_k = 8;  // enough variants that one draws const-remat
  const ExecWitness base = CollectWitness(fc.prog, fc, buggy);
  ASSERT_TRUE(base.accepted);
  bpf::Program variant = fc.prog;
  bpf::Rng rng(1);
  ASSERT_TRUE(ApplyTransform(TransformKind::kConstRemat, variant, rng));
  const ExecWitness rejected = CollectWitness(variant, fc, buggy);
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(rejected.load_err, -EINVAL);

  // Base-campaign indicators are silent on this case: the bug is invisible
  // without the metamorphic comparison.
  EXPECT_TRUE(base.report_kinds.empty());

  const MetamorphOracle oracle(buggy);
  const MetamorphOracle::Result result = oracle.Examine(fc, 42);
  EXPECT_GE(result.verdict_divergences, 1u);
  EXPECT_EQ(result.escalated, CaseOutcome::kVerdictDivergence);
  bool triaged = false;
  for (const Finding& finding : result.findings) {
    EXPECT_EQ(finding.indicator, 4);
    EXPECT_EQ(finding.iteration, 42u);
    if (finding.triaged == KnownBug::kBug13LdImm64Pessimize) {
      triaged = true;
      EXPECT_EQ(finding.kind, bpf::ReportKind::kMetamorphVerdictDivergence);
    }
  }
  EXPECT_TRUE(triaged);

  // And the finding replays through the triage pipeline: ExecuteCase with
  // metamorph on reproduces the signature, with it off it cannot.
  std::set<std::string> signatures = ExecuteCase(fc, buggy);
  bool replayed = false;
  for (const Finding& finding : result.findings) {
    replayed = replayed || signatures.count(finding.signature) != 0;
  }
  EXPECT_TRUE(replayed);
  CampaignOptions off = buggy;
  off.metamorph = false;
  for (const Finding& finding : result.findings) {
    EXPECT_EQ(ExecuteCase(fc, off).count(finding.signature), 0u);
  }
}

TEST(MetamorphOracleTest, CampaignFindsBug13OnlyWithMetamorph) {
  CampaignOptions options = CorrectKernelOptions();
  options.bugs = bpf::BugConfig::All();
  options.iterations = 120;
  options.seed = 7;
  options.metamorph = true;
  options.metamorph_k = 2;

  StructuredGenerator generator(options.version);
  ParallelFuzzer on(generator, options);
  const CampaignStats with_oracle = on.Run();
  EXPECT_TRUE(with_oracle.FoundBug(KnownBug::kBug13LdImm64Pessimize));
  EXPECT_GT(with_oracle.metamorph_bases, 0u);
  EXPECT_GT(with_oracle.metamorph_variants, with_oracle.metamorph_bases);
  EXPECT_GT(with_oracle.metamorph_verdict_divergences, 0u);
  const auto escalated = with_oracle.outcomes.find(CaseOutcome::kVerdictDivergence);
  ASSERT_NE(escalated, with_oracle.outcomes.end());
  EXPECT_GT(escalated->second, 0u);

  options.metamorph = false;
  StructuredGenerator generator_off(options.version);
  ParallelFuzzer off(generator_off, options);
  const CampaignStats without_oracle = off.Run();
  EXPECT_FALSE(without_oracle.FoundBug(KnownBug::kBug13LdImm64Pessimize));
  EXPECT_EQ(without_oracle.metamorph_variants, 0u);
}

TEST(MetamorphOracleTest, ConfirmationClassifiesDivergenceDeterministic) {
  CampaignOptions options = CorrectKernelOptions();
  options.bugs = bpf::BugConfig::All();
  options.iterations = 120;
  options.seed = 7;
  options.metamorph = true;
  options.confirm_runs = 3;
  StructuredGenerator generator(options.version);
  ParallelFuzzer fuzzer(generator, options);
  const CampaignStats stats = fuzzer.Run();
  bool saw_indicator4 = false;
  for (const Finding& finding : stats.findings) {
    if (finding.indicator != 4) {
      continue;
    }
    saw_indicator4 = true;
    EXPECT_EQ(finding.confirmation, Confirmation::kDeterministic)
        << finding.signature;
    EXPECT_EQ(finding.confirm_hits, 3);
  }
  EXPECT_TRUE(saw_indicator4);
}

TEST(MetamorphCheckpointTest, MmorphCountersRoundTrip) {
  CampaignCheckpoint cp;
  cp.fingerprint = "test";
  cp.next_iteration = 9;
  cp.stats.tool = "bvf";
  cp.stats.metamorph_bases = 101;
  cp.stats.metamorph_variants = 202;
  cp.stats.metamorph_verdict_divergences = 3;
  cp.stats.metamorph_witness_divergences = 2;
  cp.stats.metamorph_sanitizer_divergences = 1;

  const std::string path = ::testing::TempDir() + "/mmorph_roundtrip.ckpt";
  ASSERT_EQ(SaveCheckpoint(path, cp), 0);
  CampaignCheckpoint loaded;
  std::string error;
  ASSERT_EQ(LoadCheckpoint(path, &loaded, &error), 0) << error;
  EXPECT_EQ(loaded.stats.metamorph_bases, 101u);
  EXPECT_EQ(loaded.stats.metamorph_variants, 202u);
  EXPECT_EQ(loaded.stats.metamorph_verdict_divergences, 3u);
  EXPECT_EQ(loaded.stats.metamorph_witness_divergences, 2u);
  EXPECT_EQ(loaded.stats.metamorph_sanitizer_divergences, 1u);
  std::remove(path.c_str());

  // The metamorph counters must stay out of the result digest (same
  // discipline as the cache counters).
  CampaignStats plain;
  plain.tool = "bvf";
  CampaignStats with_counters = plain;
  with_counters.metamorph_bases = 7;
  with_counters.metamorph_variants = 14;
  EXPECT_EQ(StatsDigest(plain), StatsDigest(with_counters));
}

}  // namespace
}  // namespace bvf
