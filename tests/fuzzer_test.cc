// The BVF core: generators produce loadable inputs at the expected rates,
// campaigns are deterministic and leak-free of false positives, coverage
// feedback grows a corpus, and the oracle/triage tables behave.

#include <gtest/gtest.h>

#include "src/core/baselines.h"
#include "src/core/parallel.h"
#include "src/core/oracle.h"
#include "src/core/structured_gen.h"
#include "src/runtime/bpf_syscall.h"

namespace bvf {
namespace {

using bpf::BugConfig;
using bpf::KernelVersion;
using bpf::ReportKind;

// ---- Generators ----

TEST(GeneratorTest, StructuredProgramsAreEncodable) {
  StructuredGenerator generator(KernelVersion::kBpfNext);
  bpf::Rng rng(1);
  for (int i = 0; i < 300; ++i) {
    const FuzzCase the_case = generator.Generate(rng);
    EXPECT_EQ(bpf::CheckEncoding(the_case.prog, nullptr), 0)
        << the_case.prog.Disassemble();
    EXPECT_GE(the_case.maps.size(), 2u);
    EXPECT_LE(the_case.prog.insns.size(), bpf::kMaxInsns);
  }
}

TEST(GeneratorTest, StructuredAcceptanceNearPaperRate) {
  StructuredGenerator generator(KernelVersion::kBpfNext);
  CampaignOptions options;
  options.iterations = 1500;
  options.seed = 11;
  options.coverage_points = 0;
  ParallelFuzzer fuzzer(generator, options);
  const double rate = fuzzer.Run().AcceptanceRate();
  EXPECT_GT(rate, 0.35);  // paper: 49%
  EXPECT_LT(rate, 0.75);
}

TEST(GeneratorTest, SyzkallerAcceptanceLowerThanBvf) {
  SyzkallerGenerator syz(KernelVersion::kBpfNext);
  StructuredGenerator bvf_gen(KernelVersion::kBpfNext);
  CampaignOptions options;
  options.iterations = 1500;
  options.seed = 11;
  options.coverage_points = 0;
  ParallelFuzzer syz_fuzzer(syz, options);
  ParallelFuzzer bvf_fuzzer(bvf_gen, options);
  const double syz_rate = syz_fuzzer.Run().AcceptanceRate();
  const double bvf_rate = bvf_fuzzer.Run().AcceptanceRate();
  EXPECT_GT(syz_rate, 0.05);
  EXPECT_LT(syz_rate, 0.40);  // paper: 23.5%
  EXPECT_GT(bvf_rate, 1.5 * syz_rate);  // paper: >2x
}

TEST(GeneratorTest, BuzzerModesMatchPaperShape) {
  BuzzerGenerator alu_jmp(KernelVersion::kBpfNext);
  BuzzerGenerator random(KernelVersion::kBpfNext, BuzzerGenerator::Mode::kRandomBytes);
  CampaignOptions options;
  options.iterations = 1200;
  options.seed = 3;
  options.coverage_points = 0;
  ParallelFuzzer f1(alu_jmp, options);
  const CampaignStats alu_stats = f1.Run();
  EXPECT_GT(alu_stats.AcceptanceRate(), 0.90);  // paper: ~97%
  EXPECT_GT(alu_stats.AluJmpShare(), 0.70);     // paper: >88% ALU+JMP
  ParallelFuzzer f2(random, options);
  EXPECT_LT(f2.Run().AcceptanceRate(), 0.05);   // paper: ~1%
}

TEST(GeneratorTest, AblationKnobsChangeOutput) {
  StructuredGenOptions no_calls;
  no_calls.call_frames = false;
  StructuredGenerator generator(KernelVersion::kBpfNext, no_calls);
  bpf::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const FuzzCase the_case = generator.Generate(rng);
    for (const bpf::Insn& insn : the_case.prog.insns) {
      EXPECT_FALSE(insn.IsHelperCall()) << "call frame leaked through the ablation";
    }
  }
}

TEST(GeneratorTest, MutationPreservesEncodability) {
  StructuredGenerator generator(KernelVersion::kBpfNext);
  bpf::Rng rng(17);
  FuzzCase the_case = generator.Generate(rng);
  for (int i = 0; i < 200; ++i) {
    generator.Mutate(rng, the_case);
    ASSERT_EQ(bpf::CheckEncoding(the_case.prog, nullptr), 0)
        << the_case.prog.Disassemble();
  }
}

TEST(GeneratorTest, DeterministicForSeed) {
  StructuredGenerator generator(KernelVersion::kBpfNext);
  bpf::Rng rng_a(42);
  bpf::Rng rng_b(42);
  for (int i = 0; i < 20; ++i) {
    const FuzzCase a = generator.Generate(rng_a);
    const FuzzCase b = generator.Generate(rng_b);
    ASSERT_EQ(a.prog.insns.size(), b.prog.insns.size());
    for (size_t j = 0; j < a.prog.insns.size(); ++j) {
      ASSERT_EQ(a.prog.insns[j], b.prog.insns[j]);
    }
  }
}

// ---- Campaigns ----

TEST(FuzzerTest, CampaignIsDeterministic) {
  CampaignOptions options;
  options.iterations = 400;
  options.seed = 77;
  options.bugs = BugConfig::All();
  StructuredGenerator g1(options.version);
  StructuredGenerator g2(options.version);
  ParallelFuzzer f1(g1, options);
  const CampaignStats a = f1.Run();
  ParallelFuzzer f2(g2, options);
  const CampaignStats b = f2.Run();
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.findings.size(), b.findings.size());
  EXPECT_EQ(a.final_coverage, b.final_coverage);
}

TEST(FuzzerTest, NoFindingsOnFixedKernel) {
  CampaignOptions options;
  options.iterations = 1200;
  options.seed = 123;
  options.bugs = BugConfig::None();
  StructuredGenerator generator(options.version);
  ParallelFuzzer fuzzer(generator, options);
  const CampaignStats stats = fuzzer.Run();
  EXPECT_TRUE(stats.findings.empty())
      << stats.findings[0].signature << " | " << stats.findings[0].details;
}

TEST(FuzzerTest, FindsInjectedBugsQuickly) {
  CampaignOptions options;
  options.iterations = 2500;
  options.seed = 9;
  options.bugs = BugConfig::All();
  StructuredGenerator generator(options.version);
  ParallelFuzzer fuzzer(generator, options);
  const CampaignStats stats = fuzzer.Run();
  EXPECT_GE(stats.findings.size(), 8u);
  int distinct = 0;
  bool seen[16] = {};
  for (const Finding& finding : stats.findings) {
    const int id = static_cast<int>(finding.triaged);
    if (finding.triaged != KnownBug::kUnknown && !seen[id]) {
      seen[id] = true;
      ++distinct;
    }
  }
  EXPECT_GE(distinct, 7);
}

TEST(FuzzerTest, CoverageCurveIsMonotone) {
  CampaignOptions options;
  options.iterations = 960;
  options.seed = 4;
  options.coverage_points = 16;
  StructuredGenerator generator(options.version);
  ParallelFuzzer fuzzer(generator, options);
  const CampaignStats stats = fuzzer.Run();
  ASSERT_GE(stats.curve.size(), 15u);
  for (size_t i = 1; i < stats.curve.size(); ++i) {
    EXPECT_GE(stats.curve[i].covered, stats.curve[i - 1].covered);
  }
  EXPECT_EQ(stats.curve.back().covered, stats.final_coverage);
}

TEST(FuzzerTest, RejectErrnosAreTracked) {
  CampaignOptions options;
  options.iterations = 600;
  options.seed = 21;
  SyzkallerGenerator generator(options.version);
  ParallelFuzzer fuzzer(generator, options);
  const CampaignStats stats = fuzzer.Run();
  uint64_t total = 0;
  for (const auto& [err, count] : stats.reject_errno) {
    EXPECT_GT(err, 0);
    total += count;
  }
  EXPECT_EQ(total, stats.rejected);
  EXPECT_GT(stats.reject_errno.count(EACCES), 0u);
}

// ---- Oracle / triage ----

TEST(OracleTest, IndicatorClassification) {
  bpf::ReportSink sink;
  sink.Report(ReportKind::kBpfAsanOob, "bpf_asan_load", "read of size 8 at 0x1 near object 'task_struct'");
  sink.Report(ReportKind::kLockdepRecursion, "bpf_task_storage_lock", "");
  const auto findings = ClassifyReports(sink, 0, 7);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].indicator, 1);
  EXPECT_EQ(findings[0].triaged, KnownBug::kBug2TaskStructBounds);
  EXPECT_EQ(findings[0].iteration, 7u);
  EXPECT_EQ(findings[1].indicator, 2);
  EXPECT_EQ(findings[1].triaged, KnownBug::kBug5ContentionBegin);
}

TEST(OracleTest, WatermarkSkipsOldReports) {
  bpf::ReportSink sink;
  sink.Report(ReportKind::kWarn, "old", "");
  const size_t mark = sink.Watermark();
  sink.Report(ReportKind::kPanic, "bpf_send_signal", "");
  const auto findings = ClassifyReports(sink, mark, 1);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].triaged, KnownBug::kBug6SendSignal);
}

TEST(OracleTest, TriageTable) {
  using R = bpf::KernelReport;
  EXPECT_EQ(TriageReport(R{ReportKind::kBpfAsanNullDeref, "bpf_asan_load",
                           "read of size 8 at 0x0000000000000000"}),
            KnownBug::kBug1NullnessPropagation);
  EXPECT_EQ(TriageReport(R{ReportKind::kBpfAsanNullDeref, "bpf_asan_load",
                           "read of size 8 at 0x0000000000000010"}),
            KnownBug::kCve2022_23222);
  EXPECT_EQ(TriageReport(R{ReportKind::kAluLimitViolation, "bpf_asan_alu", ""}),
            KnownBug::kBug3KfuncBacktrack);
  EXPECT_EQ(TriageReport(R{ReportKind::kLockdepInconsistent, "trace_printk_lock", ""}),
            KnownBug::kBug4TracePrintkRecursion);
  EXPECT_EQ(TriageReport(R{ReportKind::kLockdepInconsistent, "rq_lock", ""}),
            KnownBug::kBug10IrqWork);
  EXPECT_EQ(TriageReport(R{ReportKind::kKasanNullDeref, "bpf_dispatcher_xdp_func", ""}),
            KnownBug::kBug7DispatcherSync);
  EXPECT_EQ(TriageReport(R{ReportKind::kWarn, "bpf_prog_load", "kmemdup of 32768 failed"}),
            KnownBug::kBug8Kmemdup);
  EXPECT_EQ(TriageReport(R{ReportKind::kWarn, "xdp_do_generic", ""}),
            KnownBug::kBug11XdpOffload);
  EXPECT_EQ(TriageReport(R{ReportKind::kKasanOob, "htab_map_lookup_batch", ""}),
            KnownBug::kBug9BucketIteration);
  EXPECT_EQ(TriageReport(R{ReportKind::kPageFault, "bpf_prog_run", ""}),
            KnownBug::kUnknown);
}

TEST(OracleTest, KnownBugNamesAreDistinct) {
  std::set<std::string> names;
  for (int i = 0; i <= 12; ++i) {
    names.insert(KnownBugName(static_cast<KnownBug>(i)));
  }
  EXPECT_EQ(names.size(), 13u);
}

// ---- End-to-end soundness sweep ----

// Any accepted risky program on a fully fixed kernel must execute without a
// single kernel report: the verifier model is sound w.r.t. the runtime.
TEST(SoundnessSweep, AcceptedProgramsNeverMisbehaveOnFixedKernel) {
  for (const KernelVersion version :
       {KernelVersion::kV5_15, KernelVersion::kV6_1, KernelVersion::kBpfNext}) {
    CampaignOptions options;
    options.version = version;
    options.bugs = BugConfig::None();
    options.iterations = 800;
    options.seed = 31337;
    StructuredGenerator generator(version);
    ParallelFuzzer fuzzer(generator, options);
    const CampaignStats stats = fuzzer.Run();
    EXPECT_TRUE(stats.findings.empty())
        << bpf::KernelVersionName(version) << ": " << stats.findings[0].signature << " | "
        << stats.findings[0].details;
  }
}

}  // namespace
}  // namespace bvf
