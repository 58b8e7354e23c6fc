// Robustness sweeps over the tooling surface: the disassembler never chokes
// on generated or arbitrary encodable instructions, campaign statistics are
// internally consistent, and generated fuzz cases drive the full pipeline
// deterministically across kernel versions.

#include <gtest/gtest.h>

#include "src/core/baselines.h"
#include "src/core/parallel.h"
#include "src/core/structured_gen.h"
#include "src/runtime/bpf_syscall.h"

namespace bpf {
namespace {

TEST(DisasmRobustness, HandlesGeneratedPrograms) {
  bvf::StructuredGenerator generator(KernelVersion::kBpfNext);
  Rng rng(99);
  for (int i = 0; i < 100; ++i) {
    const bvf::FuzzCase the_case = generator.Generate(rng);
    const std::string text = the_case.prog.Disassemble();
    EXPECT_FALSE(text.empty());
    // One line per instruction.
    size_t lines = 0;
    for (const char c : text) {
      lines += c == '\n';
    }
    EXPECT_EQ(lines, the_case.prog.insns.size());
  }
}

TEST(DisasmRobustness, HandlesArbitraryBytes) {
  Rng rng(123);
  for (int i = 0; i < 20000; ++i) {
    Insn insn;
    insn.opcode = static_cast<uint8_t>(rng.Next());
    insn.dst = static_cast<uint8_t>(rng.Below(16));
    insn.src = static_cast<uint8_t>(rng.Below(16));
    insn.off = static_cast<int16_t>(rng.Next());
    insn.imm = static_cast<int32_t>(rng.Next());
    const std::string text = Disassemble(insn);
    EXPECT_FALSE(text.empty());
  }
}

TEST(CampaignConsistency, CountsAddUp) {
  bvf::CampaignOptions options;
  options.iterations = 500;
  options.seed = 88;
  options.bugs = BugConfig::All();
  bvf::StructuredGenerator generator(options.version);
  bvf::ParallelFuzzer fuzzer(generator, options);
  const bvf::CampaignStats stats = fuzzer.Run();
  EXPECT_EQ(stats.iterations, options.iterations);
  EXPECT_EQ(stats.accepted + stats.rejected, stats.iterations);
  EXPECT_GE(stats.exec_runs, stats.accepted);  // each accepted runs >= once
  EXPECT_EQ(stats.findings.size(), stats.finding_signatures.size());
  EXPECT_GT(stats.insns_total, 0u);
  EXPECT_GE(stats.insns_total, stats.insns_alu_jmp + stats.insns_mem + stats.insns_call);
  // Sanitizer ran on every accepted program.
  EXPECT_EQ(stats.sanitizer.programs, stats.accepted);
  EXPECT_GE(stats.sanitizer.insns_after, stats.sanitizer.insns_before);
}

TEST(CampaignConsistency, SanitizeOffStillFindsIndicator2) {
  // Without sanitation, indicator #1 coverage is lost but kernel self-checks
  // (indicator #2) still fire — the paper's point that both are needed.
  bvf::CampaignOptions options;
  options.iterations = 3000;
  options.seed = 5;
  options.bugs = BugConfig::All();
  options.sanitize = false;
  bvf::StructuredGenerator generator(options.version);
  bvf::ParallelFuzzer fuzzer(generator, options);
  const bvf::CampaignStats stats = fuzzer.Run();
  bool has_indicator2 = false;
  bool has_bpf_asan = false;
  for (const bvf::Finding& finding : stats.findings) {
    has_indicator2 |= finding.indicator == 2;
    has_bpf_asan |= IsIndicator1(finding.kind);
  }
  EXPECT_TRUE(has_indicator2);
  EXPECT_FALSE(has_bpf_asan);  // no dispatch checks were installed
}

TEST(CampaignConsistency, AllToolsRunAllVersions) {
  // Smoke: every (tool, version) pair completes a tiny campaign.
  for (const KernelVersion version :
       {KernelVersion::kV5_15, KernelVersion::kV6_1, KernelVersion::kBpfNext}) {
    bvf::StructuredGenerator bvf_gen(version);
    bvf::SyzkallerGenerator syz(version);
    bvf::BuzzerGenerator buzzer(version);
    for (bvf::Generator* generator :
         std::initializer_list<bvf::Generator*>{&bvf_gen, &syz, &buzzer}) {
      bvf::CampaignOptions options;
      options.version = version;
      options.bugs = BugConfig::ForVersion(version);
      options.iterations = 120;
      options.seed = 1;
      bvf::ParallelFuzzer fuzzer(*generator, options);
      const bvf::CampaignStats stats = fuzzer.Run();
      EXPECT_EQ(stats.iterations, 120u) << generator->name();
    }
  }
}

TEST(CampaignConsistency, CorpusFeedbackCanBeDisabled) {
  bvf::CampaignOptions options;
  options.iterations = 300;
  options.seed = 6;
  options.coverage_feedback = false;
  bvf::StructuredGenerator generator(options.version);
  bvf::ParallelFuzzer fuzzer(generator, options);
  const bvf::CampaignStats stats = fuzzer.Run();
  EXPECT_EQ(stats.iterations, 300u);
}

}  // namespace
}  // namespace bpf
