// Indicator #3 end-to-end: the verifier exports per-instruction abstract-state
// claims, the interpreter records concrete register witnesses, and the audit
// reports any witness outside its claim. Seeding the synthetic bounds bug
// (bug12_jmp32_signed_refine) must produce exactly the indicator #3 finding --
// the corrupted s32 range never feeds a pointer offset, so indicators #1/#2
// stay silent -- and a no-bug kernel must audit completely clean.

#include <gtest/gtest.h>

#include "src/analysis/state_audit.h"
#include "src/core/parallel.h"
#include "src/core/oracle.h"
#include "src/core/repro.h"
#include "src/core/structured_gen.h"
#include "src/ebpf/insn.h"
#include "src/runtime/bpf_syscall.h"
#include "src/verifier/helper_protos.h"

namespace bvf {
namespace {

using bpf::BugConfig;
using bpf::KernelVersion;

BugConfig Bug12Only() {
  BugConfig bugs = BugConfig::None();
  bugs.bug12_jmp32_signed_refine = true;
  return bugs;
}

// r0 = get_prandom_u32(); if w0 > 1, the buggy jmp32 refinement claims
// s32_min(r0) = 2 on the taken path -- false whenever the random draw has
// bit 31 set (0x80000000 is > 1 unsigned but negative signed).
FuzzCase Bug12TriggerCase() {
  FuzzCase the_case;
  the_case.prog.type = bpf::ProgType::kSocketFilter;
  the_case.prog.insns = {
      bpf::CallHelper(bpf::kHelperGetPrandomU32),
      bpf::Jmp32Imm(bpf::kJmpJgt, bpf::kR0, 1, 2),
      bpf::MovImm(bpf::kR0, 0),
      bpf::Exit(),
      bpf::MovImm(bpf::kR1, 7),  // claim for r0 is audited on arrival here
      bpf::Exit(),
  };
  the_case.test_runs = 8;  // 8 random draws: P(no sign bit seen) = 2^-8
  return the_case;
}

TEST(StateAuditTest, Bug12HandcraftedRepro) {
  CampaignOptions options;
  options.bugs = Bug12Only();
  bool accepted = false;
  const std::set<std::string> signatures =
      ExecuteCase(Bug12TriggerCase(), options, &accepted);
  ASSERT_TRUE(accepted);

  // Exactly one deduped finding: the s32_min containment miss. Nothing from
  // indicators #1/#2.
  ASSERT_EQ(signatures.size(), 1u) << *signatures.begin();
  EXPECT_NE(signatures.begin()->find("bpf_state_audit: s32_min violation"),
            std::string::npos)
      << *signatures.begin();
}

TEST(StateAuditTest, Bug12ReproTriagesToBug12) {
  bpf::Kernel kernel(KernelVersion::kBpfNext, Bug12Only());
  bpf::Bpf bpf(kernel);
  bpf.set_exec_observer(
      [&kernel](const bpf::LoadedProgram& prog, const bpf::WitnessTrace& trace) {
        AuditAndReport(prog, trace, kernel.reports());
      });
  const FuzzCase the_case = Bug12TriggerCase();
  const int fd = bpf.ProgLoad(the_case.prog);
  ASSERT_GT(fd, 0);
  for (int run = 0; run < the_case.test_runs; ++run) {
    bpf.ProgTestRun(fd, 64, static_cast<uint64_t>(run));
  }
  const std::vector<Finding> findings =
      ClassifyReports(kernel.reports(), 0, /*iteration=*/0);
  ASSERT_FALSE(findings.empty());
  for (const Finding& finding : findings) {
    EXPECT_EQ(finding.indicator, 3);
    EXPECT_EQ(finding.triaged, KnownBug::kBug12Jmp32SignedRefine);
  }
}

TEST(StateAuditTest, NoBugKernelAuditsClean) {
  // A correct verifier's claims must contain every concrete execution: the
  // audit on a no-bug kernel is the soundness regression test for the whole
  // claim-recording protocol.
  CampaignOptions options;
  options.bugs = BugConfig::None();
  const std::set<std::string> signatures = ExecuteCase(Bug12TriggerCase(), options);
  EXPECT_TRUE(signatures.empty()) << *signatures.begin();
}

TEST(StateAuditTest, CampaignBug12OnlyIndicator3Sees) {
  CampaignOptions options;
  options.bugs = Bug12Only();
  // The trigger needs a jmp32 unsigned compare whose operand carries a
  // full-range runtime value (in practice a prandom draw with bit 31 set)
  // surviving to the join -- rare enough that a short campaign can miss it.
  options.iterations = 1500;
  options.seed = 5;
  StructuredGenerator generator(options.version);
  ParallelFuzzer fuzzer(generator, options);
  const CampaignStats stats = fuzzer.Run();

  int ind3 = 0;
  for (const Finding& finding : stats.findings) {
    EXPECT_EQ(finding.indicator, 3) << finding.signature;
    if (finding.indicator == 3) ++ind3;
  }
  EXPECT_GT(ind3, 0) << "campaign never tripped the state audit";
}

TEST(StateAuditTest, CampaignNoBugsNoAuditFindings) {
  CampaignOptions options;
  options.bugs = BugConfig::None();
  options.iterations = 300;
  options.seed = 17;
  StructuredGenerator generator(options.version);
  ParallelFuzzer fuzzer(generator, options);
  const CampaignStats stats = fuzzer.Run();
  for (const Finding& finding : stats.findings) {
    EXPECT_NE(finding.indicator, 3) << finding.signature << "\n" << finding.details;
  }
}

TEST(StateAuditTest, AuditDisabledRecordsNothing) {
  CampaignOptions options;
  options.bugs = Bug12Only();
  options.audit_state = false;
  const std::set<std::string> signatures = ExecuteCase(Bug12TriggerCase(), options);
  EXPECT_TRUE(signatures.empty());
}

}  // namespace
}  // namespace bvf
