// The test oracle (paper §3): classifies kernel reports into the two
// correctness-bug indicators, and triages findings against the known root
// causes of Table 2.

#ifndef SRC_CORE_ORACLE_H_
#define SRC_CORE_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/kernel/report.h"

namespace bvf {

enum class KnownBug {
  kUnknown = 0,
  kBug1NullnessPropagation,
  kBug2TaskStructBounds,
  kBug3KfuncBacktrack,
  kBug4TracePrintkRecursion,
  kBug5ContentionBegin,
  kBug6SendSignal,
  kBug7DispatcherSync,
  kBug8Kmemdup,
  kBug9BucketIteration,
  kBug10IrqWork,
  kBug11XdpOffload,
  kCve2022_23222,
  // Synthetic bounds-tracking bug only the abstract-state audit can see: the
  // corrupted s32 range never feeds a pointer offset, so indicators #1/#2
  // stay silent (src/verifier/bug_registry.h, bug12_jmp32_signed_refine).
  kBug12Jmp32SignedRefine,
  // Synthetic spurious-rejection asymmetry only the metamorphic oracle can
  // see: the ld_imm64 path drops small-constant tracking that the mov-imm
  // path keeps, so an accepted program's ld_imm64-spelled variant fails to
  // load (src/verifier/bug_registry.h, bug13_ld_imm64_pessimize).
  kBug13LdImm64Pessimize,
};

const char* KnownBugName(KnownBug bug);

// Re-execution verdict for a finding (campaign confirmation pass): whether
// replaying the originating case reproduces the report without faults
// (deterministic), only under the recorded fault schedule (fault-dependent),
// or not reliably at all (flaky).
enum class Confirmation {
  kUnconfirmed = 0,   // confirmation disabled or not yet run
  kDeterministic,     // reproduces on every clean re-execution
  kFaultDependent,    // reproduces on every fault-log replay, not cleanly
  kFlaky,             // fails to reproduce consistently either way
};

const char* ConfirmationName(Confirmation confirmation);

struct Finding {
  bpf::ReportKind kind;
  std::string signature;  // stable dedup key
  std::string details;
  int indicator;          // 1 or 2 (paper §3.1/§3.2), 3 (state audit),
                          // 4 (metamorphic divergence), 5 (jit-vs-
                          // interpreter differential, DESIGN.md §14.5), or
                          // 6 (conformance expected-value oracle, §15)
  KnownBug triaged = KnownBug::kUnknown;
  uint64_t iteration = 0;  // campaign iteration that first triggered it

  // Confirmation pass results (CaseRunner::ConfirmFinding).
  Confirmation confirmation = Confirmation::kUnconfirmed;
  int confirm_hits = 0;  // re-executions that reproduced the signature
  int confirm_runs = 0;  // re-executions attempted
};

// Converts reports filed since |watermark| into findings (indicator
// classification + triage).
std::vector<Finding> ClassifyReports(const bpf::ReportSink& sink, size_t watermark,
                                     uint64_t iteration);

// Best-effort attribution of a report to a Table 2 root cause, using the
// report kind and the originating kernel routine (the automated part of the
// paper's triage; the paper's root-cause analysis itself is manual).
KnownBug TriageReport(const bpf::KernelReport& report);

}  // namespace bvf

#endif  // SRC_CORE_ORACLE_H_
