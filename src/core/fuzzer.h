// The BVF campaign loop (paper Fig. 3): generate a structured program,
// load it through the (instrumented) verifier, execute and drive it, and
// convert kernel reports into correctness-bug findings via the oracle.
// Coverage feedback preserves interesting programs for mutation.
//
// This header holds the campaign vocabulary (options, stats, outcomes) and
// the per-case machinery (CaseRunner). The engines that drive it are
// ParallelFuzzer (src/core/parallel.h: in-process worker threads, jobs=1 by
// default) and SupervisedFuzzer (src/core/supervisor: worker processes); both
// run the epoch-shard discipline of src/core/epoch.h, so their results are
// bit-identical for any job count.

#ifndef SRC_CORE_FUZZER_H_
#define SRC_CORE_FUZZER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/generator.h"
#include "src/core/oracle.h"
#include "src/kernel/fault_inject.h"
#include "src/runtime/decoded_prog.h"
#include "src/runtime/exec_context.h"
#include "src/runtime/jit_prog.h"
#include "src/sanitizer/instrument.h"
#include "src/verifier/bug_registry.h"
#include "src/verifier/kernel_version.h"

namespace bvf {

class MetamorphOracle;

struct CampaignOptions {
  bpf::KernelVersion version = bpf::KernelVersion::kBpfNext;
  bpf::BugConfig bugs = bpf::BugConfig::None();
  bool sanitize = true;               // BVF's memory sanitation on/off
  bool audit_state = true;            // Indicator #3 abstract-state audit on/off
  uint64_t iterations = 5000;
  uint64_t seed = 1;
  bool coverage_feedback = true;      // corpus-guided generation
  int coverage_points = 48;           // curve samples ("hours" in Fig. 6)
  size_t arena_size = 512 * 1024;

  // -- Robustness engine (DESIGN.md §8) --
  // Kernel fault injection (failslab/fail_function model). Each case gets a
  // fresh injector seeded from FaultSeed(seed, iteration), so schedules are
  // independent of the case-generation seeds and survive checkpoint/resume.
  bpf::FaultConfig fault;
  // Per-invocation execution guards (step budget, wall watchdog, call depth).
  bpf::ExecLimits limits;
  // KASAN-arena allocation budget per case in bytes (0 = arena size only).
  size_t arena_budget = 0;
  // Findings re-executed this many times for deterministic/flaky
  // classification (0 = confirmation off).
  int confirm_runs = 0;
  // Reuse one kernel substrate across cases (boot-snapshot rewind between
  // cases; full teardown + rebuild after a simulated panic). Off = the
  // pre-robustness behaviour of one substrate per case.
  bool reuse_substrate = true;
  // Campaign checkpointing: serialize resumable state to |checkpoint_path|
  // at the first epoch barrier past each multiple of |checkpoint_every|
  // (and at completion).
  std::string checkpoint_path;
  uint64_t checkpoint_every = 0;
  // Resume a previous campaign from this checkpoint file.
  std::string resume_path;
  // Deterministic simulated kill: stop after this absolute iteration
  // (0 = run to |iterations|). Checkpoint accounting stays identical to an
  // uninterrupted run, which is what makes resume bit-identity testable.
  // Rounded up to the end of the containing epoch.
  uint64_t stop_after = 0;

  // -- Epoch engine (DESIGN.md §9) --
  // Worker threads (or processes, supervised). The result is bit-identical
  // for every value ≥ 1.
  int jobs = 1;
  // Iterations per synchronization epoch: the grain at which coverage,
  // corpus and findings merge. Part of the campaign's semantics (and
  // fingerprint) — changing it changes results; changing |jobs| does not.
  uint64_t epoch_len = 64;
  // Dirty-tracked arena reset (src/kernel/kasan.h): ResetCaseState rewrites
  // only the pages the case touched instead of the whole arena. Byte-for-byte
  // identical to the full rewind (BVF_PARANOID_RESET cross-checks), so it is
  // digest-invisible; off exists as the bench_reset baseline.
  bool dirty_reset = true;
  // Execution engine: decoded micro-op dispatch (default), the native x86-64
  // JIT tier compiled from the same micro-ops, or the legacy
  // instruction-at-a-time interpreter. Purely a throughput switch — all three
  // engines are digest-identical (tests/interp_parity_test.cc) — so it is
  // excluded from the options fingerprint. Selecting kJit where the JIT is
  // unavailable (non-x86-64, W^X mappings denied) downgrades to kDecoded with
  // a one-line warning.
  bpf::ExecEngine interp_engine = bpf::ExecEngine::kDecoded;

  // -- JIT differential oracle (Indicator #5) --
  // For every accepted case, execute the program once under the decoded
  // interpreter and once under the JIT on clean throwaway substrates and
  // compare the witnesses (verdict, per-run err/R0, indicator kinds, panic
  // state). Any difference is a kJitDivergence finding — a miscompile by
  // construction, since the engines implement one semantics. Results-changing,
  // so it is part of the options fingerprint. Independent of |interp_engine|:
  // the oracle always compares decoded vs jit. No-op when the JIT is
  // unavailable on this host.
  bool jit_oracle = false;

  // -- Metamorphic oracle (Indicator #4, DESIGN.md §11) --
  // For every accepted case, execute |metamorph_k| semantics-preserving
  // variants on clean throwaway substrates and classify base/variant
  // divergences (verdict flip, witness mismatch, indicator asymmetry).
  // Results-changing, so both knobs are part of the options fingerprint.
  bool metamorph = false;
  int metamorph_k = 2;

  // -- Conformance corpus (Indicator #6, DESIGN.md §15) --
  // Directory of `.data` expected-value cases (src/conformance). When set,
  // every engine runs the full corpus as a campaign prologue before iteration
  // 0: each case is loaded and executed on all three engines, mismatches and
  // verdict surprises become indicator-6 findings (digest-included), and each
  // accepted case is appended to the mutation corpus as a seed.
  // Results-changing, so the directory is part of the options fingerprint;
  // resumed campaigns skip the prologue (its findings and seeds are already
  // in the checkpoint).
  std::string conformance_dir;

  // -- Crash-isolated supervisor (DESIGN.md §12; SupervisedFuzzer only) --
  // All process-management knobs: none is part of the options fingerprint
  // (a supervised campaign must resume as an in-process one and vice versa).
  // Failures tolerated per epoch before its in-flight cases are quarantined
  // and the epoch is re-run with the poison iterations skipped.
  int worker_retries = 3;
  // Missed-heartbeat deadline in milliseconds (0 disables hang detection).
  // Workers heartbeat once per case, so this bounds a single case's runtime.
  int hang_timeout_ms = 30000;
  // Base of the bounded exponential backoff between worker re-forks.
  int retry_backoff_ms = 50;
  // Poison-case records (replayable via bvf_repro) land here after
  // |worker_retries| consecutive failures of the same epoch.
  std::string quarantine_path;
  // Write-ahead findings/corpus journal (src/core/journal). Records are
  // appended at every epoch barrier before the checkpoint write, so findings
  // survive a supervisor kill between checkpoints.
  std::string journal_path;
  // Deterministic crash injection for tests and the smoke gate: the worker
  // executing absolute iteration |test_crash_at| first checks
  // |test_crash_marker| — if the file does not exist it creates it and
  // performs |test_crash_mode| (so the injected failure fires exactly once
  // and the retry proceeds cleanly). 0 = injection off.
  uint64_t test_crash_at = 0;
  int test_crash_mode = 0;  // 0=SIGABRT 1=SIGKILL 2=hang 3=exit(3)
  std::string test_crash_marker;
};

struct CoveragePoint {
  uint64_t iteration;
  size_t covered;
};

// Per-case terminal classification. Every iteration lands in exactly one
// bucket; kUnclassified existing in a campaign's totals is itself a bug (the
// smoke gate asserts it stays at zero).
enum class CaseOutcome {
  kUnclassified = 0,
  kRejected,            // verifier refused the program
  kExecOk,              // loaded and every execution returned cleanly
  kExecFault,           // some execution aborted (-EFAULT and friends)
  kExecTimeout,         // step budget / wall-clock watchdog trip
  kResourceExhausted,   // allocation failure (-ENOMEM/-E2BIG/-ENOSPC/-EAGAIN)
  kPanic,               // the simulated kernel panicked during the case
  // Metamorphic-oracle escalations (checkpoint-serialized as ints: append
  // only). A case whose base execution was clean but whose variants diverged
  // lands in the highest-precedence divergence bucket.
  kVerdictDivergence,   // a variant's PROG_LOAD verdict flipped
  kWitnessDivergence,   // a variant's per-run error/R0 differed
  kSanitizerDivergence, // indicator kinds fired on one side only
  // JIT differential oracle (Indicator #5): the decoded interpreter and the
  // JIT disagreed on this case's witness. Appended last — checkpoint
  // serialization stores outcomes as ints.
  kJitDivergence,
  // Conformance corpus (Indicator #6, DESIGN.md §15). These never enter
  // |CampaignStats::outcomes| — the prologue runs before iteration 0, and the
  // outcome histogram must keep summing to |iterations| — but they name the
  // two conformance failure classes wherever a per-case classification is
  // reported (finding details, tooling output). Append-tail as above.
  kConformanceMismatch,  // accepted, but an engine's r0 differed from expected
  kConformanceReject,    // verifier verdict contradicted the case expectation
};

const char* CaseOutcomeName(CaseOutcome outcome);

struct CampaignStats {
  std::string tool;
  CampaignOptions options;

  uint64_t iterations = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  std::map<int, uint64_t> reject_errno;  // load errno (positive) -> count
  uint64_t exec_runs = 0;
  std::map<int, uint64_t> exec_errno;    // execution errno (positive) -> count
  uint64_t exec_failures = 0;            // executions that returned an error

  // Robustness accounting.
  std::map<CaseOutcome, uint64_t> outcomes;
  uint64_t panics = 0;             // simulated panics contained in-run
  uint64_t substrate_rebuilds = 0; // teardown + reboot cycles after panics
  uint64_t fault_injected = 0;     // fault-point failures actually injected

  // Always 0: nothing in the campaign writes them (there is no decode or JIT
  // cache). Kept because campaignbench's counter table and agreement check
  // name them.
  uint64_t decode_cache_hits = 0;
  uint64_t decode_cache_misses = 0;
  uint64_t decode_cache_evictions = 0;
  uint64_t jit_cache_hits = 0;

  // Metamorphic-oracle accounting (Indicator #4). The divergence *outcomes*
  // land in |outcomes| (digest-included); these volume counters are
  // deterministic for any job count, excluded from StatsDigest, and carried
  // across resume by their own checkpoint line.
  uint64_t metamorph_bases = 0;     // accepted cases the oracle examined
  uint64_t metamorph_variants = 0;  // variants executed to a witness
  uint64_t metamorph_verdict_divergences = 0;
  uint64_t metamorph_witness_divergences = 0;
  uint64_t metamorph_sanitizer_divergences = 0;

  // Supervisor accounting (SupervisedFuzzer only). These describe the
  // *process* (how many workers died, how often the supervisor re-forked),
  // not the campaign result, so they are excluded from StatsDigest and ride
  // their own checkpoint line.
  uint64_t worker_crashes = 0;     // workers reaped on a crash signal
  uint64_t worker_hangs = 0;       // workers reaped past the heartbeat deadline
  uint64_t worker_exits = 0;       // workers reaped on an unexpected clean exit
  uint64_t worker_restarts = 0;    // re-forks (includes retries of one epoch)
  uint64_t epochs_abandoned = 0;   // epochs re-run with poison cases skipped
  uint64_t quarantined_cases = 0;  // poison records written to the quarantine
  // kWorkerCrash findings (one per reaped worker, carrying the captured
  // stderr tail). Kept out of |findings| and the digest so a supervised
  // campaign with a crash stays digest-comparable to an uninterrupted run.
  std::vector<Finding> crash_findings;

  // Conformance-prologue accounting (Indicator #6). The mismatch/reject
  // *findings* land in |findings| (digest-included); these volume counters
  // are deterministic for any job count, excluded from StatsDigest, and
  // carried across resume by their own checkpoint line.
  uint64_t conf_cases = 0;       // corpus cases driven by the prologue
  uint64_t conf_passed = 0;      // pass + expected-reject
  uint64_t conf_mismatches = 0;  // expected-value mismatches (engine bugs)
  uint64_t conf_rejects = 0;     // verdict surprises (verifier gaps)
  uint64_t conf_seeded = 0;      // accepted cases appended to the corpus

  // Resume bookkeeping (not part of checkpoints or digests).
  uint64_t resumed_from = 0;       // first iteration executed after resume
  std::string resume_error;        // non-empty when --resume was rejected

  std::vector<Finding> findings;  // deduped by signature
  std::set<std::string> finding_signatures;

  std::vector<CoveragePoint> curve;
  size_t final_coverage = 0;

  uint64_t insns_total = 0;
  uint64_t insns_alu_jmp = 0;
  uint64_t insns_mem = 0;
  uint64_t insns_call = 0;

  SanitizerStats sanitizer;

  double AcceptanceRate() const {
    const uint64_t total = accepted + rejected;
    return total == 0 ? 0.0 : static_cast<double>(accepted) / static_cast<double>(total);
  }
  double AluJmpShare() const {
    return insns_total == 0 ? 0.0
                            : static_cast<double>(insns_alu_jmp) /
                                  static_cast<double>(insns_total);
  }
  bool FoundBug(KnownBug bug) const;
  // First iteration at which |bug| was observed; 0 when never found.
  uint64_t FoundAtIteration(KnownBug bug) const;
};

// One simulated machine plus the per-case drive/classify/confirm logic. A
// CaseRunner is single-owner state: each epoch worker (thread or process)
// holds its own (substrates are private; the only cross-runner state is the
// process-global Coverage registry, committed at epoch barriers).
class CaseRunner {
 public:
  explicit CaseRunner(const CampaignOptions& options);
  ~CaseRunner();

  struct CaseResult {
    int prog_fd = 0;
    uint64_t exec_runs = 0;
    std::vector<int> exec_errs;       // err of every execution, 0 included
    CaseOutcome outcome = CaseOutcome::kUnclassified;
    bool panicked = false;
    uint64_t faults_injected = 0;
    std::vector<Finding> findings;    // classified; dedup/confirm is the engine's job
    bpf::FaultLog fault_log;          // recorded fault schedule (empty if faults off)

    // Metamorphic-oracle accounting for this case (all zero when the oracle
    // is off or the case was rejected).
    uint64_t metamorph_bases = 0;
    uint64_t metamorph_variants = 0;
    uint64_t metamorph_verdict_divergences = 0;
    uint64_t metamorph_witness_divergences = 0;
    uint64_t metamorph_sanitizer_divergences = 0;
  };

  // Runs one case end-to-end: fault schedule from FaultSeed(seed, iteration),
  // map setup + load + test runs + attach/XDP/batch drive, outcome
  // classification, report→finding conversion, then the panic/reuse substrate
  // policy. The substrate is boot-equivalent again when this returns.
  CaseResult RunOne(const FuzzCase& the_case, uint64_t iteration);

  // Finding confirmation: re-executes the originating case |confirm_runs|
  // times on throwaway substrates, first clean, then (if clean runs don't
  // reproduce) replaying the recorded fault schedule. Coverage recording is
  // suppressed throughout. Sets finding.confirmation.
  void ConfirmFinding(Finding& finding, const FuzzCase& the_case, uint64_t iteration,
                      const bpf::FaultLog& fault_log);

  Sanitizer& sanitizer() { return sanitizer_; }

  // Drops the substrate (end of campaign).
  void Teardown();

 private:
  // One simulated machine: kernel substrate + its bpf(2) facade. Torn down
  // and rebuilt after a panic; otherwise rewound between cases.
  struct Substrate;

  // Aggregate of one case's driver pass, fed to outcome classification.
  struct DriveResult {
    int prog_fd = 0;
    uint64_t exec_runs = 0;
    std::vector<int> exec_errs;
  };

  Substrate& EnsureSubstrate();
  void ConfigureSubstrate(Substrate& sub, Sanitizer* sanitizer);
  // Replays the exact RunOne driver sequence (map setup, test runs, attach,
  // XDP, batched lookups) against |sub| with the case's iteration-derived
  // seeds. Shared by the campaign pass and finding confirmation.
  DriveResult DriveCase(Substrate& sub, const FuzzCase& the_case, uint64_t iteration);
  bool ReproduceOnce(const FuzzCase& the_case, uint64_t iteration,
                     const std::string& signature, const bpf::FaultLog* replay);

  const CampaignOptions& options_;
  Sanitizer sanitizer_;
  std::unique_ptr<Substrate> substrate_;
  std::unique_ptr<MetamorphOracle> metamorph_;  // non-null iff options.metamorph
};

// Folds one case's instruction-mix statistics into |stats|.
void AccumulateInsnMix(const FuzzCase& the_case, CampaignStats& stats);

// Folds a CaseResult's order-independent counters (accept/reject, errno
// histograms, outcome buckets, panic/fault accounting) into |stats|.
void AccumulateCaseCounters(const CaseRunner::CaseResult& result, CampaignStats& stats);

// Conformance prologue (Indicator #6, DESIGN.md §15): loads the corpus at
// options.conformance_dir, drives every case through all three engines on the
// campaign's kernel configuration, converts mismatches and verdict surprises
// into indicator-6 findings (deduped into |stats| like campaign findings,
// confirmed options.confirm_runs times), fills the conf_* counters, and
// appends each accepted case to |corpus| as a mutation seed. Deterministic:
// the same options produce bit-identical stats for every engine and job
// count. Coverage recording is suppressed throughout so the prologue cannot
// disturb the campaign's coverage-guided generation. Returns false (filling
// stats.resume_error) when the directory is missing or a case fails to parse.
bool RunConformancePrologue(const CampaignOptions& options, CampaignStats& stats,
                            std::vector<FuzzCase>* corpus);

}  // namespace bvf

#endif  // SRC_CORE_FUZZER_H_
