// A small BVF campaign against a kernel carrying every Table 2 bug:
// structured generation -> verify (+ sanitize) -> execute/attach/drive ->
// oracle -> triage. Prints the bug report list the way a real campaign's
// triage queue looks.
//
// Usage: fuzz_campaign [iterations] [seed] [--analysis]
//          [--fault-rate=F] [--confirm-runs=K]
//          [--checkpoint=PATH] [--checkpoint-every=N] [--resume=PATH]
//          [--stop-after=N] [--jobs=N]
//          [--interp=decoded|legacy|jit] [--jit-oracle]
//          [--conformance=DIR]
//          [--metamorph] [--metamorph-k=K] [--smoke]
//          [--supervise] [--worker-retries=K] [--hang-timeout=MS]
//          [--quarantine=PATH] [--journal=PATH] [--replay-quarantine=PATH]
//
// The campaign runs on the epoch engine (src/core/parallel.h) with --jobs
// worker threads (default 1). Results are bit-identical for every N, so a
// checkpoint written at --jobs=8 resumes at --jobs=1. --interp selects the
// execution engine: decoded micro-op dispatch (the default), the native
// x86-64 JIT tier compiled from the same micro-ops, or the legacy
// instruction-at-a-time interpreter; all three are digest-identical, so the
// flag is a pure throughput switch (--interp=jit on a host without JIT
// support warns once and runs decoded). --jit-oracle turns on the Indicator
// #5 differential oracle: every accepted case is executed under both the
// decoded interpreter and the JIT on clean throwaway substrates, and any
// witness difference — a miscompile by construction — becomes a finding and
// a jit-divergence case outcome. --metamorph
// turns on the Indicator #4 metamorphic oracle: every accepted case is
// re-derived into --metamorph-k semantics-preserving variants and any
// base/variant divergence (verdict flip, witness mismatch, indicator
// asymmetry) becomes a finding and an escalated case outcome.
// --conformance=DIR runs the Indicator #6 conformance prologue before
// iteration 1: every `.data` expected-value case under DIR (src/conformance)
// is loaded through PROG_LOAD and executed on all three engines; a wrong r0
// or a surprising verdict becomes an indicator-6 finding, and accepted cases
// seed the mutation corpus. The prologue is deterministic and digest-stable
// across --jobs/--supervise; resumed campaigns skip it (the checkpoint
// already carries its findings and seeds).
//
// --supervise runs the epoch-shard discipline with crash-isolated worker
// *processes* (src/core/supervisor): a worker that crashes, hangs past
// --hang-timeout, or exits is re-forked with backoff; after --worker-retries
// consecutive failures the in-flight case is written to --quarantine (replay
// it later with --replay-quarantine) and its iteration skipped. --journal
// names a write-ahead findings/corpus journal that both the parallel and
// supervised engines fsync at every epoch barrier, so a kill between
// checkpoints cannot lose a recorded finding. Supervised results are
// digest-identical to --jobs=N in-process runs (same engine=parallel
// checkpoints, interchangeable both ways). Hidden test hooks
// --test-crash-at/--test-crash-mode/--test-crash-marker inject a
// deterministic worker failure for the smoke gate.
//
// With --analysis, the first finding's regenerated trigger is run through the
// static-analysis passes: CFG dump, lints, liveness, and the per-instruction
// abstract-claim vs concrete-witness diff (indicator #3's view of the case).
//
// Unknown flags, malformed numbers, extra positional arguments, unknown
// --interp values, and flags that would be silently ignored
// (--checkpoint-every without --checkpoint; --worker-retries, --hang-timeout,
// --quarantine and --test-crash-* without --supervise) are usage errors: the
// flag is named on stderr and the exit status is 2.
//
// With --smoke, the run acts as the robustness gate: it asserts that every
// iteration landed in a classified outcome bucket and (when confirmation is
// on) that every finding carries a confirmation verdict, then prints a
// `campaign-digest` line usable for resume bit-identity comparison. It also
// runs two small embedded parallel campaigns (jobs=1 vs jobs=2) and asserts
// their digests are identical — the job-count-invariance gate. Exits non-zero
// on any violation.

#include <cerrno>
#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/core/parallel.h"
#include "src/core/repro.h"
#include "src/core/structured_gen.h"
#include "src/core/supervisor/supervisor.h"

namespace {

// Prints a usage error naming |arg| and exits 2.
[[noreturn]] void UsageError(const char* arg, const char* why) {
  fprintf(stderr, "fuzz_campaign: %s: %s\n", arg, why);
  fprintf(stderr,
          "usage: fuzz_campaign [iterations] [seed] [--flag[=value] ...] "
          "(flags are listed in the header of examples/fuzz_campaign.cc)\n");
  exit(2);
}

// Parses all of |text| as a decimal unsigned integer, or fails on |arg|.
uint64_t ParseU64(const char* arg, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = strtoull(text, &end, 10);
  if (*text < '0' || *text > '9' || *end != '\0' || errno != 0) {
    UsageError(arg, "expected a non-negative integer");
  }
  return value;
}

int ParseInt(const char* arg, const char* text) {
  const uint64_t value = ParseU64(arg, text);
  if (value > static_cast<uint64_t>(INT_MAX)) {
    UsageError(arg, "value out of range");
  }
  return static_cast<int>(value);
}

double ParseProbability(const char* arg, const char* text) {
  char* end = nullptr;
  const double value = strtod(text, &end);
  if (end == text || *end != '\0' || !(value >= 0.0 && value <= 1.0)) {
    UsageError(arg, "expected a probability in [0, 1]");
  }
  return value;
}

bpf::ExecEngine ParseEngine(const char* arg, const char* text) {
  if (strcmp(text, "decoded") == 0) {
    return bpf::ExecEngine::kDecoded;
  }
  if (strcmp(text, "legacy") == 0) {
    return bpf::ExecEngine::kLegacy;
  }
  if (strcmp(text, "jit") != 0) {
    UsageError(arg, "expected decoded, legacy or jit");
  }
  return bpf::ExecEngine::kJit;
}

// Everything the command line sets: the campaign options themselves plus the
// driver's own switches.
struct Cli {
  bvf::CampaignOptions options;
  bool analysis = false;
  bool smoke = false;
  bool supervise = false;
  std::string replay_quarantine;
};

// One flag. A name ending in '=' takes a value (--name=value); |apply| gets
// the whole argument (for error messages) and the value ("" for a switch).
// |needs| names a flag that must also be given, or is null.
struct Flag {
  const char* name;
  const char* needs;
  void (*apply)(Cli& cli, const char* arg, const char* value);
};

const Flag kFlags[] = {
    {"--analysis", nullptr, [](Cli& c, const char*, const char*) { c.analysis = true; }},
    {"--smoke", nullptr, [](Cli& c, const char*, const char*) { c.smoke = true; }},
    {"--jobs=", nullptr,
     [](Cli& c, const char* arg, const char* v) {
       c.options.jobs = ParseInt(arg, v);
       if (c.options.jobs < 1) {
         UsageError(arg, "need at least one job");
       }
     }},
    {"--interp=", nullptr,
     [](Cli& c, const char* arg, const char* v) { c.options.interp_engine = ParseEngine(arg, v); }},
    {"--jit-oracle", nullptr,
     [](Cli& c, const char*, const char*) { c.options.jit_oracle = true; }},
    {"--conformance=", nullptr,
     [](Cli& c, const char*, const char* v) { c.options.conformance_dir = v; }},
    {"--metamorph", nullptr, [](Cli& c, const char*, const char*) { c.options.metamorph = true; }},
    {"--metamorph-k=", nullptr,
     [](Cli& c, const char* arg, const char* v) { c.options.metamorph_k = ParseInt(arg, v); }},
    {"--fault-rate=", nullptr,
     [](Cli& c, const char* arg, const char* v) {
       c.options.fault.probability = ParseProbability(arg, v);
     }},
    {"--confirm-runs=", nullptr,
     [](Cli& c, const char* arg, const char* v) { c.options.confirm_runs = ParseInt(arg, v); }},
    {"--checkpoint=", nullptr,
     [](Cli& c, const char*, const char* v) { c.options.checkpoint_path = v; }},
    {"--checkpoint-every=", "--checkpoint=",
     [](Cli& c, const char* arg, const char* v) { c.options.checkpoint_every = ParseU64(arg, v); }},
    {"--resume=", nullptr, [](Cli& c, const char*, const char* v) { c.options.resume_path = v; }},
    {"--stop-after=", nullptr,
     [](Cli& c, const char* arg, const char* v) { c.options.stop_after = ParseU64(arg, v); }},
    {"--supervise", nullptr, [](Cli& c, const char*, const char*) { c.supervise = true; }},
    {"--worker-retries=", "--supervise",
     [](Cli& c, const char* arg, const char* v) { c.options.worker_retries = ParseInt(arg, v); }},
    {"--hang-timeout=", "--supervise",
     [](Cli& c, const char* arg, const char* v) { c.options.hang_timeout_ms = ParseInt(arg, v); }},
    {"--quarantine=", "--supervise",
     [](Cli& c, const char*, const char* v) { c.options.quarantine_path = v; }},
    {"--journal=", nullptr, [](Cli& c, const char*, const char* v) { c.options.journal_path = v; }},
    {"--replay-quarantine=", nullptr,
     [](Cli& c, const char*, const char* v) { c.replay_quarantine = v; }},
    {"--test-crash-at=", "--supervise",
     [](Cli& c, const char* arg, const char* v) { c.options.test_crash_at = ParseU64(arg, v); }},
    {"--test-crash-mode=", "--supervise",
     [](Cli& c, const char* arg, const char* v) { c.options.test_crash_mode = ParseInt(arg, v); }},
    {"--test-crash-marker=", "--supervise",
     [](Cli& c, const char*, const char* v) { c.options.test_crash_marker = v; }},
};

const Flag* FindFlag(const char* arg) {
  for (const Flag& flag : kFlags) {
    const size_t len = strlen(flag.name);
    if (flag.name[len - 1] == '=' ? strncmp(arg, flag.name, len) == 0
                                  : strcmp(arg, flag.name) == 0) {
      return &flag;
    }
  }
  return nullptr;
}

Cli ParseCommandLine(int argc, char** argv) {
  Cli cli;
  cli.options.version = bpf::KernelVersion::kBpfNext;
  cli.options.bugs = bpf::BugConfig::All();
  cli.options.iterations = 3000;
  cli.options.limits.wall_budget_ms = 2000;  // no case may hang the campaign
  std::set<std::string> given;
  std::vector<std::pair<const Flag*, const char*>> used;  // flag, argument
  int npos = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (const Flag* flag = FindFlag(arg)) {
      flag->apply(cli, arg, arg + strlen(flag->name));
      given.insert(flag->name);
      used.emplace_back(flag, arg);
    } else if (arg[0] == '-') {
      UsageError(arg, "unknown flag");
    } else if (npos == 0) {
      cli.options.iterations = ParseU64(arg, arg);
      ++npos;
    } else if (npos == 1) {
      cli.options.seed = ParseU64(arg, arg);
      ++npos;
    } else {
      UsageError(arg, "unexpected argument (at most [iterations] [seed])");
    }
  }
  // A flag whose partner is missing would be silently ignored.
  for (const auto& [flag, arg] : used) {
    if (flag->needs != nullptr && given.count(flag->needs) == 0) {
      const std::string why = "needs " + std::string(flag->needs, strcspn(flag->needs, "="));
      UsageError(arg, why.c_str());
    }
  }
  return cli;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bvf;

  const Cli cli = ParseCommandLine(argc, argv);
  const CampaignOptions& options = cli.options;
  const bool supervise = cli.supervise;

  // Quarantine replay: no campaign, just re-execute each quarantined case
  // through the deterministic repro path and report its signatures.
  if (!cli.replay_quarantine.empty()) {
    std::vector<QuarantineRecord> records;
    std::string error;
    if (LoadQuarantine(cli.replay_quarantine, &records, &error) != 0) {
      fprintf(stderr, "replay failed: %s\n", error.c_str());
      return 2;
    }
    printf("replaying %zu quarantined case(s) from %s\n", records.size(),
           cli.replay_quarantine.c_str());
    for (const QuarantineRecord& record : records) {
      bool accepted = false;
      const std::set<std::string> sigs = ExecuteCase(record.the_case, options, &accepted);
      printf("  iteration %" PRIu64 " (%d failed attempts, signal/code %d): %s, %zu "
             "signature(s)\n",
             record.iteration, record.attempts, record.signal_or_code,
             accepted ? "accepted" : "rejected", sigs.size());
      for (const std::string& sig : sigs) {
        printf("    %s\n", sig.c_str());
      }
    }
    return 0;
  }

  printf("BVF campaign: %" PRIu64 " programs against %s with %d injected bugs (seed %" PRIu64
         ")\n",
         options.iterations, bpf::KernelVersionName(options.version), options.bugs.Count(),
         options.seed);
  if (options.fault.Active()) {
    printf("  fault injection: p=%.3f on %d kernel fault points\n",
           options.fault.probability, bpf::kNumFaultPoints);
  }
  if (supervise) {
    printf("  supervised engine: %d worker process(es), epoch length %" PRIu64
           ", %d retries, %d ms hang timeout\n",
           options.jobs, options.epoch_len, options.worker_retries, options.hang_timeout_ms);
  } else {
    printf("  epoch engine: %d job(s), epoch length %" PRIu64 "\n", options.jobs,
           options.epoch_len);
  }

  StructuredGenerator generator(options.version);
  CampaignStats stats;
  if (supervise) {
    SupervisedFuzzer fuzzer(generator, options);
    stats = fuzzer.Run();
  } else {
    ParallelFuzzer fuzzer(generator, options);
    stats = fuzzer.Run();
  }

  if (!stats.resume_error.empty()) {
    fprintf(stderr, "resume failed: %s\n", stats.resume_error.c_str());
    return 2;
  }
  if (stats.resumed_from != 0) {
    printf("  resumed at iteration %" PRIu64 "\n", stats.resumed_from);
  }

  printf("\ncampaign summary\n");
  printf("  generated:       %" PRIu64 "\n", stats.iterations);
  printf("  accepted:        %" PRIu64 " (%.1f%%)\n", stats.accepted,
         100 * stats.AcceptanceRate());
  printf("  executions:      %" PRIu64 " (%" PRIu64 " failed)\n", stats.exec_runs,
         stats.exec_failures);
  printf("  coverage:        %zu verifier branches\n", stats.final_coverage);
  printf("  sanitizer:       %zu mem sites, %zu alu checks, %.2fx footprint\n",
         stats.sanitizer.mem_sites, stats.sanitizer.alu_sites, stats.sanitizer.Footprint());
  printf("  faults injected: %" PRIu64 "\n", stats.fault_injected);
  if (options.jit_oracle) {
    uint64_t jit_divergences = 0;
    for (const Finding& finding : stats.findings) {
      jit_divergences += finding.indicator == 5 ? 1 : 0;
    }
    printf("  jit oracle:      %s; %" PRIu64 " divergence finding(s)\n",
           bpf::JitAvailable() ? "decoded-vs-jit compare on accepted cases"
                               : "inactive (jit unavailable on this host)",
           jit_divergences);
  }
  if (!options.conformance_dir.empty()) {
    printf("  conformance:     %" PRIu64 " cases: %" PRIu64 " passed, %" PRIu64
           " mismatch(es), %" PRIu64 " verdict gap(s); %" PRIu64 " seeded into corpus\n",
           stats.conf_cases, stats.conf_passed, stats.conf_mismatches, stats.conf_rejects,
           stats.conf_seeded);
  }
  if (options.metamorph) {
    printf("  metamorph:       %" PRIu64 " bases, %" PRIu64 " variants; divergences %" PRIu64
           " verdict / %" PRIu64 " witness / %" PRIu64 " sanitizer\n",
           stats.metamorph_bases, stats.metamorph_variants,
           stats.metamorph_verdict_divergences, stats.metamorph_witness_divergences,
           stats.metamorph_sanitizer_divergences);
  }
  printf("  panics contained:%" PRIu64 " (%" PRIu64 " substrate rebuilds)\n", stats.panics,
         stats.substrate_rebuilds);
  if (supervise) {
    printf("  supervisor:      %" PRIu64 " crashes / %" PRIu64 " hangs / %" PRIu64
           " exits; %" PRIu64 " restarts, %" PRIu64 " quarantined, %" PRIu64
           " epochs degraded\n",
           stats.worker_crashes, stats.worker_hangs, stats.worker_exits,
           stats.worker_restarts, stats.quarantined_cases, stats.epochs_abandoned);
    for (const Finding& crash : stats.crash_findings) {
      printf("  worker-crash:    %s\n", crash.signature.c_str());
    }
  }
  printf("  outcomes:\n");
  for (const auto& [outcome, count] : stats.outcomes) {
    printf("    %-18s %" PRIu64 "\n", CaseOutcomeName(outcome), count);
  }

  printf("\ntriage queue (%zu unique findings)\n", stats.findings.size());
  for (const Finding& finding : stats.findings) {
    printf("  indicator#%d  @%-6" PRIu64 " %s\n", finding.indicator, finding.iteration,
           finding.signature.c_str());
    printf("               triaged: %s", KnownBugName(finding.triaged));
    if (finding.confirmation != Confirmation::kUnconfirmed) {
      printf("  [%s %d/%d]", ConfirmationName(finding.confirmation), finding.confirm_hits,
             finding.confirm_runs);
    }
    printf("\n");
  }

  if (cli.smoke) {
    // Robustness gate: every iteration classified, nothing unclassified, and
    // (with confirmation on) every finding carries a verdict.
    int failures = 0;
    uint64_t total_outcomes = 0;
    for (const auto& [outcome, count] : stats.outcomes) {
      total_outcomes += count;
    }
    const auto unclassified = stats.outcomes.find(CaseOutcome::kUnclassified);
    if (unclassified != stats.outcomes.end() && unclassified->second != 0) {
      fprintf(stderr, "SMOKE FAIL: %" PRIu64 " unclassified outcomes\n",
              unclassified->second);
      ++failures;
    }
    if (total_outcomes != stats.iterations) {
      fprintf(stderr,
              "SMOKE FAIL: outcome buckets sum to %" PRIu64 " but %" PRIu64
              " iterations ran\n",
              total_outcomes, stats.iterations);
      ++failures;
    }
    if (options.confirm_runs > 0) {
      for (const Finding& finding : stats.findings) {
        if (finding.confirmation == Confirmation::kUnconfirmed) {
          fprintf(stderr, "SMOKE FAIL: unconfirmed finding %s\n",
                  finding.signature.c_str());
          ++failures;
        }
      }
    }
    // Job-count-invariance gate: a small embedded parallel campaign must
    // produce the same digest at jobs=1 and jobs=2.
    {
      CampaignOptions par = options;
      par.iterations = 200;
      par.stop_after = 0;
      par.checkpoint_path.clear();
      par.checkpoint_every = 0;
      par.resume_path.clear();
      std::string digests[2];
      for (int j = 0; j < 2; ++j) {
        par.jobs = j + 1;
        StructuredGenerator par_gen(par.version);
        ParallelFuzzer par_fuzzer(par_gen, par);
        digests[j] = StatsDigest(par_fuzzer.Run());
      }
      if (digests[0] != digests[1]) {
        fprintf(stderr, "SMOKE FAIL: parallel digest differs across job counts (%s vs %s)\n",
                digests[0].c_str(), digests[1].c_str());
        ++failures;
      } else {
        printf("parallel-invariance-digest %s\n", digests[0].c_str());
      }
    }
    printf("\ncampaign-digest %s\n", StatsDigest(stats).c_str());
    if (failures != 0) {
      return 1;
    }
    printf("smoke: all %" PRIu64 " iterations classified, %zu findings confirmed\n",
           stats.iterations, stats.findings.size());
    return 0;
  }

  // Triage support: regenerate the first indicator-#1 trigger (campaigns are
  // deterministic) and minimize it to a near-guilty-instruction reproducer.
  // With --analysis, also run the static-analysis passes over the trigger.
  for (const Finding& finding : stats.findings) {
    if (finding.indicator != 1 && !cli.analysis) {
      continue;
    }
    StructuredGenerator regen(options.version);
    bpf::Rng rng(options.seed);
    FuzzCase trigger;
    bool found = false;
    for (uint64_t i = 1; i <= options.iterations && !found; ++i) {
      trigger = regen.Generate(rng);
      found = ExecuteCase(trigger, options).count(finding.signature) != 0;
    }
    if (!found) {
      continue;  // the trigger needed corpus mutation state; try the next one
    }
    if (cli.analysis) {
      printf("\nstatic analysis of trigger for \"%s\"\n", finding.signature.c_str());
      printf("%s", AnalyzeCase(trigger, options).c_str());
    }
    if (finding.indicator == 1) {
      const MinimizeResult reduced =
          MinimizeCase(trigger, finding.signature, options, 1500);
      printf("\nminimized reproducer for \"%s\"\n", finding.signature.c_str());
      printf("(%zu -> %zu insns after %d re-executions)\n", reduced.insns_before,
             reduced.insns_after, reduced.executions);
      printf("%s", reduced.reduced.prog.Disassemble().c_str());
    }
    break;
  }
  return 0;
}
