// Experiment: robustness engine cost.
//
// The fault-injection hooks, execution guards, outcome classification, and
// periodic checkpointing all sit on the campaign hot path, so they must be
// close to free when idle and cheap when armed. Three configurations over the
// same seed and iteration count:
//
//   baseline   -- guards at defaults, no fault injection, no checkpointing
//   guarded    -- wall watchdog armed (2s) + periodic checkpoint every 500
//   faulted    -- guarded plus 10% fault injection and 3-run confirmation
//
// The acceptance bar is < 5% regression for `guarded` over `baseline`: the
// default-on machinery may not tax a clean campaign. `faulted` is reported
// for context (it does strictly more work per case — extra outcomes, fault
// bookkeeping, confirmation re-executions) and has no bar.
//
// Results go to stdout as a table and to bench_robustness.json for tooling.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"

namespace bvf {
namespace {

constexpr uint64_t kIterations = 2000;
constexpr int kRepeats = 3;  // best-of to damp scheduler noise

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunResult {
  double seconds = 0;
  uint64_t findings = 0;
  uint64_t faults = 0;
  uint64_t panics = 0;
};

enum class Mode { kBaseline, kGuarded, kFaulted };

RunResult MeasureCampaign(Mode mode) {
  CampaignOptions options;
  options.version = bpf::KernelVersion::kBpfNext;
  options.bugs = bpf::BugConfig::All();
  options.iterations = kIterations;
  options.seed = 1;
  if (mode != Mode::kBaseline) {
    options.limits.wall_budget_ms = 2000;
    options.checkpoint_path = "bench_robustness.bvfcp";
    options.checkpoint_every = 500;
  }
  if (mode == Mode::kFaulted) {
    options.fault.probability = 0.1;
    options.confirm_runs = 3;
  }

  RunResult best;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    StructuredGenerator generator(options.version);
    ParallelFuzzer fuzzer(generator, options);
    const double start = Now();
    const CampaignStats stats = fuzzer.Run();
    const double seconds = Now() - start;
    if (repeat == 0 || seconds < best.seconds) {
      best.seconds = seconds;
      best.findings = stats.findings.size();
      best.faults = stats.fault_injected;
      best.panics = stats.panics;
    }
  }
  return best;
}

}  // namespace
}  // namespace bvf

int main() {
  using namespace bvf;
  PrintHeader("robustness engine: guard + checkpoint + fault-injection overhead");

  const RunResult baseline = MeasureCampaign(Mode::kBaseline);
  const RunResult guarded = MeasureCampaign(Mode::kGuarded);
  const RunResult faulted = MeasureCampaign(Mode::kFaulted);
  std::remove("bench_robustness.bvfcp");

  const double guard_overhead = 100 * (guarded.seconds / baseline.seconds - 1);
  const double fault_overhead = 100 * (faulted.seconds / baseline.seconds - 1);

  printf("campaign: %" PRIu64 " iterations, all bugs, best of %d runs\n\n", kIterations,
         kRepeats);
  printf("%-10s %10s %10s %9s %8s %7s\n", "mode", "seconds", "iters/s", "findings",
         "faults", "panics");
  PrintRule(60);
  printf("%-10s %10.3f %10.0f %9" PRIu64 " %8" PRIu64 " %7" PRIu64 "\n", "baseline",
         baseline.seconds, kIterations / baseline.seconds, baseline.findings,
         baseline.faults, baseline.panics);
  printf("%-10s %10.3f %10.0f %9" PRIu64 " %8" PRIu64 " %7" PRIu64 "\n", "guarded",
         guarded.seconds, kIterations / guarded.seconds, guarded.findings,
         guarded.faults, guarded.panics);
  printf("%-10s %10.3f %10.0f %9" PRIu64 " %8" PRIu64 " %7" PRIu64 "\n", "faulted",
         faulted.seconds, kIterations / faulted.seconds, faulted.findings,
         faulted.faults, faulted.panics);

  printf("\nguarded overhead: %+.2f%% (acceptance bar < 5%%)\n", guard_overhead);
  printf("faulted overhead: %+.2f%% (informational)\n", fault_overhead);

  FILE* json = fopen("bench_robustness.json", "w");
  if (json) {
    fprintf(json,
            "{\n"
            "  \"iterations\": %" PRIu64 ",\n"
            "  \"repeats\": %d,\n"
            "  \"baseline_seconds\": %.4f,\n"
            "  \"guarded_seconds\": %.4f,\n"
            "  \"faulted_seconds\": %.4f,\n"
            "  \"guarded_overhead_pct\": %.2f,\n"
            "  \"faulted_overhead_pct\": %.2f,\n"
            "  \"baseline_findings\": %" PRIu64 ",\n"
            "  \"guarded_findings\": %" PRIu64 ",\n"
            "  \"faulted_findings\": %" PRIu64 ",\n"
            "  \"faulted_faults_injected\": %" PRIu64 ",\n"
            "  \"faulted_panics\": %" PRIu64 "\n"
            "}\n",
            kIterations, kRepeats, baseline.seconds, guarded.seconds, faulted.seconds,
            guard_overhead, fault_overhead, baseline.findings, guarded.findings,
            faulted.findings, faulted.faults, faulted.panics);
    fclose(json);
    printf("wrote bench_robustness.json\n");
  }
  return guard_overhead < 5 ? 0 : 1;
}
