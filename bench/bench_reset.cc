// Experiment: hot-loop throughput overhaul (DESIGN.md §13).
//
// Measures the same 2000-iteration jobs=1 campaign twice on one binary:
//   baseline  — the pre-overhaul configuration: full-arena rewind between
//               cases, full StateEqual scans in the pruning back-edge walk;
//   optimized — dirty-tracked reset + prune fingerprint fast path (the
//               shipping defaults).
//
// Measurement hygiene: each campaign runs in a forked child so neither
// configuration inherits the other's heap and page-cache state (a baseline
// full-rewind campaign leaves hundreds of MB of allocator churn behind that
// slows a following in-process run by ~30%). Repeats are interleaved
// (baseline, optimized, baseline, ...), the speedup is the median of the
// per-pair ratios (adjacent runs see the same machine state, so load drift
// cancels inside a pair), and the table reports each config's best run.
//
// Two acceptance bars, both enforced here (not just reported):
//   * >= 5x executions/sec over the baseline, and
//   * bit-identical StatsDigest between the two runs — every one of these
//     switches is an implementation detail the campaign's results must not
//     see. A fast run with a different digest is a correctness failure.
//
// Results go to stdout as a table and to BENCH_reset.json for tooling.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/checkpoint.h"
#include "src/verifier/verifier.h"

namespace bvf {
namespace {

constexpr uint64_t kIterations = 2000;
constexpr int kRepeats = 5;  // interleaved repeats to damp scheduler noise
constexpr double kBar = 5.0;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunResult {
  double seconds = 0;
  uint64_t exec_runs = 0;
  uint64_t accepted = 0;
  uint64_t coverage = 0;
  char digest[32] = {};
};

// One full campaign in the given configuration.
RunResult RunCampaign(bool optimized) {
  CampaignOptions options;
  options.version = bpf::KernelVersion::kBpfNext;
  options.bugs = bpf::BugConfig::All();
  options.iterations = kIterations;
  options.seed = 1;
  options.jobs = 1;
  options.dirty_reset = optimized;
  bpf::SetPruneFingerprintEnabled(optimized);

  StructuredGenerator generator(options.version);
  ParallelFuzzer fuzzer(generator, options);
  const double start = Now();
  const CampaignStats stats = fuzzer.Run();

  RunResult result;
  result.seconds = Now() - start;
  result.exec_runs = stats.exec_runs;
  result.accepted = stats.accepted;
  result.coverage = stats.final_coverage;
  snprintf(result.digest, sizeof(result.digest), "%s", StatsDigest(stats).c_str());
  return result;
}

}  // namespace
}  // namespace bvf

int main() {
  using namespace bvf;
  PrintHeader("hot-loop throughput: dirty reset + prune fingerprint");
  printf("campaign: %" PRIu64 " iterations, all bugs, jobs=1, "
         "%d interleaved isolated run pairs\n\n",
         kIterations, kRepeats);

  // Speedup estimator: the ratio within each (baseline, optimized) pair is
  // computed from two back-to-back runs that see the same machine state, so
  // background-load drift cancels inside a pair; the median across pairs
  // then drops outliers. Comparing one config's best against the other's
  // best would compare runs minutes apart instead.
  RunResult baseline;
  RunResult optimized;
  std::vector<double> pair_speedups;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    RunResult runs[2];  // [baseline, optimized]
    for (int config = 0; config < 2; ++config) {
      if (!RunForked([config] { return RunCampaign(config == 1); }, &runs[config])) {
        fprintf(stderr, "measurement child failed\n");
        return 1;
      }
    }
    if (repeat == 0 || runs[0].seconds < baseline.seconds) {
      baseline = runs[0];
    }
    if (repeat == 0 || runs[1].seconds < optimized.seconds) {
      optimized = runs[1];
    }
    pair_speedups.push_back(runs[0].seconds / runs[1].seconds);
  }

  printf("%-12s %9s %10s %10s %9s\n", "config", "seconds", "execs/s", "accepted",
         "coverage");
  PrintRule(56);
  printf("%-12s %9.3f %10.0f %10" PRIu64 " %9" PRIu64 "\n", "baseline",
         baseline.seconds, baseline.exec_runs / baseline.seconds,
         baseline.accepted, baseline.coverage);
  printf("%-12s %9.3f %10.0f %10" PRIu64 " %9" PRIu64 "\n", "optimized",
         optimized.seconds, optimized.exec_runs / optimized.seconds,
         optimized.accepted, optimized.coverage);

  const double speedup = Median(pair_speedups);
  const bool digests_match = strcmp(baseline.digest, optimized.digest) == 0;
  printf("\nspeedup: %.2fx, median of %d interleaved pairs (bar >= %.1fx)\n",
         speedup, kRepeats, kBar);
  printf("digests identical: %s (%s)\n", digests_match ? "yes" : "NO",
         optimized.digest);

  FILE* json = fopen("BENCH_reset.json", "w");
  if (json) {
    fprintf(json,
            "{\n"
            "  \"iterations\": %" PRIu64 ",\n"
            "  \"repeats\": %d,\n"
            "  \"bar\": %.1f,\n"
            "  \"baseline_seconds\": %.4f,\n"
            "  \"optimized_seconds\": %.4f,\n"
            "  \"baseline_execs_per_sec\": %.1f,\n"
            "  \"optimized_execs_per_sec\": %.1f,\n"
            "  \"speedup\": %.3f,\n"
            "  \"speedup_method\": \"median of per-repeat pairwise ratios\",\n"
            "  \"digests_match\": %s,\n"
            "  \"stats_digest\": \"%s\"\n"
            "}\n",
            kIterations, kRepeats, kBar, baseline.seconds, optimized.seconds,
            baseline.exec_runs / baseline.seconds,
            optimized.exec_runs / optimized.seconds, speedup,
            digests_match ? "true" : "false", optimized.digest);
    fclose(json);
    printf("wrote BENCH_reset.json\n");
  }

  if (!digests_match) {
    return 1;
  }
  if (speedup < kBar) {
    return 1;
  }
  return 0;
}
