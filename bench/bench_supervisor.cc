// Experiment: crash-isolated campaign supervisor overhead (DESIGN.md §12).
//
// Runs the same campaign (all bugs, faults off, structured generation with
// every case pinned to repeat=64 sanitized executions — the campaign's hot
// ProgTestRunRepeat shape, cf. bench_interp — jobs=2) three ways:
//
//   * in-process parallel engine (the §9 thread-sharded baseline),
//   * supervised: one forked worker process per shard, epochs streamed over
//     the pipe protocol and merged by the coordinator,
//   * supervised with one injected SIGKILL mid-epoch (informational): the
//     price of reaping the worker, re-forking, and re-running the epoch.
//
// The supervisor exists to survive worker crashes, not to be fast — but it
// must not tax a healthy campaign. Acceptance bars:
//
//   * supervised digest bit-identical to the in-process digest (a divergent
//     run is a correctness failure, not a perf data point), and
//   * supervised throughput within 10% of in-process (fork + pipe framing +
//     coordinator-side merge is per-epoch, not per-case, so the overhead
//     amortises across the epoch length).
//
// The crash row is never gated on time — its digest must still match, which
// is the whole point of transparent retry.
//
// Measurement follows bench_reset: every campaign runs in a forked child, so
// no run inherits another's heap state; the three engines run interleaved
// (in-process, supervised, crash, in-process, ...), and each overhead is the
// median of the per-round ratios against that round's in-process run —
// adjacent runs see the same machine state, so load drift cancels inside a
// round. The table reports each engine's best run.
//
// Results go to stdout as a table and to bench_supervisor.json for tooling.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/checkpoint.h"
#include "src/core/parallel.h"
#include "src/core/supervisor/supervisor.h"

namespace bvf {
namespace {

constexpr uint64_t kIterations = 1000;
constexpr int kRepeats = 7;  // interleaved rounds; forked workers on a shared
                             // core are noisier than threads
constexpr int kJobs = 2;
constexpr int kTestRuns = 64;

// Structured generation with every case's driver pinned to repeat=64
// executions. The supervisor's per-case cost (one CASE_BEGIN heartbeat frame)
// is fixed, so the honest overhead number comes from the workload the
// campaign actually spends its time in: execution-dominated sanitized runs.
class Repeat64Generator : public Generator {
 public:
  explicit Repeat64Generator(bpf::KernelVersion version)
      : version_(version), inner_(version) {}

  const char* name() const override { return "bvf-repeat64"; }
  FuzzCase Generate(bpf::Rng& rng) override {
    FuzzCase the_case = inner_.Generate(rng);
    the_case.test_runs = kTestRuns;
    return the_case;
  }
  void Mutate(bpf::Rng& rng, FuzzCase& the_case) override {
    inner_.Mutate(rng, the_case);
    the_case.test_runs = kTestRuns;
  }
  std::unique_ptr<Generator> Clone() const override {
    return std::make_unique<Repeat64Generator>(version_);
  }

 private:
  bpf::KernelVersion version_;
  StructuredGenerator inner_;
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Fixed-size so a forked child can send it back over a pipe in one write.
struct RunResult {
  double seconds = 0;
  uint64_t exec_runs = 0;
  uint64_t coverage = 0;
  uint64_t crashes = 0;
  uint64_t restarts = 0;
  char digest[32] = {};
};

CampaignOptions BenchOptions() {
  CampaignOptions options;
  options.version = bpf::KernelVersion::kBpfNext;
  options.bugs = bpf::BugConfig::All();
  options.iterations = kIterations;
  options.seed = 1;
  options.jobs = kJobs;
  return options;
}

enum class Engine { kInProcess, kSupervised, kSupervisedCrash };

RunResult RunCampaign(Engine engine, int round, const char* marker_dir) {
  CampaignOptions options = BenchOptions();
  char marker[256];
  if (engine == Engine::kSupervisedCrash) {
    // One SIGKILL per run: the marker file arms a single shot, and a fresh
    // path per round re-arms it.
    snprintf(marker, sizeof(marker), "%s/crash-%d.marker", marker_dir, round);
    options.test_crash_at = kIterations / 2;
    options.test_crash_mode = 1;  // SIGKILL
    options.test_crash_marker = marker;
  }
  Repeat64Generator generator(options.version);
  CampaignStats stats;
  const double start = Now();
  if (engine == Engine::kInProcess) {
    ParallelFuzzer fuzzer(generator, options);
    stats = fuzzer.Run();
  } else {
    SupervisedFuzzer fuzzer(generator, options);
    stats = fuzzer.Run();
  }
  RunResult result;
  result.seconds = Now() - start;
  result.exec_runs = stats.exec_runs;
  result.coverage = stats.final_coverage;
  result.crashes = stats.worker_crashes;
  result.restarts = stats.worker_restarts;
  snprintf(result.digest, sizeof(result.digest), "%s", StatsDigest(stats).c_str());
  return result;
}

}  // namespace
}  // namespace bvf

int main() {
  using namespace bvf;
  const unsigned hw_threads = std::thread::hardware_concurrency();
  char marker_dir[] = "/tmp/bvf-bench-supervisor-XXXXXX";
  if (!mkdtemp(marker_dir)) {
    fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }

  PrintHeader("crash-isolated campaign supervisor: overhead and determinism");
  printf("campaign: %" PRIu64
         " iterations, all bugs, repeat=%d sanitized runs/case, "
         "jobs=%d, %d interleaved isolated rounds\n",
         kIterations, kTestRuns, kJobs, kRepeats);
  printf("host: %u hardware threads\n\n", hw_threads);

  // Per engine: the best run for the table, every run's digest and crash
  // accounting for the gates, and each round's ratio to its in-process run.
  RunResult best[3];
  bool digests_match = true;
  bool crash_rows_ok = true;
  std::vector<double> sup_ratios;
  std::vector<double> crash_ratios;
  std::string digest;
  for (int round = 0; round < kRepeats; ++round) {
    RunResult runs[3];
    for (int e = 0; e < 3; ++e) {
      const auto campaign = [e, round, &marker_dir] {
        return RunCampaign(static_cast<Engine>(e), round, marker_dir);
      };
      if (!RunForked(campaign, &runs[e])) {
        fprintf(stderr, "measurement child failed\n");
        return 1;
      }
      if (round == 0 || runs[e].seconds < best[e].seconds) {
        best[e] = runs[e];
      }
      if (digest.empty()) {
        digest = runs[e].digest;
      }
      digests_match &= digest == runs[e].digest;
    }
    crash_rows_ok &= runs[2].crashes == 1 && runs[2].restarts == 1;
    sup_ratios.push_back(runs[1].seconds / runs[0].seconds);
    crash_ratios.push_back(runs[2].seconds / runs[0].seconds);
  }
  const RunResult& inproc = best[0];
  const RunResult& sup = best[1];
  const RunResult& crash = best[2];

  printf("%-22s %9s %10s %10s %9s %9s\n", "engine", "seconds", "iters/s", "execs/s",
         "crashes", "restarts");
  PrintRule(74);
  const RunResult* rows[] = {&inproc, &sup, &crash};
  const char* labels[] = {"in-process", "supervised", "supervised+SIGKILL"};
  for (int i = 0; i < 3; ++i) {
    printf("%-22s %9.3f %10.0f %10.0f %9" PRIu64 " %9" PRIu64 "\n", labels[i],
           rows[i]->seconds, kIterations / rows[i]->seconds,
           rows[i]->exec_runs / rows[i]->seconds, rows[i]->crashes, rows[i]->restarts);
  }

  const double overhead = 100 * (Median(sup_ratios) - 1);
  const double crash_cost = 100 * (Median(crash_ratios) - 1);
  printf("\nsupervised + crash-recovery digests match in-process in every run: %s (%s)\n",
         digests_match ? "yes" : "NO", digest.c_str());
  printf("supervised vs in-process: %+.2f%%, median of %d interleaved rounds "
         "(acceptance bar < 10%%)\n",
         overhead, kRepeats);
  printf("supervised with one SIGKILL + retried epoch: %+.2f%% (informational)\n",
         crash_cost);
  if (!crash_rows_ok) {
    printf("UNEXPECTED: a crash run did not see exactly 1 crash / 1 restart\n");
  }

  FILE* json = fopen("bench_supervisor.json", "w");
  if (json) {
    fprintf(json,
            "{\n"
            "  \"iterations\": %" PRIu64 ",\n"
            "  \"repeats\": %d,\n"
            "  \"jobs\": %d,\n"
            "  \"test_runs_per_case\": %d,\n"
            "  \"hardware_threads\": %u,\n"
            "  \"inprocess_seconds\": %.4f,\n"
            "  \"inprocess_execs_per_sec\": %.1f,\n"
            "  \"supervised_seconds\": %.4f,\n"
            "  \"supervised_execs_per_sec\": %.1f,\n"
            "  \"supervised_overhead_pct\": %.2f,\n"
            "  \"overhead_method\": \"median of per-round ratios, fork-isolated interleaved runs\",\n"
            "  \"crash_recovery_seconds\": %.4f,\n"
            "  \"crash_recovery_overhead_pct\": %.2f,\n"
            "  \"crash_row_crashes\": %" PRIu64 ",\n"
            "  \"crash_row_restarts\": %" PRIu64 ",\n"
            "  \"digests_match\": %s,\n"
            "  \"stats_digest\": \"%s\"\n"
            "}\n",
            kIterations, kRepeats, kJobs, kTestRuns, hw_threads, inproc.seconds,
            inproc.exec_runs / inproc.seconds, sup.seconds,
            sup.exec_runs / sup.seconds, overhead, crash.seconds, crash_cost,
            crash.crashes, crash.restarts, digests_match ? "true" : "false",
            digest.c_str());
    fclose(json);
    printf("wrote bench_supervisor.json\n");
  }

  if (!digests_match) {
    return 1;
  }
  if (overhead >= 10) {
    return 1;
  }
  if (!crash_rows_ok) {
    return 1;
  }
  return 0;
}
