// campaignbench: end-to-end and per-layer benchmark of BVF fuzzing campaigns.
//
//   campaignbench --workload hunt|exec|assure --seed N --seconds S --trace 0|1
//                 --root CHECKOUT --out DIR [--cases N]
//
// --trace 0 runs a stream of the workload's campaigns for S seconds and prints
// the end-to-end metrics. --trace 1 runs the traced pass (replay.h) and prints
// the per-layer metrics. Both modes run the output checks; the last stdout
// line is the JSON result object. campaignbench/GLOSSARY.md defines every
// metric and check.

#include <sys/stat.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign.h"
#include "replay.h"
#include "stats_util.h"

namespace campaignbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string root = ".";
  std::string out = ".bench_out";
  uint64_t cases = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = atoi(value);
    } else if (key == "--root") {
      args->root = value;
    } else if (key == "--out") {
      args->out = value;
    } else if (key == "--cases") {
      args->cases = strtoull(value, nullptr, 10);
    } else {
      fprintf(stderr, "campaignbench: unknown argument %s\n", key.c_str());
      return false;
    }
  }
  if ((argc - 1) % 2 != 0 || args->workload.empty() || args->seconds <= 0 ||
      (args->trace != 0 && args->trace != 1)) {
    fprintf(stderr,
            "usage: campaignbench --workload NAME --seed N --seconds S --trace 0|1 "
            "--root DIR --out DIR [--cases N]\n");
    return false;
  }
  return true;
}

// Every kRefEvery-th campaign of a run also runs at the reference topology.
constexpr int kRefEvery = 8;

// One pass over a stream of distinct campaigns (seeds SubSeed(seed, k),
// k = 0, 1, ...) until --seconds is spent, each in a process of its own
// (RunCampaignIsolated). A case's cost is heavy-tailed (a few percent of the
// programs take most of the verifier's time), so rates are pooled over every
// campaign of the run: total cases over total time.
//
// The wall-clock rate leaves out the time the hypervisor took from the
// campaign. Steal is reported per machine, not per thread, so it is charged
// to the campaign's busy time in proportion: of cpu + steal busy-or-stolen
// CPU time, cpu ran, so the campaign's wall time on an unshared host is
// wall * cpu / (cpu + steal). That assumes steal falls evenly over the
// campaign's busy time; it is exact when one thread runs at a time.
int RunEndToEnd(const Args& args, const std::string& tmp_dir) {
  CheckList checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall = 0, cpu = 0, steal = 0, done = 0, execs = 0;
  double accepted = 0, loaded = 0, conf_passed = 0, conf_cases = 0;
  std::vector<double> setup_s, rss_mb, bugs;
  // One row per measured campaign, written to <out>/campaigns-<workload>-<seed>.tsv.
  std::string rows =
      "campaign\tseed\tcases\tcpu_s\twall_s\tsteal_s\tsetup_s\tpeak_rss_mb\taccepted\texec_runs\n";
  Workload first;
  CampaignRun first_run, first_ref;
  const int64_t begin = NowNs();
  int k = 0;
  for (; k < 2 || 1e-9 * static_cast<double>(NowNs() - begin) < args.seconds; ++k) {
    Workload w;
    MakeWorkload(args.workload, SubSeed(args.seed, k), args.cases, args.root, tmp_dir, &w);
    const uint64_t cases = w.options.iterations;
    if (k == 0) {
      printf("workload %s seed=%" PRIu64 " cases/campaign=%" PRIu64 " jobs=%d topology=%s\n",
             w.name.c_str(), args.seed, cases, w.options.jobs,
             w.topology == Topology::kSupervised ? "supervised" : "in-process");
    }
    // The reference run goes first, so campaign 0's doubles as the warm-up.
    CampaignRun ref;
    const bool has_ref = k % kRefEvery == 0;
    if (has_ref) {
      ref = RunCampaignIsolated(w, w.ref_topology, w.ref_jobs);
    }
    const CampaignRun run = RunCampaignIsolated(w, w.topology, w.options.jobs);
    const bool ok = CheckRun("campaign" + std::to_string(k), run, has_ref ? &ref : nullptr,
                             "", cases, checks);
    attempted += cases;
    failed += ok ? run.unclassified + run.quarantined : cases;
    wall += run.wall_s;
    cpu += run.cpu_s;
    steal += run.steal_s;
    done += static_cast<double>(run.iterations);
    execs += static_cast<double>(run.exec_runs);
    setup_s.push_back(run.setup_s);
    rss_mb.push_back(run.peak_rss_mb);
    accepted += static_cast<double>(run.accepted);
    loaded += static_cast<double>(run.accepted + run.rejected);
    conf_passed += static_cast<double>(run.conf_passed);
    conf_cases += static_cast<double>(run.conf_cases);
    bugs.push_back(run.bugs_found);
    char row[224];
    snprintf(row, sizeof(row),
             "%d\t%" PRIu64 "\t%" PRIu64 "\t%.6f\t%.6f\t%.2f\t%.6f\t%.3f\t%" PRIu64 "\t%" PRIu64
             "\n",
             k, w.options.seed, run.iterations, run.cpu_s, run.wall_s, run.steal_s, run.setup_s,
             run.peak_rss_mb, run.accepted, run.exec_runs);
    rows += row;
    if (k == 0) {
      first = w;
      first_run = run;
      first_ref = ref;
    }
  }
  // Campaign 0 once more: the digest must not depend on the run.
  const CampaignRun again = RunCampaignIsolated(first, first.topology, first.options.jobs);
  const bool again_ok = CheckRun("campaign0.again", again, nullptr, first_run.digest,
                                 first.options.iterations, checks);
  attempted += first.options.iterations;
  failed += again_ok ? 0 : first.options.iterations;

  const std::string rows_path =
      args.out + "/campaigns-" + args.workload + "-" + std::to_string(args.seed) + ".tsv";
  if (FILE* file = fopen(rows_path.c_str(), "w")) {
    fputs(rows.c_str(), file);
    fclose(file);
  }

  const double unstolen_wall = cpu + steal > 0 ? wall * cpu / (cpu + steal) : wall;
  MetricList metrics;
  metrics.Add("cases_per_s", done / unstolen_wall, "1/s");
  metrics.Add("cases_per_cpu_s", done / cpu, "1/s");
  metrics.Add("execs_per_cpu_s", execs / cpu, "1/s");
  metrics.Add("setup_s", Median(setup_s), "s");
  metrics.Add("peak_rss_mb", Median(rss_mb), "MiB");
  metrics.Add("accept_rate", Ratio(accepted, loaded), "ratio");

  printf("campaigns %d (%d with a reference run), cases %.0f, cpu %.3f s, wall %.3f s, "
         "host steal %.2f s\n",
         k, (k + kRefEvery - 1) / kRefEvery, done, cpu, wall, steal);
  printf("metric %-16s %.6g 1/s  (pooled, wall clock less host steal; %.6g with it)\n",
         "cases_per_s", done / unstolen_wall, done / wall);
  printf("metric %-16s %.6g 1/s  (pooled, wall clock less host steal; %.6g with it)\n",
         "execs_per_s", execs / unstolen_wall, execs / wall);
  printf("metric %-16s %.6g 1/s  (pooled)\n", "cases_per_cpu_s", done / cpu);
  printf("metric %-16s %.6g 1/s  (pooled)\n", "execs_per_cpu_s", execs / cpu);
  printf("metric %-16s %.6g s  (median of %zu; q1 %.6g, q3 %.6g)\n", "setup_s",
         Median(setup_s), setup_s.size(), Quantile(setup_s, 0.25), Quantile(setup_s, 0.75));
  printf("metric %-16s %.6g MiB  (median of %zu; max %.6g)\n", "peak_rss_mb", Median(rss_mb),
         rss_mb.size(), Quantile(rss_mb, 1));
  printf("metric %-16s %.6g ratio  (pooled; deterministic per campaign)\n", "accept_rate",
         Ratio(accepted, loaded));
  if (first.options.bugs.Count() > 0) {
    printf("metric %-16s %.6g count  (median per campaign, min %.0f, max %.0f; deterministic)\n",
           "bugs_found", Median(bugs), Quantile(bugs, 0), Quantile(bugs, 1));
  }
  if (conf_cases > 0) {
    printf("metric %-16s %.6g ratio  (%.0f/%.0f; deterministic)\n", "conf_pass_share",
           Ratio(conf_passed, conf_cases), conf_passed, conf_cases);
  }
  if (first.topology == Topology::kSupervised) {
    ReportCounterAgreement(first_ref, first_run);
  }
  checks.Summary();
  printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
         ", \"metrics\": %s}\n",
         checks.all_pass() ? "true" : "false", attempted, failed, metrics.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace campaignbench

int main(int argc, char** argv) {
  using namespace campaignbench;
  setvbuf(stdout, nullptr, _IOLBF, 0);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return 2;
  }
  // Journal and checkpoint files live in a private directory under --out.
  const std::string tmp_dir =
      args.out + "/tmp-" + args.workload + "-" + std::to_string(getpid());
  Workload workload;
  if (!MakeWorkload(args.workload, SubSeed(args.seed, 0), args.cases, args.root, tmp_dir,
                    &workload)) {
    fprintf(stderr, "campaignbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  mkdir(args.out.c_str(), 0755);
  if (mkdir(tmp_dir.c_str(), 0755) != 0) {
    perror("mkdir");
    return 2;
  }
  const int rc = args.trace == 0 ? RunEndToEnd(args, tmp_dir)
                                 : RunTraced(workload, args.seconds, args.out);
  std::error_code ignored;
  std::filesystem::remove_all(tmp_dir, ignored);
  return rc;
}
