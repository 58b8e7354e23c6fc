// Experiment: Table 2 (RQ1) — previously unknown vulnerabilities found.
//
// Paper result: over two weeks on upstream/bpf-next, BVF found 11 bugs (six
// verifier correctness bugs); Syzkaller and Buzzer found no correctness bugs.
//
// Reproduction: each of the 11 Table 2 root causes (plus CVE-2022-23222) is
// re-injected one at a time into the simulated kernel; every tool runs a
// fixed-budget campaign against it. A bug counts as found when the oracle
// (indicator #1 sanitation or indicator #2 kernel self-checks) fires and the
// triage attributes it to the injected root cause. A second run with every
// bug enabled reports the combined-campaign view.

#include <cinttypes>

#include "bench/bench_util.h"

namespace bvf {
namespace {

struct BugSpec {
  KnownBug bug;
  const char* component;
  int indicator;
  void (*enable)(bpf::BugConfig&);
  bpf::KernelVersion version;
};

const BugSpec kBugs[] = {
    {KnownBug::kBug1NullnessPropagation, "Verifier", 1,
     [](bpf::BugConfig& b) { b.bug1_nullness_propagation = true; },
     bpf::KernelVersion::kBpfNext},
    {KnownBug::kBug2TaskStructBounds, "Verifier", 1,
     [](bpf::BugConfig& b) { b.bug2_task_struct_bounds = true; },
     bpf::KernelVersion::kBpfNext},
    {KnownBug::kBug3KfuncBacktrack, "Verifier", 1,
     [](bpf::BugConfig& b) { b.bug3_kfunc_backtrack = true; }, bpf::KernelVersion::kBpfNext},
    {KnownBug::kBug4TracePrintkRecursion, "Verifier", 2,
     [](bpf::BugConfig& b) { b.bug4_trace_printk_recursion = true; },
     bpf::KernelVersion::kBpfNext},
    {KnownBug::kBug5ContentionBegin, "Verifier", 2,
     [](bpf::BugConfig& b) { b.bug5_contention_begin = true; }, bpf::KernelVersion::kBpfNext},
    {KnownBug::kBug6SendSignal, "Verifier", 2,
     [](bpf::BugConfig& b) { b.bug6_send_signal = true; }, bpf::KernelVersion::kBpfNext},
    {KnownBug::kBug7DispatcherSync, "Dispatcher", 2,
     [](bpf::BugConfig& b) { b.bug7_dispatcher_sync = true; }, bpf::KernelVersion::kBpfNext},
    {KnownBug::kBug8Kmemdup, "Syscall", 2,
     [](bpf::BugConfig& b) { b.bug8_kmemdup = true; }, bpf::KernelVersion::kBpfNext},
    {KnownBug::kBug9BucketIteration, "Map", 2,
     [](bpf::BugConfig& b) { b.bug9_bucket_iteration = true; }, bpf::KernelVersion::kBpfNext},
    {KnownBug::kBug10IrqWork, "Helper", 2,
     [](bpf::BugConfig& b) { b.bug10_irq_work = true; }, bpf::KernelVersion::kBpfNext},
    {KnownBug::kBug11XdpOffload, "XDP", 2,
     [](bpf::BugConfig& b) { b.bug11_xdp_offload = true; }, bpf::KernelVersion::kBpfNext},
    {KnownBug::kCve2022_23222, "Verifier", 1,
     [](bpf::BugConfig& b) { b.cve_2022_23222 = true; }, bpf::KernelVersion::kV5_15},
};

constexpr uint64_t kIterations = 6000;
constexpr uint64_t kSeed = 2024;

uint64_t RunTool(const char* tool, const BugSpec& spec) {
  CampaignOptions options;
  options.version = spec.version;
  options.bugs = bpf::BugConfig::None();
  spec.enable(options.bugs);
  options.iterations = kIterations;
  options.seed = kSeed;
  options.coverage_points = 0;

  std::unique_ptr<Generator> generator = MakeTool(tool, spec.version);
  ParallelFuzzer fuzzer(*generator, options);
  const CampaignStats stats = fuzzer.Run();
  return stats.FoundAtIteration(spec.bug);
}

}  // namespace
}  // namespace bvf

int main() {
  using namespace bvf;

  PrintHeader(
      "Table 2 (RQ1): vulnerability detection, one injected root cause per campaign\n"
      "(budget: 6000 programs/tool/bug; 'found @N' = first triggering iteration)");
  printf("%-4s %-11s %-58s %-4s %12s %12s %12s\n", "#", "Component", "Description", "Ind",
         "BVF", "Syzkaller", "Buzzer");
  PrintRule(120);

  int bvf_found = 0;
  int bvf_correctness = 0;
  int syz_found = 0;
  int buzzer_found = 0;
  int row = 0;
  for (const BugSpec& spec : kBugs) {
    ++row;
    const uint64_t at_bvf = RunTool("bvf", spec);
    const uint64_t at_syz = RunTool("syzkaller", spec);
    const uint64_t at_buzzer = RunTool("buzzer", spec);
    char bvf_cell[32];
    char syz_cell[32];
    char buzzer_cell[32];
    snprintf(bvf_cell, sizeof(bvf_cell),
             at_bvf != 0 ? "found @%" PRIu64 : "not found", at_bvf);
    snprintf(syz_cell, sizeof(syz_cell),
             at_syz != 0 ? "found @%" PRIu64 : "not found", at_syz);
    snprintf(buzzer_cell, sizeof(buzzer_cell),
             at_buzzer != 0 ? "found @%" PRIu64 : "not found", at_buzzer);
    printf("%-4d %-11s %-58s %-4d %12s %12s %12s\n", row, spec.component,
           KnownBugName(spec.bug), spec.indicator, bvf_cell, syz_cell, buzzer_cell);
    if (at_bvf != 0) {
      ++bvf_found;
      if (spec.indicator == 1 || spec.component == std::string("Verifier")) {
        ++bvf_correctness;
      }
    }
    syz_found += at_syz != 0;
    buzzer_found += at_buzzer != 0;
  }
  PrintRule(120);
  printf("BVF: %d/12 found (%d verifier correctness bugs). Syzkaller: %d/12. Buzzer: %d/12.\n",
         bvf_found, bvf_correctness, syz_found, buzzer_found);
  printf("Paper: BVF 11 bugs (6 verifier correctness); Syzkaller and Buzzer found no\n"
         "correctness bugs in the two-week campaign.\n");

  // Combined campaign: all bugs live simultaneously (the realistic target).
  PrintHeader("Combined campaign on bpf-next with every bug live (BVF, 8000 programs)");
  CampaignOptions options;
  options.version = bpf::KernelVersion::kBpfNext;
  options.bugs = bpf::BugConfig::All();
  options.iterations = 8000;
  options.seed = kSeed + 1;
  options.coverage_points = 0;
  StructuredGenerator generator(options.version);
  ParallelFuzzer fuzzer(generator, options);
  const CampaignStats stats = fuzzer.Run();
  printf("acceptance=%.1f%%  unique findings=%zu\n", 100 * stats.AcceptanceRate(),
         stats.findings.size());
  for (const Finding& finding : stats.findings) {
    printf("  [indicator#%d @%-5" PRIu64 "] %-55s -> %s\n", finding.indicator,
           finding.iteration, finding.signature.c_str(), KnownBugName(finding.triaged));
  }
  return 0;
}
