// Ablation: which parts of BVF's program structure (paper §4.1, Fig. 4) are
// responsible for the acceptance-rate and coverage gains of §6.3.
//
// Variants disable one structural component at a time: the init header
// (register initialization from the object pool), the call frames (helper /
// kfunc interaction), the jump frames (control-flow nesting and bounded
// loops), and the risky choices. The full configuration should dominate —
// this is the design-choice evidence behind the paper's RQ2 claim.

#include <cinttypes>

#include "bench/bench_util.h"

namespace bvf {
namespace {

constexpr uint64_t kIterations = 6000;

struct Variant {
  const char* name;
  StructuredGenOptions options;
};

CampaignStats RunVariant(const Variant& variant, uint64_t seed) {
  CampaignOptions options;
  options.version = bpf::KernelVersion::kBpfNext;
  options.bugs = bpf::BugConfig::All();
  options.iterations = kIterations;
  options.seed = seed;
  options.coverage_points = 0;
  StructuredGenerator generator(options.version, variant.options);
  ParallelFuzzer fuzzer(generator, options);
  return fuzzer.Run();
}

}  // namespace
}  // namespace bvf

int main() {
  using namespace bvf;

  StructuredGenOptions full;
  StructuredGenOptions no_init = full;
  no_init.init_header = false;
  StructuredGenOptions no_calls = full;
  no_calls.call_frames = false;
  StructuredGenOptions no_jumps = full;
  no_jumps.jump_frames = false;
  StructuredGenOptions no_risky = full;
  no_risky.risky = false;

  const Variant variants[] = {
      {"full structure", full},   {"no init header", no_init}, {"no call frames", no_calls},
      {"no jump frames", no_jumps}, {"no risky choices", no_risky},
  };

  PrintHeader("Ablation: structural components of the generator (all bugs live, 6000 progs)");
  // "Table 2" counts the paper's 12 root causes (bugs #1-#11 and
  // CVE-2022-23222) and splits them by indicator. BugConfig::All() also arms
  // the two synthetic bugs only indicators #3/#4 see (bug12, bug13); those
  // findings get their own column instead of inflating the Table-2 count.
  printf("%-18s %11s %9s %9s %14s %9s\n", "variant", "acceptance", "coverage", "Table 2",
         "ind#1 / ind#2", "ind#3/#4");
  PrintRule(80);
  for (const Variant& variant : variants) {
    const CampaignStats stats = RunVariant(variant, 7);
    int found = 0;
    int ind1 = 0;
    int ind2 = 0;
    int synthetic = 0;
    bool bug_seen[16] = {};
    for (const Finding& finding : stats.findings) {
      const int bug = static_cast<int>(finding.triaged);
      if (finding.triaged == KnownBug::kUnknown || bug_seen[bug]) {
        continue;
      }
      bug_seen[bug] = true;
      if (bug > static_cast<int>(KnownBug::kCve2022_23222)) {
        ++synthetic;
      } else {
        ++found;
        ++(finding.indicator == 1 ? ind1 : ind2);
      }
    }
    printf("%-18s %10.1f%% %9zu %6d/12 %9d / %d %7d/2\n", variant.name,
           100 * stats.AcceptanceRate(), stats.final_coverage, found, ind1, ind2, synthetic);
  }
  PrintRule(80);
  printf("Reading: call frames carry the kernel-interaction (indicator #2) bugs and most\n"
         "of the coverage; the risky choices carry the indicator #1 (memory) bugs; the\n"
         "init header and jump frames add breadth. The full structure dominates.\n");
  return 0;
}
