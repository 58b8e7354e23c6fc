// Experiment: §6.3 acceptance-rate analysis.
//
// Paper results:
//  * BVF reaches a 49% verifier-acceptance rate, more than twice Syzkaller's
//    23.5%; the dominant rejection errnos for Syzkaller are EACCES and EINVAL.
//  * Buzzer's two modes accept at ~1% (random bytes) and ~97% (ALU/JMP mode);
//    in the latter more than 88.4% of instructions are ALU and JMP.

#include <cerrno>
#include <cinttypes>

#include "bench/bench_util.h"

namespace bvf {
namespace {

constexpr uint64_t kIterations = 8000;

CampaignStats RunTool(const char* tool) {
  CampaignOptions options;
  options.version = bpf::KernelVersion::kBpfNext;
  options.bugs = bpf::BugConfig::None();
  options.iterations = kIterations;
  options.seed = 99;
  options.coverage_points = 0;
  std::unique_ptr<Generator> generator = MakeTool(tool, options.version);
  ParallelFuzzer fuzzer(*generator, options);
  return fuzzer.Run();
}

const char* ErrnoName(int err) {
  switch (err) {
    case EACCES:
      return "EACCES";
    case EINVAL:
      return "EINVAL";
    case E2BIG:
      return "E2BIG";
    case EBADF:
      return "EBADF";
    case ENOENT:
      return "ENOENT";
    default:
      return "other";
  }
}

}  // namespace
}  // namespace bvf

int main() {
  using namespace bvf;
  PrintHeader("§6.3: verifier acceptance rate and rejection breakdown (8000 programs/tool)");
  printf("%-14s %10s %14s %16s\n", "tool", "accepted", "acceptance", "ALU+JMP share");
  PrintRule(60);

  const char* tools[] = {"bvf", "syzkaller", "buzzer", "buzzer-random"};
  for (const char* tool : tools) {
    const CampaignStats stats = RunTool(tool);
    printf("%-14s %10" PRIu64 " %13.1f%% %15.1f%%\n", tool, stats.accepted,
           100 * stats.AcceptanceRate(), 100 * stats.AluJmpShare());
    printf("    rejections:");
    for (const auto& [err, count] : stats.reject_errno) {
      printf("  %s=%" PRIu64, ErrnoName(err), count);
    }
    printf("\n");
  }
  PrintRule(60);
  printf(
      "Paper: BVF 49%% vs Syzkaller 23.5%% (EACCES/EINVAL dominate Syzkaller's\n"
      "rejections); Buzzer 97%% in ALU/JMP mode (>88.4%% ALU+JMP instructions) and\n"
      "~1%% in random mode. BVF's programs are expressive *and* comparably accepted.\n");
  return 0;
}
