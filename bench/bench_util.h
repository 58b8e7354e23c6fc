// Shared helpers for the experiment harnesses: campaign construction and
// fixed-width table printing.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/core/baselines.h"
#include "src/core/parallel.h"
#include "src/core/structured_gen.h"

namespace bvf {

inline std::unique_ptr<Generator> MakeTool(const std::string& tool,
                                           bpf::KernelVersion version) {
  if (tool == "bvf") {
    return std::make_unique<StructuredGenerator>(version);
  }
  if (tool == "syzkaller") {
    return std::make_unique<SyzkallerGenerator>(version);
  }
  if (tool == "buzzer") {
    return std::make_unique<BuzzerGenerator>(version);
  }
  if (tool == "buzzer-random") {
    return std::make_unique<BuzzerGenerator>(version, BuzzerGenerator::Mode::kRandomBytes);
  }
  return nullptr;
}

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) {
    putchar('-');
  }
  putchar('\n');
}

inline void PrintHeader(const char* title) {
  putchar('\n');
  PrintRule();
  printf("%s\n", title);
  PrintRule();
}

}  // namespace bvf

#endif  // BENCH_BENCH_UTIL_H_
