// Shared helpers for the experiment harnesses: campaign construction,
// fork-isolated measurement, and fixed-width table printing.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <type_traits>
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

// Runs |fn| in a forked child and copies its result back over a pipe, so a
// measurement inherits no heap or page-cache state from an earlier one in the
// same process (a full-rewind campaign leaves hundreds of MB of allocator
// churn that slows a following in-process run by ~30%). The result must be
// trivially copyable: it travels as one write. False if the child failed.
template <typename Result, typename Fn>
bool RunForked(Fn fn, Result* out) {
  static_assert(std::is_trivially_copyable_v<Result>);
  int fds[2];
  if (pipe(fds) != 0) {
    return false;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    const Result result = fn();
    const ssize_t written = write(fds[1], &result, sizeof(result));
    _exit(written == sizeof(result) ? 0 : 1);
  }
  close(fds[1]);
  const ssize_t got = read(fds[0], out, sizeof(*out));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  return got == static_cast<ssize_t>(sizeof(*out)) && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0;
}

// Middle value. The host's effective speed drifts on a timescale of minutes,
// so a single slow phase can poison a mean but not a median; a ratio taken
// within one round of back-to-back runs cancels the drift between rounds.
inline double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
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
