// Keeps the benchmark's files inside the checkout.
//
// The crash-isolated supervisor captures each worker's stderr in a
// mkstemp("/tmp/bvf-worker-stderr-XXXXXX") file (src/core/supervisor), and
// the benchmark must read and write only inside its checkout. This
// definition, linked into the benchmark program ahead of libc's, moves any
// "/tmp/..." template to ".bench_out/tmp-XXXXXX" in the caller's buffer (the
// caller later unlinks the path it reads back from that buffer). Relative to
// the working directory, which run.py sets to the checkout root.

#include <cstdlib>
#include <cstring>

extern "C" int mkstemp(char* tmpl) {
  static constexpr char kTmp[] = "/tmp/";
  static constexpr char kMoved[] = ".bench_out/tmp-XXXXXX";
  if (std::strncmp(tmpl, kTmp, sizeof(kTmp) - 1) == 0 &&
      std::strlen(tmpl) >= sizeof(kMoved) - 1) {
    std::memcpy(tmpl, kMoved, sizeof(kMoved));
  }
  return mkostemp(tmpl, 0);
}
