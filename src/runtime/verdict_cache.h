// Program digest (DESIGN.md §9).
//
// MakeVerdictKey hashes everything VerifyProgram's answer depends on —
// instruction bytes, program type/offload, kernel version, injected-bug
// configuration, instrumentation & claim collection flags, and the map
// definitions the program can reference — so two loads with equal keys get
// the same verdict. The campaign does not consult it; campaignbench's traced
// replay uses it to audit how often a campaign loads a program it has
// already verified (its vcache/jcache repeat rates).

#ifndef SRC_RUNTIME_VERDICT_CACHE_H_
#define SRC_RUNTIME_VERDICT_CACHE_H_

#include <cstddef>
#include <cstdint>

#include "src/verifier/verifier.h"

namespace bpf {

class Kernel;

// 128-bit program digest (two independent FNV-1a streams over the canonical
// key material). 64 bits would already make collisions implausible at
// campaign scale; 128 makes them ignorable.
struct VerdictKey {
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool operator==(const VerdictKey& other) const {
    return lo == other.lo && hi == other.hi;
  }
};

struct VerdictKeyHash {
  size_t operator()(const VerdictKey& key) const {
    return static_cast<size_t>(key.lo ^ (key.hi * 0x9e3779b97f4a7c15ull));
  }
};

// Digest of everything VerifyProgram's answer depends on for |prog| loaded
// into |kernel| under the given instrumentation flags.
VerdictKey MakeVerdictKey(const Program& prog, Kernel& kernel, bool instrumented,
                          bool collect_claims);

}  // namespace bpf

#endif  // SRC_RUNTIME_VERDICT_CACHE_H_
