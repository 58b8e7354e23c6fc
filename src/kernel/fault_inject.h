// Kernel fault injection, modeled on Linux's CONFIG_FAULT_INJECTION family
// (failslab / fail_function): named fault points in the allocator, the map
// syscall paths, and the helper dispatcher fail on a configurable schedule so
// that campaigns exercise -ENOMEM / -EINVAL degradation paths. The schedule
// knobs mirror the debugfs attributes of the real facility (`probability`,
// `interval`, `space`, `times`).
//
// Every injected fault is appended to a log of (point, nth-call) records.
// A replay injector (`FaultInjector::Replay`) re-fires faults at exactly the
// logged call indices, which is what makes fault-dependent findings
// reproducible: the confirmation pass re-executes a case with the original
// fault schedule instead of a fresh random one.

#ifndef SRC_KERNEL_FAULT_INJECT_H_
#define SRC_KERNEL_FAULT_INJECT_H_

#include <array>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "src/kernel/rng.h"

namespace bpf {

// Named fault points. Each maps to one error-injectable kernel site class,
// like fail_function's per-function attributes.
enum class FaultPoint : int {
  kKmalloc = 0,   // KernelAllocator::Kmalloc / Kmemdup
  kKvmalloc,      // KernelAllocator::Kvmalloc / Kvmemdup
  kMapCreate,     // BPF_MAP_CREATE syscall path
  kMapUpdate,     // BPF_MAP_UPDATE_ELEM syscall path
  kHelperCall,    // failable helpers in the runtime dispatcher
  kCount,
};

inline constexpr int kNumFaultPoints = static_cast<int>(FaultPoint::kCount);

const char* FaultPointName(FaultPoint point);

// Per-campaign fault schedule (failslab-style attributes).
struct FaultConfig {
  double probability = 0.0;  // chance each eligible call fails, in [0, 1]
  uint64_t interval = 0;     // every Nth eligible call fails (0 = off)
  uint64_t space = 0;        // per point: this many initial calls never fail
  int64_t times = -1;        // total failures to inject (-1 = unlimited)

  // Per-point enable mask; all points armed by default.
  std::array<bool, kNumFaultPoints> enabled = {true, true, true, true, true};

  bool Active() const { return probability > 0.0 || interval > 0; }
};

// One injected fault: the point and which call to it (1-based) failed.
struct FaultRecord {
  FaultPoint point;
  uint64_t nth;
};

using FaultLog = std::vector<FaultRecord>;

// Decides, per call to a fault point, whether that call fails. Deterministic
// for a given (config, seed) pair; campaigns derive the seed from the campaign
// seed and the iteration number so schedules replay across process restarts.
class FaultInjector {
 public:
  FaultInjector(const FaultConfig& config, uint64_t seed)
      : config_(config), rng_(seed) {}

  // An injector that fails exactly the calls recorded in |log| and nothing
  // else (fault-schedule replay for finding confirmation).
  static FaultInjector Replay(const FaultLog& log);

  // Counts the call and returns true when it should fail. The decision is
  // logged so the schedule can be replayed later.
  bool ShouldFail(FaultPoint point);

  const FaultLog& log() const { return log_; }
  uint64_t calls(FaultPoint point) const { return calls_[static_cast<int>(point)]; }
  uint64_t failures(FaultPoint point) const { return failures_[static_cast<int>(point)]; }
  uint64_t total_failures() const;

 private:
  FaultConfig config_;
  Rng rng_;
  bool replay_ = false;
  std::array<uint64_t, kNumFaultPoints> calls_ = {};
  std::array<uint64_t, kNumFaultPoints> failures_ = {};
  std::array<std::unordered_set<uint64_t>, kNumFaultPoints> replay_nth_;
  FaultLog log_;
};

// Deterministic per-iteration seed derivation (splitmix64 over the campaign
// seed and iteration), so fault schedules survive checkpoint/resume without
// consuming the case-generation RNG.
inline uint64_t FaultSeed(uint64_t campaign_seed, uint64_t iteration) {
  uint64_t z = campaign_seed ^ (iteration * 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace bpf

#endif  // SRC_KERNEL_FAULT_INJECT_H_
