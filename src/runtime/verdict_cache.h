// Digest-keyed verifier-verdict cache (DESIGN.md §9).
//
// Generated programs repeat — corpus mutation reverts, baseline generators
// draw from small spaces, and long campaigns re-derive the same bytecode —
// and verification (path-sensitive abstract interpretation) dominates the
// cost of a rejected case. The cache maps a digest of everything the
// verifier's answer depends on — instruction bytes, program type/offload,
// kernel version, injected-bug configuration, instrumentation & claim
// collection flags, and the map definitions the program can reference — to
// the full VerifierResult, so a duplicate program skips re-verification.
//
// Verification is effect-free on the simulated kernel (VerifierEnv carries no
// allocator or report-sink access), with two bookkept exceptions the cache
// replays: the sanitizer's instrumentation-stat delta (recorded at miss time,
// credited on hit) and verifier branch coverage. Coverage needs no replay:
// a hit requires the same program to have been verified in a *previous*
// sync epoch, so its verifier sites are already in the committed global set
// and contribute nothing to per-case novelty either way. Cache on/off is
// therefore invisible in a campaign's StatsDigest.
//
// Concurrency model matches the parallel engine's epoch discipline: the
// committed maps are read-only between barriers; each worker's shard buffers
// its inserts and the coordinator merges them (in iteration order, so the
// entry-cap cutoff is job-count-invariant) while workers are parked.

#ifndef SRC_RUNTIME_VERDICT_CACHE_H_
#define SRC_RUNTIME_VERDICT_CACHE_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sanitizer/instrument.h"
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

struct CachedVerdict {
  VerifierResult result;
  // Instrumentation-stat delta the original verification produced; credited
  // to the loading substrate's sanitizer on every hit.
  bvf::SanitizerStats san_delta;
};

class VerdictCacheShard;

// The shared committed store. Not internally synchronized: between barriers
// it is read-only (worker lookups); CommitShards mutates it from a single
// coordinator thread while workers are parked, the barrier providing the
// happens-before edges.
class VerdictCache {
 public:
  explicit VerdictCache(size_t max_entries = kDefaultMaxEntries) : max_entries_(max_entries) {}

  static constexpr size_t kDefaultMaxEntries = 1 << 15;

  const CachedVerdict* Lookup(const VerdictKey& key) const {
    const auto it = committed_.find(key);
    return it == committed_.end() ? nullptr : &it->second;
  }

  // Merges every shard's pending inserts, ordered by
  // originating iteration so the max_entries cutoff does not depend on the
  // worker sharding, then clears them.
  void CommitShards(const std::vector<VerdictCacheShard*>& shards);

  size_t size() const { return committed_.size(); }
  uint64_t dropped() const { return dropped_; }

 private:
  void CommitOne(const VerdictKey& key, CachedVerdict&& verdict) {
    if (committed_.size() >= max_entries_) {
      ++dropped_;
      return;
    }
    committed_.emplace(key, std::move(verdict));
  }

  size_t max_entries_;
  uint64_t dropped_ = 0;
  std::unordered_map<VerdictKey, CachedVerdict, VerdictKeyHash> committed_;
};

// Per-worker cache handle. Lookups see only the committed (epoch-frozen)
// store — never this shard's own pending inserts — which is what makes the
// hit/miss sequence identical for every job count.
class VerdictCacheShard {
 public:
  explicit VerdictCacheShard(VerdictCache& owner) : owner_(owner) {}

  // The campaign iteration whose load is about to consult the cache; used to
  // order pending inserts deterministically at merge time.
  void set_iteration(uint64_t iteration) { iteration_ = iteration; }

  const CachedVerdict* Lookup(const VerdictKey& key) {
    const CachedVerdict* cached = owner_.Lookup(key);
    if (cached != nullptr) {
      ++hits_;
    } else {
      ++misses_;
    }
    return cached;
  }

  void Insert(const VerdictKey& key, CachedVerdict verdict) {
    pending_.emplace_back(iteration_, key, std::move(verdict));
  }

  // Counter drain (the engines fold these into CampaignStats per epoch).
  uint64_t TakeHits() { return std::exchange(hits_, 0); }
  uint64_t TakeMisses() { return std::exchange(misses_, 0); }

 private:
  friend class VerdictCache;

  struct Pending {
    uint64_t iteration;
    VerdictKey key;
    CachedVerdict verdict;
    Pending(uint64_t i, const VerdictKey& k, CachedVerdict&& v)
        : iteration(i), key(k), verdict(std::move(v)) {}
  };

  VerdictCache& owner_;
  uint64_t iteration_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  std::vector<Pending> pending_;
};

}  // namespace bpf

#endif  // SRC_RUNTIME_VERDICT_CACHE_H_
