// Digest-keyed artifact cache with the §9 epoch-shard commit discipline.
//
// The decode cache (PR 4) and the JIT code cache share one concurrency and
// determinism model, so the machinery lives here once and each cache is an
// instantiation:
//
//  * the committed store is keyed by the 128-bit verdict digest (VerdictKey):
//    identical key => identical verifier output => identical rewritten
//    program => identical lowered artifact, so first-commit-wins is sound;
//  * between epoch barriers the committed store is read-only; workers buffer
//    inserts in per-shard pending lists tagged with their iteration number,
//    and the coordinator merges them in iteration order at the barrier
//    (CommitShards) while workers are parked — so the insert sequence, the
//    FIFO eviction sequence, and therefore every later epoch's hit/miss/evict
//    counters are job-count-invariant;
//  * shard lookups see only the committed store — never the shard's own
//    pending inserts — keeping the hit/miss sequence identical for every job
//    count;
//  * entries are std::shared_ptr, so FIFO eviction never invalidates an
//    artifact still referenced by a loaded program.

#ifndef SRC_RUNTIME_DIGEST_CACHE_H_
#define SRC_RUNTIME_DIGEST_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/runtime/verdict_cache.h"

namespace bpf {

template <typename V>
class DigestCacheShard;

// Shared committed store of lowered artifacts (decoded programs, JIT code
// blobs), keyed by the verdict digest. Capacity-bounded with FIFO eviction in
// commit order, which is itself deterministic.
template <typename V>
class DigestCache {
 public:
  static constexpr size_t kDefaultMaxEntries = 1 << 12;

  explicit DigestCache(size_t max_entries = kDefaultMaxEntries)
      : max_entries_(max_entries) {}

  std::shared_ptr<V> Lookup(const VerdictKey& key) const {
    const auto it = committed_.find(key);
    return it == committed_.end() ? nullptr : it->second;
  }

  // Merges every shard's pending inserts in iteration order (so both the
  // insert sequence and the eviction sequence are job-count-invariant), then
  // clears them. Each eviction is counted on the shard whose insert caused it.
  void CommitShards(const std::vector<DigestCacheShard<V>*>& shards) {
    using Pending = typename DigestCacheShard<V>::Pending;
    std::vector<std::pair<Pending*, DigestCacheShard<V>*>> merged;
    for (DigestCacheShard<V>* shard : shards) {
      for (Pending& pending : shard->pending_) {
        merged.emplace_back(&pending, shard);
      }
    }
    std::sort(merged.begin(), merged.end(), [](const auto& a, const auto& b) {
      return a.first->iteration < b.first->iteration;
    });
    for (auto& [pending, shard] : merged) {
      if (CommitOne(pending->key, std::move(pending->value))) {
        ++shard->evictions_;
      }
    }
    for (DigestCacheShard<V>* shard : shards) {
      shard->pending_.clear();
    }
  }

  size_t size() const { return committed_.size(); }
  uint64_t evictions() const { return evictions_; }

 private:
  // Returns whether making room evicted an older entry.
  bool CommitOne(const VerdictKey& key, std::shared_ptr<V> value) {
    if (committed_.find(key) != committed_.end()) {
      return false;  // first commit wins
    }
    bool evicted = false;
    if (committed_.size() >= max_entries_ && !fifo_.empty()) {
      committed_.erase(fifo_.front());
      fifo_.pop_front();
      ++evictions_;
      evicted = true;
    }
    committed_.emplace(key, std::move(value));
    fifo_.push_back(key);
    return evicted;
  }

  size_t max_entries_;
  uint64_t evictions_ = 0;
  std::unordered_map<VerdictKey, std::shared_ptr<V>, VerdictKeyHash> committed_;
  std::deque<VerdictKey> fifo_;  // committed keys in commit order
};

// Per-worker handle; see the file comment for the commit discipline.
template <typename V>
class DigestCacheShard {
 public:
  explicit DigestCacheShard(DigestCache<V>& owner) : owner_(owner) {}

  void set_iteration(uint64_t iteration) { iteration_ = iteration; }

  std::shared_ptr<V> Lookup(const VerdictKey& key) {
    std::shared_ptr<V> cached = owner_.Lookup(key);
    if (cached != nullptr) {
      ++hits_;
    } else {
      ++misses_;
    }
    return cached;
  }

  void Insert(const VerdictKey& key, std::shared_ptr<V> value) {
    pending_.emplace_back(iteration_, key, std::move(value));
  }

  // Counter drain (the engines fold these into CampaignStats per epoch).
  uint64_t TakeHits() { return std::exchange(hits_, 0); }
  uint64_t TakeMisses() { return std::exchange(misses_, 0); }
  uint64_t TakeEvictions() { return std::exchange(evictions_, 0); }

 private:
  friend class DigestCache<V>;

  struct Pending {
    uint64_t iteration;
    VerdictKey key;
    std::shared_ptr<V> value;
    Pending(uint64_t i, const VerdictKey& k, std::shared_ptr<V>&& v)
        : iteration(i), key(k), value(std::move(v)) {}
  };

  DigestCache<V>& owner_;
  uint64_t iteration_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  std::vector<Pending> pending_;
};

}  // namespace bpf

#endif  // SRC_RUNTIME_DIGEST_CACHE_H_
