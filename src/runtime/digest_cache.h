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
//  * a shard in immediate mode (a supervised worker process's private cache)
//    commits on the spot: hits stay digest-invisible, but its hit/miss
//    counters depend on how iterations were sharded;
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
  // clears them.
  void CommitShards(const std::vector<DigestCacheShard<V>*>& shards) {
    std::vector<typename DigestCacheShard<V>::Pending*> merged;
    for (DigestCacheShard<V>* shard : shards) {
      for (auto& pending : shard->pending_) {
        merged.push_back(&pending);
      }
    }
    std::sort(merged.begin(), merged.end(),
              [](const typename DigestCacheShard<V>::Pending* a,
                 const typename DigestCacheShard<V>::Pending* b) {
                return a->iteration < b->iteration;
              });
    for (typename DigestCacheShard<V>::Pending* pending : merged) {
      CommitOne(pending->key, std::move(pending->value));
    }
    for (DigestCacheShard<V>* shard : shards) {
      shard->pending_.clear();
    }
  }

  size_t size() const { return committed_.size(); }
  uint64_t evictions() const { return evictions_; }

 private:
  friend class DigestCacheShard<V>;

  void CommitOne(const VerdictKey& key, std::shared_ptr<V> value) {
    if (committed_.find(key) != committed_.end()) {
      return;  // first commit wins
    }
    if (committed_.size() >= max_entries_ && !fifo_.empty()) {
      committed_.erase(fifo_.front());
      fifo_.pop_front();
      ++evictions_;
    }
    committed_.emplace(key, std::move(value));
    fifo_.push_back(key);
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
  DigestCacheShard(DigestCache<V>& owner, bool immediate)
      : owner_(owner), immediate_(immediate) {}

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
    if (immediate_) {
      owner_.CommitOne(key, std::move(value));
    } else {
      pending_.emplace_back(iteration_, key, std::move(value));
    }
  }

  // Counter drain (the engines fold these into CampaignStats per epoch).
  uint64_t TakeHits() { return std::exchange(hits_, 0); }
  uint64_t TakeMisses() { return std::exchange(misses_, 0); }

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
  bool immediate_;
  uint64_t iteration_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  std::vector<Pending> pending_;
};

}  // namespace bpf

#endif  // SRC_RUNTIME_DIGEST_CACHE_H_
