// kcov-style branch coverage for the simulated verifier.
//
// Every decision point in instrumented code drops a BVF_COV() marker; the
// first execution registers a site, subsequent executions mark it hit. The
// fuzzer uses the global hit set as feedback (new-coverage detection), and the
// benchmarks report the number of distinct covered sites, matching the
// covered-branch metric of the paper's Figure 6 / Table 3.
//
// The registry is process-global, mirroring kcov: coverage belongs to the
// "machine", not to a kernel object. Reset() clears hit state between
// campaigns; registered sites persist (they are code locations).
//
// Threading model (DESIGN.md §9). Registration is mutex-guarded and hit
// storage is a fixed-capacity array of atomics, so instrumented code may run
// on any number of threads. Two hit-recording modes exist:
//
//  * Global mode (default, no sink installed on the thread): Hit() commits
//    straight into the process-global hit set. This is the test and tooling
//    path (and the supervisor coordinator's committed set).
//  * Buffered mode: a worker thread installs a CoverageSink; its hits are
//    recorded privately (per-case marks + an epoch delta) and only merged
//    into the global committed set at a synchronization barrier via
//    Commit(). Between barriers the committed set is frozen, which is what
//    makes per-case novelty (NewSinceCase) independent of how iterations are
//    sharded across workers.

#ifndef SRC_KERNEL_COVERAGE_H_
#define SRC_KERNEL_COVERAGE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace bpf {

class Coverage;

// Per-worker hit buffer for the parallel campaign engine. Owned by exactly
// one thread; installed with Coverage::InstallThreadSink(). All methods are
// called by the owning thread only, except epoch_sites()/ClearEpoch() which
// the merge coordinator calls while the owner is parked at a barrier.
class CoverageSink {
 public:
  CoverageSink();

  // Per-case feedback: forget case-local marks; NewSinceCase() then counts
  // distinct sites this case hits that are absent from the global committed
  // set (frozen between barriers).
  void BeginCase();
  size_t NewSinceCase() const { return new_since_case_; }

  // Suppress recording entirely (finding-confirmation re-executions must not
  // feed campaign feedback), mirroring Coverage::set_enabled for threads
  // without a sink.
  void set_muted(bool muted) { muted_ = muted; }
  bool muted() const { return muted_; }

  // Distinct sites hit since the last ClearEpoch(), in first-hit order.
  const std::vector<int>& epoch_sites() const { return epoch_sites_; }
  void ClearEpoch();

  size_t trace_len() const { return trace_len_; }

 private:
  friend class Coverage;
  // Per-site mark bits: hit by the current case, hit since the last barrier.
  static constexpr uint8_t kCaseMark = 1;
  static constexpr uint8_t kEpochMark = 2;

  inline void Record(int site, const Coverage& cov);  // body below Coverage
  // Record's slow path: the site is new to the current case or the epoch.
  void RecordFirst(int site, const Coverage& cov);

  std::vector<uint8_t> marks_;      // kCaseMark | kEpochMark per site
  std::vector<int> case_marks_;     // sites with kCaseMark, for O(case) reset
  std::vector<int> epoch_sites_;    // sites with kEpochMark, in first-hit order
  size_t new_since_case_ = 0;
  size_t trace_len_ = 0;
  bool muted_ = false;
};

class Coverage {
 public:
  // Hard capacity of the site registry. Instrumentation sites are static code
  // locations (a few thousand in this tree); the fixed bound is what lets
  // Hit() be a lock-free array index even while other threads register.
  static constexpr size_t kMaxSites = 1 << 16;

  // Inline Meyers singleton: Hit()/Record() run once per instrumented branch
  // per verified instruction, so the accessor must not cost a function call.
  static Coverage& Get() {
    static Coverage instance;
    return instance;
  }

  // Registers a static code site; returns its id. Idempotent per call site via
  // the static-local in BVF_COV(). Thread-safe (mutex-guarded); the C++ magic
  // static in the macro serializes first-executions of one call site.
  int RegisterSite(const char* file, int line);

  // Registers |count| contiguous sites for an indexed decision (a switch over
  // helper ids, ALU ops, context fields, ...); returns the base id.
  int RegisterGroup(const char* file, int line, int count);

  void Hit(int site) {
    if (!enabled_.load(std::memory_order_relaxed)) {
      return;
    }
    CoverageSink* sink = tls_sink_;
    if (sink != nullptr) {
      sink->Record(site, *this);
      return;
    }
    // Global mode. Nearly every call re-hits an already-hit site, so check
    // with a plain load before the out-of-line locked RMW.
    if (hit_[site].load(std::memory_order_relaxed) == 0) {
      CommitFirstHit(site);
    }
    // Load+store, not fetch_add: global-mode hits come from one thread at a
    // time (workers run buffered through sinks), and the trace length is a
    // diagnostic counter no campaign result reads — not worth a locked add
    // per instrumented branch.
    run_trace_len_.store(run_trace_len_.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
  }

  // True when |site| is in the committed global hit set. Frozen between
  // barriers while sinks are active, which is what sink novelty tests rely on.
  bool Committed(int site) const { return hit_[site].load(std::memory_order_relaxed) != 0; }

  // Campaign control (global mode).
  void ResetHits();

  // -- Parallel campaign support --
  // Installs |sink| as the calling thread's hit buffer (nullptr restores
  // global mode); returns the previously installed sink.
  static CoverageSink* InstallThreadSink(CoverageSink* sink);
  static CoverageSink* ThreadSink() { return tls_sink_; }

  // Merges a worker's epoch delta into the committed set and clears it.
  // Returns the number of sites that were new to the committed set. Call from
  // one thread at a barrier (workers parked).
  size_t Commit(CoverageSink& sink);

  // Checkpoint support. Hit sites serialize as stable "file:line:idx" keys
  // (idx = position within a RegisterGroup block, 0 for plain sites; file is
  // the source path from its last "src/" component on), so a restored
  // campaign's hit set is independent of registration order and of the
  // directory the binary was built in. RestoreHitKeys strips the absolute
  // prefix older keys carry. Keys naming sites that are not registered yet
  // (site registration is lazy — a static local per call site) are kept
  // pending and applied the moment the site registers, without counting as
  // new coverage.
  std::vector<std::string> SerializeHitKeys() const;
  void RestoreHitKeys(const std::vector<std::string>& keys);
  // |key| with any absolute prefix before its last "src/" component dropped:
  // the form every key this build produces has.
  static std::string StableKey(const std::string& key);

  // Stable keys for a list of site ids (a sink's epoch delta). The supervised
  // campaign's workers ship their epoch coverage to the coordinator as keys —
  // site ids are lazy-registration order and differ between processes, keys
  // do not. Out-of-range ids are skipped.
  std::vector<std::string> SiteKeysFor(const std::vector<int>& site_ids) const;

  size_t hit_count() const { return hit_count_.load(std::memory_order_relaxed); }
  size_t site_count() const { return site_count_.load(std::memory_order_relaxed); }
  size_t run_trace_len() const { return run_trace_len_.load(std::memory_order_relaxed); }

  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Debug: list covered site locations.
  std::vector<std::string> CoveredSites() const;

 private:
  Coverage();

  struct Site {
    const char* file;
    int line;
    int idx;  // index within a RegisterGroup block; 0 for plain sites
  };

  static std::string SiteKey(const Site& site);

  // Hit's global-mode slow path. The exchange() keeps the distinct-hit
  // accounting exact even if legacy-mode code races on one site (each site
  // increments hit_count_ exactly once).
  void CommitFirstHit(int site);

  // constinit: no dynamic initialization, so Hit reads the slot directly
  // instead of calling the TLS init wrapper first.
  static constinit thread_local CoverageSink* tls_sink_;

  mutable std::mutex mu_;                     // guards sites_ and pending_
  std::deque<Site> sites_;                    // stable storage; ids are indices
  std::set<std::string> pending_;             // restored keys awaiting registration
  std::unique_ptr<std::atomic<uint8_t>[]> hit_;  // committed global hit set
  std::atomic<size_t> site_count_{0};
  std::atomic<size_t> hit_count_{0};
  std::atomic<size_t> run_trace_len_{0};
  std::atomic<bool> enabled_{true};
};

inline void CoverageSink::Record(int site, const Coverage& cov) {
  if (muted_) {
    return;
  }
  ++trace_len_;
  // Nearly every hit re-hits a site the case and the epoch already have.
  if (marks_[site] != (kCaseMark | kEpochMark)) {
    RecordFirst(site, cov);
  }
}

// Suppresses campaign-feedback coverage recording on the current thread for
// the scope's lifetime: mutes the installed sink if one exists (worker
// thread), otherwise disables the global registry (a thread without a
// sink).
class ScopedCoverageSuppress {
 public:
  ScopedCoverageSuppress();
  ~ScopedCoverageSuppress();
  ScopedCoverageSuppress(const ScopedCoverageSuppress&) = delete;
  ScopedCoverageSuppress& operator=(const ScopedCoverageSuppress&) = delete;

 private:
  CoverageSink* sink_;
  bool sink_was_muted_ = false;
  bool global_was_enabled_ = false;
};

}  // namespace bpf

// Marks one branch-coverage site at the current source location.
#define BVF_COV()                                                                      \
  do {                                                                                 \
    static const int bvf_cov_site_ = ::bpf::Coverage::Get().RegisterSite(__FILE__, __LINE__); \
    ::bpf::Coverage::Get().Hit(bvf_cov_site_);                                         \
  } while (0)

// Marks the i-th of n branch-coverage sites of an indexed decision point
// (e.g. a switch over helper ids). Out-of-range indices are ignored.
#define BVF_COV_IDX(n, i)                                                              \
  do {                                                                                 \
    static const int bvf_cov_base_ =                                                   \
        ::bpf::Coverage::Get().RegisterGroup(__FILE__, __LINE__, (n));                 \
    const int bvf_cov_i_ = static_cast<int>(i);                                        \
    if (bvf_cov_i_ >= 0 && bvf_cov_i_ < static_cast<int>(n)) {                         \
      ::bpf::Coverage::Get().Hit(bvf_cov_base_ + bvf_cov_i_);                          \
    }                                                                                  \
  } while (0)

#endif  // SRC_KERNEL_COVERAGE_H_
