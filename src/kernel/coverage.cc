#include "src/kernel/coverage.h"

#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace bpf {

namespace {

// Offset of the project-relative part of a source path (or of a key that
// starts with one): the last "src/" component onward, so a site's key is the
// same whatever directory the build was checked out in. Paths without such a
// component (ad-hoc sites registered by tests) are kept whole.
size_t ProjectPathStart(std::string_view path) {
  const size_t slash_src = path.rfind("/src/");
  return slash_src == std::string_view::npos ? 0 : slash_src + 1;
}

}  // namespace

std::string Coverage::StableKey(const std::string& key) {
  return key.substr(ProjectPathStart(key));
}

constinit thread_local CoverageSink* Coverage::tls_sink_ = nullptr;

CoverageSink::CoverageSink() : marks_(Coverage::kMaxSites, 0) {}

void CoverageSink::RecordFirst(int site, const Coverage& cov) {
  uint8_t& marks = marks_[site];
  if ((marks & kCaseMark) == 0) {
    marks |= kCaseMark;
    case_marks_.push_back(site);
    if (!cov.Committed(site)) {
      ++new_since_case_;
    }
  }
  if ((marks & kEpochMark) == 0) {
    marks |= kEpochMark;
    epoch_sites_.push_back(site);
  }
}

void CoverageSink::BeginCase() {
  for (const int site : case_marks_) {
    marks_[site] &= ~kCaseMark;
  }
  case_marks_.clear();
  new_since_case_ = 0;
}

void CoverageSink::ClearEpoch() {
  for (const int site : epoch_sites_) {
    marks_[site] &= ~kEpochMark;
  }
  epoch_sites_.clear();
}

Coverage::Coverage() : hit_(new std::atomic<uint8_t>[kMaxSites]()) {}

void Coverage::CommitFirstHit(int site) {
  if (hit_[site].exchange(1, std::memory_order_relaxed) == 0) {
    hit_count_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::string Coverage::SiteKey(const Site& site) {
  return std::string(site.file) + ":" + std::to_string(site.line) + ":" +
         std::to_string(site.idx);
}

CoverageSink* Coverage::InstallThreadSink(CoverageSink* sink) {
  CoverageSink* previous = tls_sink_;
  tls_sink_ = sink;
  return previous;
}

int Coverage::RegisterSite(const char* file, int line) {
  return RegisterGroup(file, line, 1);
}

int Coverage::RegisterGroup(const char* file, int line, int count) {
  file += ProjectPathStart(file);  // a suffix of a string literal outlives the site
  std::lock_guard<std::mutex> lock(mu_);
  const size_t base = sites_.size();
  if (base + static_cast<size_t>(count) > kMaxSites) {
    std::fprintf(stderr, "coverage: site registry overflow (%zu + %d > %zu)\n", base,
                 count, kMaxSites);
    std::abort();
  }
  for (int i = 0; i < count; ++i) {
    sites_.push_back(Site{file, line, i});
    const size_t id = base + static_cast<size_t>(i);
    if (!pending_.empty() && pending_.erase(SiteKey(sites_.back())) > 0) {
      // Already counted toward hit_count_ at restore time; just materialize.
      hit_[id].store(1, std::memory_order_relaxed);
    }
  }
  site_count_.store(sites_.size(), std::memory_order_release);
  return static_cast<int>(base);
}

void Coverage::ResetHits() {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t n = sites_.size();
  for (size_t i = 0; i < n; ++i) {
    hit_[i].store(0, std::memory_order_relaxed);
  }
  pending_.clear();
  hit_count_.store(0, std::memory_order_relaxed);
  run_trace_len_.store(0, std::memory_order_relaxed);
}

size_t Coverage::Commit(CoverageSink& sink) {
  size_t newly = 0;
  for (const int site : sink.epoch_sites()) {
    if (hit_[site].exchange(1, std::memory_order_relaxed) == 0) {
      ++newly;
    }
  }
  hit_count_.fetch_add(newly, std::memory_order_relaxed);
  run_trace_len_.fetch_add(sink.trace_len_, std::memory_order_relaxed);
  sink.trace_len_ = 0;
  sink.ClearEpoch();
  return newly;
}

std::vector<std::string> Coverage::SerializeHitKeys() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> keys;
  for (size_t i = 0; i < sites_.size(); ++i) {
    if (hit_[i].load(std::memory_order_relaxed)) {
      keys.push_back(SiteKey(sites_[i]));
    }
  }
  // Sites pending restoration are still part of the campaign's hit set even
  // though their code has not run in this process yet.
  keys.insert(keys.end(), pending_.begin(), pending_.end());
  return keys;
}

void Coverage::RestoreHitKeys(const std::vector<std::string>& keys) {
  std::lock_guard<std::mutex> lock(mu_);
  // Every distinct restored key is part of the campaign's covered set and
  // counts immediately — including keys for sites this process has not
  // registered yet (those stay pending and are materialized, without
  // recounting, the moment their code first runs). Keys written by builds in
  // another checkout, or before keys were made checkout-independent, carry
  // an absolute path prefix; StableKey drops it.
  std::set<std::string> wanted;
  for (const std::string& key : keys) {
    wanted.insert(StableKey(key));
  }
  size_t restored = 0;
  for (size_t i = 0; i < sites_.size() && !wanted.empty(); ++i) {
    if (wanted.erase(SiteKey(sites_[i])) > 0 &&
        hit_[i].exchange(1, std::memory_order_relaxed) == 0) {
      ++restored;
    }
  }
  hit_count_.fetch_add(restored + wanted.size(), std::memory_order_relaxed);
  pending_.insert(wanted.begin(), wanted.end());
}

std::vector<std::string> Coverage::SiteKeysFor(const std::vector<int>& site_ids) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> keys;
  keys.reserve(site_ids.size());
  for (const int id : site_ids) {
    if (id >= 0 && static_cast<size_t>(id) < sites_.size()) {
      keys.push_back(SiteKey(sites_[static_cast<size_t>(id)]));
    }
  }
  return keys;
}

std::vector<std::string> Coverage::CoveredSites() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (size_t i = 0; i < sites_.size(); ++i) {
    if (hit_[i].load(std::memory_order_relaxed)) {
      out.push_back(std::string(sites_[i].file) + ":" + std::to_string(sites_[i].line));
    }
  }
  return out;
}

ScopedCoverageSuppress::ScopedCoverageSuppress() : sink_(Coverage::ThreadSink()) {
  if (sink_ != nullptr) {
    sink_was_muted_ = sink_->muted();
    sink_->set_muted(true);
  } else {
    global_was_enabled_ = Coverage::Get().enabled();
    Coverage::Get().set_enabled(false);
  }
}

ScopedCoverageSuppress::~ScopedCoverageSuppress() {
  if (sink_ != nullptr) {
    sink_->set_muted(sink_was_muted_);
  } else {
    Coverage::Get().set_enabled(global_was_enabled_);
  }
}

}  // namespace bpf
