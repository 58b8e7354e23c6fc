#include "src/core/parallel.h"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/kernel/coverage.h"

namespace bvf {

using bpf::Coverage;

namespace {

struct Worker {
  Worker(Generator& generator, const CampaignOptions& options)
      : gen(generator), runner(options) {}

  Generator& gen;
  CaseRunner runner;
  bpf::CoverageSink sink;
  EpochShardResult out;  // counters + iteration-ordered records, this epoch
};

// Worker threads over the process-global Coverage registry. Between barriers the workers read the epoch-frozen
// snapshots in the EpochCampaign; only the coordinator writes them, while
// every worker is parked (the barrier mutex provides the happens-before
// edges).
class ThreadTopology : public EpochTopology {
 public:
  explicit ThreadTopology(Generator& generator) : generator_(generator) {}
  ~ThreadTopology() override { Stop(); }

  void RestoreCoverage(const std::vector<std::string>& keys) override {
    Coverage::Get().ResetHits();
    Coverage::Get().RestoreHitKeys(keys);
  }
  size_t CoverageCount() const override { return Coverage::Get().hit_count(); }
  std::vector<std::string> CoverageKeys() const override {
    return Coverage::Get().SerializeHitKeys();
  }

  bool Start(EpochCampaign& campaign) override {
    // Worker 0 drives the prototype generator; every further worker needs an
    // independent clone. No clone support → degrade to one worker (results
    // are identical by construction, only throughput changes).
    jobs_ = std::max(1, campaign.options.jobs);
    for (int w = 1; w < jobs_; ++w) {
      std::unique_ptr<Generator> clone = generator_.Clone();
      if (clone == nullptr) {
        jobs_ = 1;
        clones_.clear();
        break;
      }
      clones_.push_back(std::move(clone));
    }
    for (int w = 0; w < jobs_; ++w) {
      Generator& gen = w == 0 ? generator_ : *clones_[static_cast<size_t>(w - 1)];
      workers_.push_back(std::make_unique<Worker>(gen, campaign.options));
    }
    for (int w = 0; w < jobs_; ++w) {
      threads_.emplace_back([this, &campaign, w] { WorkerLoop(campaign, w); });
    }
    return true;
  }

  bool RunEpoch(uint64_t start, uint64_t end, std::vector<EpochShardResult*>& results) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      epoch_start_ = start;
      epoch_end_ = end;
      done_count_ = 0;
      ++generation_;
    }
    cv_work_.notify_all();
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_done_.wait(lock, [&] { return done_count_ == jobs_; });
    }
    // Commit coverage while the workers are parked.
    for (std::unique_ptr<Worker>& worker : workers_) {
      Coverage::Get().Commit(worker->sink);
      results.push_back(&worker->out);
    }
    return true;
  }

  void Stop() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& thread : threads_) {
      thread.join();
    }
    threads_.clear();
  }

 private:
  void WorkerLoop(const EpochCampaign& campaign, int w) {
    Worker& worker = *workers_[static_cast<size_t>(w)];
    Coverage::InstallThreadSink(&worker.sink);
    uint64_t seen_generation = 0;
    for (;;) {
      uint64_t start = 0;
      uint64_t end = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_work_.wait(lock, [&] { return shutdown_ || generation_ != seen_generation; });
        if (shutdown_) {
          break;
        }
        seen_generation = generation_;
        start = epoch_start_;
        end = epoch_end_;
      }
      RunEpochShard(campaign.options, worker.gen, worker.runner, worker.sink, campaign.corpus,
                    campaign.stats.finding_signatures, w, jobs_, start, end, worker.out);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (++done_count_ == jobs_) {
          cv_done_.notify_one();
        }
      }
    }
    Coverage::InstallThreadSink(nullptr);
  }

  Generator& generator_;
  int jobs_ = 1;
  std::vector<std::unique_ptr<Generator>> clones_;
  std::vector<std::unique_ptr<Worker>> workers_;

  std::mutex mu_;  // guards the epoch hand-off fields below
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  uint64_t generation_ = 0;
  uint64_t epoch_start_ = 0;
  uint64_t epoch_end_ = 0;
  int done_count_ = 0;
  bool shutdown_ = false;

  std::vector<std::thread> threads_;  // last: the threads use every member above
};

}  // namespace

ParallelFuzzer::ParallelFuzzer(Generator& generator, CampaignOptions options)
    : generator_(generator), options_(std::move(options)) {}

CampaignStats ParallelFuzzer::Run() {
  ThreadTopology topology(generator_);
  return RunEpochCampaign(generator_.name(), options_, topology);
}

}  // namespace bvf
