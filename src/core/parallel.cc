#include "src/core/parallel.h"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/core/journal/journal.h"
#include "src/core/serialize.h"
#include "src/kernel/coverage.h"
#include "src/runtime/decoded_prog.h"
#include "src/runtime/jit_prog.h"
#include "src/runtime/verdict_cache.h"

namespace bvf {

using bpf::Coverage;

namespace {

struct WorkerState {
  std::unique_ptr<Generator> gen_owned;  // null for the prototype's worker
  Generator* gen = nullptr;
  std::unique_ptr<CaseRunner> runner;
  std::unique_ptr<bpf::VerdictCacheShard> shard;
  std::unique_ptr<bpf::DecodeCacheShard> dshard;
  std::unique_ptr<bpf::JitCacheShard> jshard;
  bpf::CoverageSink sink;
  EpochShardResult out;  // counters + iteration-ordered records, this epoch
};

}  // namespace

ParallelFuzzer::ParallelFuzzer(Generator& generator, CampaignOptions options)
    : generator_(generator), options_(std::move(options)) {}

CampaignStats ParallelFuzzer::Run() {
  CampaignStats stats;
  stats.tool = generator_.name();
  options_.epoch_len = std::max<uint64_t>(1, options_.epoch_len);
  stats.options = options_;

  const uint64_t epoch_len = options_.epoch_len;
  int jobs = std::max(1, options_.jobs);

  // Worker 0 drives the prototype generator; every further worker needs an
  // independent clone. No clone support → degrade to one worker (results are
  // identical by construction, only throughput changes).
  std::vector<std::unique_ptr<Generator>> clones;
  for (int w = 1; w < jobs; ++w) {
    std::unique_ptr<Generator> clone = generator_.Clone();
    if (clone == nullptr) {
      jobs = 1;
      clones.clear();
      break;
    }
    clones.push_back(std::move(clone));
  }

  const std::string fingerprint = FingerprintOptions(options_, stats.tool);
  std::vector<FuzzCase> corpus;
  uint64_t start_iteration = 1;

  if (!options_.resume_path.empty()) {
    CampaignCheckpoint cp;
    std::string error;
    if (LoadCheckpoint(options_.resume_path, &cp, &error) != 0) {
      stats.resume_error = error.empty() ? "checkpoint load failed" : error;
      return stats;
    }
    // Field-wise validation (epoch_len, options hash) before any
    // stats/corpus/coverage state is touched; a rejected resume reports which
    // field mismatched and leaves the campaign untouched.
    const std::string mismatch = ValidateCheckpointCompat(cp, options_, stats.tool);
    if (!mismatch.empty()) {
      stats.resume_error = mismatch;
      return stats;
    }
    stats = std::move(cp.stats);
    stats.options = options_;
    stats.tool = generator_.name();
    corpus = std::move(cp.corpus);
    Coverage::Get().ResetHits();
    Coverage::Get().RestoreHitKeys(cp.coverage_keys);
    start_iteration = cp.next_iteration;
    stats.resumed_from = start_iteration;
  } else if (options_.reset_coverage) {
    Coverage::Get().ResetHits();
  }

  // Conformance prologue before epoch 0, coordinator-side so it runs exactly
  // once for any job count. Resumed campaigns skip it: its findings and
  // corpus seeds are already inside the checkpoint.
  if (options_.resume_path.empty() && !options_.conformance_dir.empty() &&
      !RunConformancePrologue(options_, stats, &corpus)) {
    return stats;
  }

  // Write-ahead journal: every barrier's newly merged findings and corpus
  // growth are appended + fsynced before the epoch is considered done, so a
  // kill between checkpoints cannot lose a recorded finding.
  Journal journal;
  if (!options_.journal_path.empty()) {
    std::string error;
    if (journal.Open(options_.journal_path, &error) != 0) {
      stats.resume_error = "journal open failed: " + error;
      return stats;
    }
  }

  const uint64_t sample_every =
      options_.coverage_points > 0
          ? std::max<uint64_t>(1, options_.iterations / options_.coverage_points)
          : 0;
  // A simulated kill is quantized UP to the containing epoch's end: the
  // parallel engine's state is only well-defined at barriers.
  uint64_t last_iteration = options_.iterations;
  if (options_.stop_after != 0 && options_.stop_after < last_iteration) {
    last_iteration =
        std::min(last_iteration, ((options_.stop_after - 1) / epoch_len + 1) * epoch_len);
  }

  bpf::VerdictCache cache;
  bpf::DecodeCache dcache;
  bpf::JitCache jcache;
  std::vector<WorkerState> workers(static_cast<size_t>(jobs));
  std::vector<bpf::VerdictCacheShard*> shards;
  std::vector<bpf::DecodeCacheShard*> dshards;
  std::vector<bpf::JitCacheShard*> jshards;
  // Evictions restored from a checkpoint happened in a previous process; this
  // process's cache starts empty, so the running total is base + local.
  const uint64_t base_decode_evictions = stats.decode_cache_evictions;
  const uint64_t base_jit_evictions = stats.jit_cache_evictions;
  const bool use_jit_cache =
      options_.interp_engine == bpf::ExecEngine::kJit && bpf::JitAvailable();
  for (int w = 0; w < jobs; ++w) {
    WorkerState& worker = workers[static_cast<size_t>(w)];
    if (w == 0) {
      worker.gen = &generator_;
    } else {
      worker.gen_owned = std::move(clones[static_cast<size_t>(w - 1)]);
      worker.gen = worker.gen_owned.get();
    }
    worker.runner = std::make_unique<CaseRunner>(options_);
    if (options_.verdict_cache) {
      worker.shard = std::make_unique<bpf::VerdictCacheShard>(cache, /*immediate=*/false);
      worker.runner->set_verdict_shard(worker.shard.get());
      shards.push_back(worker.shard.get());
    }
    if (options_.interp_engine != bpf::ExecEngine::kLegacy) {
      // Same epoch discipline as the verdict cache: workers read the frozen
      // committed set and buffer inserts; the barrier commits in iteration
      // order, so hit/miss/evict counts are job-count invariant.
      worker.dshard = std::make_unique<bpf::DecodeCacheShard>(dcache, /*immediate=*/false);
      worker.runner->set_decode_shard(worker.dshard.get());
      dshards.push_back(worker.dshard.get());
    }
    if (use_jit_cache) {
      worker.jshard = std::make_unique<bpf::JitCacheShard>(jcache, /*immediate=*/false);
      worker.runner->set_jit_shard(worker.jshard.get());
      jshards.push_back(worker.jshard.get());
    }
  }

  // Epoch-frozen snapshots the workers read; only the coordinator writes
  // them, at barriers, while every worker is parked (the barrier mutex
  // provides the happens-before edges).
  const std::set<std::string>* frozen_sigs = &stats.finding_signatures;

  std::mutex mu;
  std::condition_variable cv_work;
  std::condition_variable cv_done;
  uint64_t generation = 0;
  uint64_t epoch_start = 0;
  uint64_t epoch_end = 0;
  int done_count = 0;
  bool shutdown = false;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(jobs));
  for (int w = 0; w < jobs; ++w) {
    threads.emplace_back([&, w] {
      WorkerState& worker = workers[static_cast<size_t>(w)];
      Coverage::InstallThreadSink(&worker.sink);
      uint64_t seen_generation = 0;
      for (;;) {
        uint64_t start = 0;
        uint64_t end = 0;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv_work.wait(lock,
                       [&] { return shutdown || generation != seen_generation; });
          if (shutdown) {
            break;
          }
          seen_generation = generation;
          start = epoch_start;
          end = epoch_end;
        }
        RunEpochShard(options_, *worker.gen, *worker.runner, worker.sink, corpus,
                      *frozen_sigs, w, jobs, start, end, worker.out);
        {
          std::lock_guard<std::mutex> lock(mu);
          if (++done_count == jobs) {
            cv_done.notify_one();
          }
        }
      }
      Coverage::InstallThreadSink(nullptr);
    });
  }

  const auto save_checkpoint = [&](uint64_t next_iteration) {
    CampaignCheckpoint cp;
    cp.next_iteration = next_iteration;
    cp.fingerprint = fingerprint;
    cp.epoch_len = epoch_len;
    cp.corpus = corpus;
    cp.stats = stats;
    cp.stats.final_coverage = Coverage::Get().hit_count();
    cp.coverage_keys = Coverage::Get().SerializeHitKeys();
    if (SaveCheckpoint(options_.checkpoint_path, cp) == 0 && journal.is_open()) {
      // The checkpoint covers everything the journal held; restart it empty.
      journal.Rotate();
    }
  };

  uint64_t next = start_iteration;
  while (next <= last_iteration) {
    const uint64_t end =
        std::min(last_iteration, ((next - 1) / epoch_len + 1) * epoch_len);
    {
      std::lock_guard<std::mutex> lock(mu);
      epoch_start = next;
      epoch_end = end;
      done_count = 0;
      ++generation;
    }
    cv_work.notify_all();
    {
      std::unique_lock<std::mutex> lock(mu);
      cv_done.wait(lock, [&] { return done_count == jobs; });
    }

    // ---- Barrier merge (workers parked) ----
    // 1. Order-independent counters (including per-epoch sanitizer deltas).
    for (WorkerState& worker : workers) {
      MergeEpochCounters(stats, worker.out.partial);
    }
    // 2. Coverage: union each worker's epoch delta into the committed set.
    for (WorkerState& worker : workers) {
      Coverage::Get().Commit(worker.sink);
    }
    // 3. Verdict cache: commit pending inserts in iteration order (the
    //    entry-cap cutoff must not depend on the sharding) and fold counters.
    if (options_.verdict_cache) {
      cache.CommitShards(shards);
      for (WorkerState& worker : workers) {
        stats.verdict_cache_hits += worker.shard->TakeHits();
        stats.verdict_cache_misses += worker.shard->TakeMisses();
      }
    }
    if (options_.interp_engine != bpf::ExecEngine::kLegacy) {
      dcache.CommitShards(dshards);
      for (WorkerState& worker : workers) {
        stats.decode_cache_hits += worker.dshard->TakeHits();
        stats.decode_cache_misses += worker.dshard->TakeMisses();
      }
      stats.decode_cache_evictions = base_decode_evictions + dcache.evictions();
    }
    if (use_jit_cache) {
      jcache.CommitShards(jshards);
      for (WorkerState& worker : workers) {
        stats.jit_cache_hits += worker.jshard->TakeHits();
        stats.jit_cache_misses += worker.jshard->TakeMisses();
      }
      stats.jit_cache_evictions = base_jit_evictions + jcache.evictions();
    }
    // 4. Findings and corpus growth, in iteration order across all workers.
    const size_t findings_before = stats.findings.size();
    const size_t corpus_before = corpus.size();
    {
      std::vector<CaseRecord*> merged;
      for (WorkerState& worker : workers) {
        for (CaseRecord& record : worker.out.records) {
          merged.push_back(&record);
        }
      }
      MergeEpochRecords(std::move(merged), stats, corpus);
      for (WorkerState& worker : workers) {
        worker.out.records.clear();
      }
    }
    // 5. Coverage curve, epoch-quantized: every sample point inside this
    //    epoch reports the committed count after the epoch's merge.
    AppendEpochCurve(stats, next, end, sample_every, Coverage::Get().hit_count());

    // Write-ahead order: journal what this barrier merged, fsync, and only
    // then (possibly) checkpoint.
    if (journal.is_open()) {
      for (size_t i = findings_before; i < stats.findings.size(); ++i) {
        JournalRecord record;
        record.type = JournalRecordType::kFinding;
        record.iteration = stats.findings[i].iteration;
        std::ostringstream payload;
        serialize::SerializeFinding(payload, stats.findings[i]);
        record.payload = payload.str();
        journal.Append(record);
      }
      for (size_t i = corpus_before; i < corpus.size(); ++i) {
        JournalRecord record;
        record.type = JournalRecordType::kCorpusCase;
        record.iteration = end;
        std::ostringstream payload;
        serialize::SerializeCase(payload, corpus[i]);
        record.payload = payload.str();
        journal.Append(record);
      }
      journal.Append(JournalRecord{JournalRecordType::kMark, end + 1, ""});
      journal.Sync();
    }

    if (!options_.checkpoint_path.empty() && options_.checkpoint_every != 0 &&
        end != last_iteration &&
        end / options_.checkpoint_every > (next - 1) / options_.checkpoint_every) {
      save_checkpoint(end + 1);
    }
    next = end + 1;
  }

  {
    std::lock_guard<std::mutex> lock(mu);
    shutdown = true;
  }
  cv_work.notify_all();
  for (std::thread& thread : threads) {
    thread.join();
  }

  stats.final_coverage = Coverage::Get().hit_count();
  if (!options_.checkpoint_path.empty()) {
    save_checkpoint(last_iteration + 1);
  }
  return stats;
}

}  // namespace bvf
