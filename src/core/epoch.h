// The epoch coordinator and its shard machinery (DESIGN.md §9, §12).
//
// Two campaign topologies run the same sharded epoch discipline:
// ParallelFuzzer (worker threads, src/core/parallel.cc) and SupervisedFuzzer
// (worker processes, src/core/supervisor/). Bit-identical StatsDigests across
// the two, and across job counts within each, depend on the campaign loop,
// the shard loop and the barrier merge being literally the same code, so all
// of it lives here. A topology supplies only how one epoch's shards run and
// where committed coverage lives (EpochTopology).
//
// Contract for one epoch, for any topology:
//  * every worker sees the same frozen epoch-start snapshots (committed
//    coverage, corpus, finding signatures);
//  * iteration i of an epoch starting at s runs on shard (i - s) % jobs with
//    RNG seeded CaseSeed(campaign_seed, i) — no cross-iteration state;
//  * the coordinator merges shard output in iteration order at the barrier.

#ifndef SRC_CORE_EPOCH_H_
#define SRC_CORE_EPOCH_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "src/core/fuzzer.h"
#include "src/core/journal/journal.h"
#include "src/kernel/coverage.h"

namespace bvf {

// Per-iteration RNG seed: a splitmix64-style mix of the campaign seed and the
// absolute iteration number. Deliberately a different stream than
// bpf::FaultSeed (different pre-mix constants), so a case's generation
// randomness and its fault schedule stay decorrelated.
inline uint64_t CaseSeed(uint64_t campaign_seed, uint64_t iteration) {
  uint64_t z = (campaign_seed ^ 0x6a09e667f3bcc909ull) +
               iteration * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Everything one shard produced for one iteration that the barrier merge has
// to order by iteration number. Pure counters do not need ordering and travel
// separately (EpochShardResult::partial).
struct CaseRecord {
  uint64_t iteration = 0;
  bool corpus_candidate = false;
  FuzzCase the_case;              // stored only when corpus_candidate
  std::vector<Finding> findings;  // already confirmed (see epoch rule below)
};

struct EpochShardResult {
  // Order-independent counters for this shard's slice of the epoch. The
  // sanitizer field holds this epoch's *delta* (not a cumulative total), so
  // the merge is a plain Add and survives a worker process being re-forked.
  CampaignStats partial;
  std::vector<CaseRecord> records;  // iteration-ascending (the shard strides up)
};

// Optional per-case instrumentation. The supervised worker uses on_case_begin
// as its heartbeat (and to stage the in-flight case for quarantine
// forensics), and skip to suppress poisoned iterations after an epoch is
// abandoned. The in-process engine passes neither.
struct EpochShardHooks {
  std::function<void(uint64_t iteration, const FuzzCase& the_case)> on_case_begin;
  std::function<bool(uint64_t iteration)> skip;
};

// Runs iterations start+index, start+index+jobs, ... ≤ end through |runner|.
// |corpus| and |frozen_sigs| are the epoch-start snapshots; |sink| must be
// installed as the calling thread's coverage sink. Findings are confirmed iff
// their signature was unknown at epoch start AND this is the shard's first
// local occurrence this epoch: the merge keeps the globally earliest
// occurrence per signature, and the globally earliest is always its shard's
// first local occurrence — so every finding the merge keeps carries a
// confirmation, for any job count. Skipped iterations contribute nothing (not
// even an iterations tick): they did not run.
void RunEpochShard(const CampaignOptions& options, Generator& gen, CaseRunner& runner,
                   bpf::CoverageSink& sink, const std::vector<FuzzCase>& corpus,
                   const std::set<std::string>& frozen_sigs, int index, int jobs,
                   uint64_t start, uint64_t end, EpochShardResult& out,
                   const EpochShardHooks& hooks = {});

// Campaign state the coordinator owns. Topologies read it to set up each
// epoch; the supervised one also files its process accounting and crash
// records in |stats| and |journal|.
struct EpochCampaign {
  CampaignOptions options;
  CampaignStats stats;
  std::vector<FuzzCase> corpus;
  Journal journal;
};

// What a campaign topology supplies to RunEpochCampaign.
class EpochTopology {
 public:
  EpochTopology() = default;
  EpochTopology(const EpochTopology&) = delete;
  EpochTopology& operator=(const EpochTopology&) = delete;
  virtual ~EpochTopology() = default;

  // Replaces the committed coverage with |keys| (empty for a fresh campaign).
  virtual void RestoreCoverage(const std::vector<std::string>& keys) = 0;
  // The committed coverage: its size, and its stable keys for checkpoints.
  virtual size_t CoverageCount() const = 0;
  virtual std::vector<std::string> CoverageKeys() const = 0;

  // Brings the workers up before the first epoch; |campaign| outlives Stop.
  // False ends the campaign with stats.resume_error saying why.
  virtual bool Start(EpochCampaign& campaign) = 0;
  // Runs iterations [start, end] on every shard against the campaign's
  // epoch-start state, and commits the shards' coverage. Fills |results|
  // with one EpochShardResult per shard, valid until the next call. False
  // aborts the campaign with stats.resume_error saying why.
  virtual bool RunEpoch(uint64_t start, uint64_t end,
                        std::vector<EpochShardResult*>& results) = 0;
  // Asked after each barrier is journaled: true checkpoints that barrier and
  // ends the campaign there.
  virtual bool StopRequested() const { return false; }
  // Stops the workers. Also called after a failed Start; a second call does
  // nothing.
  virtual void Stop() = 0;
};

// The campaign loop of both topologies: resume and its validation, the
// conformance prologue, the journal, stop_after quantization, the epochs and
// their barrier merge, the journal append, and the checkpoint cadence.
CampaignStats RunEpochCampaign(const std::string& tool, const CampaignOptions& options,
                               EpochTopology& topology);

}  // namespace bvf

#endif  // SRC_CORE_EPOCH_H_
