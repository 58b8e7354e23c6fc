// The in-process campaign engine (DESIGN.md §9). jobs=1 (the default) runs
// one worker thread; more jobs shard the same work across threads.
//
// Every case draws its randomness from a per-iteration seed
// (CaseSeed(campaign_seed, i), the same construction FaultSeed already uses)
// rather than from one stream threaded through the campaign, and iterations
// are partitioned across worker threads in fixed epochs:
//
//   epoch e = iterations (e*epoch_len, (e+1)*epoch_len]   (absolute numbers)
//   iteration i in an epoch starting at s runs on worker (i - s) % jobs
//
// Within an epoch every worker sees the same frozen snapshots — the committed
// coverage set, the corpus, the campaign's finding-signature set, and the
// committed verdict cache — and buffers everything it produces. At the epoch
// barrier the coordinator merges worker output in iteration order. Because
// per-case decisions depend only on (campaign seed, iteration number, frozen
// snapshots) and merges are iteration-ordered, the campaign's findings,
// outcome histograms, coverage set, corpus, and final StatsDigest are
// bit-identical for every jobs value ≥ 1.
//
// Checkpoints are written at epoch barriers only, tagged engine=parallel
// (plus the epoch length) on the fingerprint line: an 8-job campaign's
// checkpoint resumes bit-identically under any other job count (including 1),
// and supervised (multi-process) checkpoints are interchangeable with
// in-process ones because both run this same discipline. The class keeps its
// historical name; it is the only in-process engine.

#ifndef SRC_CORE_PARALLEL_H_
#define SRC_CORE_PARALLEL_H_

#include <cstdint>

// The shard loop, the barrier-merge steps, and CaseSeed live in
// src/core/epoch.h, shared with the multi-process supervisor
// (src/core/supervisor) so the two engines cannot drift.
#include "src/core/epoch.h"
#include "src/core/fuzzer.h"

namespace bvf {

class ParallelFuzzer {
 public:
  // |generator| is the prototype: with jobs > 1 each extra worker runs
  // Generator::Clone() of it. A generator that cannot clone degrades the
  // campaign to one worker (results are identical either way; that is the
  // engine's whole invariant).
  ParallelFuzzer(Generator& generator, CampaignOptions options);

  CampaignStats Run();

 private:
  Generator& generator_;
  CampaignOptions options_;
};

}  // namespace bvf

#endif  // SRC_CORE_PARALLEL_H_
