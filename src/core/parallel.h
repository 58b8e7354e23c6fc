// The in-process campaign engine (DESIGN.md §9): the epoch coordinator of
// src/core/epoch.h over worker threads that share the process-global
// Coverage registry. jobs=1 (the default) runs one worker thread; more jobs
// shard the same work across threads.
//
// Every case draws its randomness from a per-iteration seed
// (CaseSeed(campaign_seed, i)), iterations are partitioned across workers in
// fixed epochs, and the coordinator merges worker output in iteration order
// at each barrier. So the findings, outcome histograms, coverage set, corpus
// and StatsDigest are bit-identical for every jobs value ≥ 1; a checkpoint
// resumes under any job count and interchanges with supervised
// (multi-process) ones. The class keeps its historical name; it is the only
// in-process engine.

#ifndef SRC_CORE_PARALLEL_H_
#define SRC_CORE_PARALLEL_H_

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
