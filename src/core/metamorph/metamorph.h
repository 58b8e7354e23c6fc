// The metamorphic oracle (Indicator #4, DESIGN.md §11): for an accepted
// case, derive K semantics-preserving variants (src/core/metamorph/
// transform.h), execute base and variants on clean throwaway substrates, and
// compare their witnesses. A correct verifier/runtime pair produces identical
// witnesses; differences are classified, in precedence order, as
//
//   verdict divergence    — the variant's PROG_LOAD verdict flipped
//   witness divergence    — per-run error or R0 differs
//   sanitizer divergence  — the set of indicator kinds fired differs
//
// Variant derivation depends only on (campaign seed, program identity,
// variant index) — never on the iteration, worker, or engine — so the same
// program yields the same variants in any --jobs shard, either interpreter,
// after resume, and in the repro/minimize replay path.

#ifndef SRC_CORE_METAMORPH_METAMORPH_H_
#define SRC_CORE_METAMORPH_METAMORPH_H_

#include <cstdint>
#include <vector>

#include "src/core/fuzzer.h"
#include "src/core/generator.h"
#include "src/core/oracle.h"

namespace bvf {

// Seed for variant k of a program (splitmix64 over the campaign seed, the
// program's FNV identity, and the variant index; mirrors bpf::FaultSeed so
// metamorph decisions never consume a case's generation RNG).
inline uint64_t MetamorphSeed(uint64_t campaign_seed, uint64_t program_fnv,
                              int variant) {
  uint64_t z = campaign_seed ^ (program_fnv * 0x9e3779b97f4a7c15ull) ^
               (static_cast<uint64_t>(variant) * 0xd1b54a32d192ed03ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

class MetamorphOracle {
 public:
  explicit MetamorphOracle(const CampaignOptions& options) : options_(options) {}

  struct Result {
    uint64_t bases_examined = 0;     // 1 when the clean base witness loaded
    uint64_t variants_executed = 0;  // valid variants driven to a witness
    uint64_t verdict_divergences = 0;
    uint64_t witness_divergences = 0;
    uint64_t sanitizer_divergences = 0;
    std::vector<Finding> findings;  // indicator 4, one per diverging variant
    // Highest-precedence divergence, for CaseOutcome escalation
    // (kUnclassified when none).
    CaseOutcome escalated = CaseOutcome::kUnclassified;
  };

  // Examines one case: collects the clean base witness, derives and executes
  // options.metamorph_k variants, and classifies every divergence. Coverage
  // recording is suppressed throughout (oracle executions must not perturb
  // corpus evolution, or digests would depend on whether metamorph ran
  // before or after a worker's merge). Deterministic: depends only on the
  // case and the options; |iteration| is recorded in findings, nothing else.
  Result Examine(const FuzzCase& the_case, uint64_t iteration) const;

 private:
  const CampaignOptions& options_;
};

}  // namespace bvf

#endif  // SRC_CORE_METAMORPH_METAMORPH_H_
