// Campaign checkpoint/resume (DESIGN.md §8.4, §12.4): serializes everything
// the epoch engine needs to continue bit-identically — next iteration,
// corpus, stats (including findings and the coverage curve), and the global
// coverage hit set — into a line-oriented text file written atomically
// (tmp + fsync + rename), with a whole-file checksum trailer so a torn or
// corrupted file is rejected with a clear error instead of silently
// misparsing.
//
// Format v2 ("bvf-checkpoint v2"). The fingerprint line carries the campaign
// compatibility contract as separate fields:
//
//   fingerprint <options-hash> engine=parallel epoch=<n>
//
// so a rejected resume can say *which* field mismatched (epoch length or the
// campaign options behind the hash) rather than a generic failure. Both
// engines (in-process ParallelFuzzer and the supervised engine in
// src/core/supervisor) write engine=parallel: their checkpoints are
// interchangeable by construction (same epoch-shard discipline, same merge
// order). Files tagged engine=serial came from the removed single-stream
// engine, whose RNG position means nothing to per-iteration seeds; the loader
// refuses them with an error naming the engine field.

#ifndef SRC_CORE_CHECKPOINT_H_
#define SRC_CORE_CHECKPOINT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/fuzzer.h"

namespace bvf {

// The engine tag stored on the fingerprint line; the only one the loader
// accepts.
inline constexpr char kEngineParallel[] = "parallel";

struct CampaignCheckpoint {
  uint64_t next_iteration = 1;  // first iteration the resumed run executes
  std::string fingerprint;      // FingerprintOptions() of the saving campaign
  std::string engine = kEngineParallel;
  uint64_t epoch_len = 0;
  // Kept for format v2 compatibility; per-iteration seeds leave no stream
  // position, so writers store zeros.
  std::array<uint64_t, 4> rng_state = {};
  std::vector<FuzzCase> corpus;
  CampaignStats stats;
  std::vector<std::string> coverage_keys;  // Coverage::SerializeHitKeys()
};

// Canonical hash of the options that must match between the saving and the
// resuming campaign for the continuation to be bit-identical. Deliberately
// excludes: iterations and stop_after (resuming to a different horizon is
// the point), the checkpoint/resume/journal paths themselves, jobs (resuming
// an 8-job campaign with 1 job is the point), and every supervisor knob
// (worker process management is a process concern, not campaign semantics).
std::string FingerprintOptions(const CampaignOptions& options, const std::string& tool);

// Field-wise compatibility check between a loaded checkpoint and the resuming
// campaign. Returns "" when the checkpoint can be resumed bit-identically;
// otherwise a message naming the first mismatching field (epoch_len or the
// options fingerprint). Call this before touching any stats, corpus, or
// coverage state.
std::string ValidateCheckpointCompat(const CampaignCheckpoint& checkpoint,
                                     const CampaignOptions& options,
                                     const std::string& tool);

// Returns 0 or a negative errno. The file appears atomically (tmp + fsync +
// rename), so a kill mid-write can never leave a half-written checkpoint.
int SaveCheckpoint(const std::string& path, const CampaignCheckpoint& checkpoint);

// Returns 0 on success; on failure returns a negative errno and, when
// |error| is non-null, a human-readable reason. Truncated files (missing
// checksum trailer) and corrupt files (checksum mismatch, malformed lines)
// are rejected before any field is interpreted.
int LoadCheckpoint(const std::string& path, CampaignCheckpoint* out, std::string* error);

// Order-independent digest of a campaign's result state (counters, findings,
// curve, coverage, sanitizer stats — everything except resume bookkeeping).
// Two campaigns with equal digests produced bit-identical results; used by
// the resume-identity tests and the smoke gate.
std::string StatsDigest(const CampaignStats& stats);

}  // namespace bvf

#endif  // SRC_CORE_CHECKPOINT_H_
