#include "src/core/epoch.h"

#include <algorithm>
#include <sstream>

#include "src/core/checkpoint.h"
#include "src/core/serialize.h"
#include "src/kernel/rng.h"

namespace bvf {

void RunEpochShard(const CampaignOptions& options, Generator& gen, CaseRunner& runner,
                   bpf::CoverageSink& sink, const std::vector<FuzzCase>& corpus,
                   const std::set<std::string>& frozen_sigs, int index, int jobs,
                   uint64_t start, uint64_t end, EpochShardResult& out,
                   const EpochShardHooks& hooks) {
  const SanitizerStats sanitizer_at_start = runner.sanitizer().stats();
  std::set<std::string> local_sigs;  // signatures this shard saw this epoch
  for (uint64_t i = start + static_cast<uint64_t>(index); i <= end;
       i += static_cast<uint64_t>(jobs)) {
    if (hooks.skip && hooks.skip(i)) {
      continue;
    }
    bpf::Rng rng(CaseSeed(options.seed, i));
    FuzzCase the_case;
    if (options.coverage_feedback && !corpus.empty() && rng.Chance(0.4)) {
      the_case = rng.Pick(corpus);
      gen.Mutate(rng, the_case);
    } else {
      the_case = gen.Generate(rng);
    }
    if (hooks.on_case_begin) {
      hooks.on_case_begin(i, the_case);
    }

    AccumulateInsnMix(the_case, out.partial);
    sink.BeginCase();
    const CaseRunner::CaseResult result = runner.RunOne(the_case, i);
    AccumulateCaseCounters(result, out.partial);
    ++out.partial.iterations;

    CaseRecord record;
    record.iteration = i;
    for (const Finding& found : result.findings) {
      if (frozen_sigs.count(found.signature) == 0 &&
          local_sigs.insert(found.signature).second) {
        Finding finding = found;
        if (options.confirm_runs > 0) {
          runner.ConfirmFinding(finding, the_case, i, result.fault_log);
        }
        record.findings.push_back(std::move(finding));
      }
    }
    if (options.coverage_feedback && sink.NewSinceCase() > 0) {
      record.corpus_candidate = true;
      record.the_case = the_case;
    }
    if (record.corpus_candidate || !record.findings.empty()) {
      out.records.push_back(std::move(record));
    }
  }
  out.partial.sanitizer = runner.sanitizer().stats().Since(sanitizer_at_start);
}

namespace {

// Sums the order-independent counters of |partial| into |into| (including the
// per-epoch sanitizer delta) and clears |partial| for the next epoch.
void MergeEpochCounters(CampaignStats& into, CampaignStats& partial) {
  into.iterations += partial.iterations;
  into.accepted += partial.accepted;
  into.rejected += partial.rejected;
  into.exec_runs += partial.exec_runs;
  into.exec_failures += partial.exec_failures;
  into.panics += partial.panics;
  into.substrate_rebuilds += partial.substrate_rebuilds;
  into.fault_injected += partial.fault_injected;
  into.insns_total += partial.insns_total;
  into.insns_alu_jmp += partial.insns_alu_jmp;
  into.insns_mem += partial.insns_mem;
  into.insns_call += partial.insns_call;
  for (const auto& [err, count] : partial.reject_errno) {
    into.reject_errno[err] += count;
  }
  for (const auto& [err, count] : partial.exec_errno) {
    into.exec_errno[err] += count;
  }
  for (const auto& [outcome, count] : partial.outcomes) {
    into.outcomes[outcome] += count;
  }
  into.metamorph_bases += partial.metamorph_bases;
  into.metamorph_variants += partial.metamorph_variants;
  into.metamorph_verdict_divergences += partial.metamorph_verdict_divergences;
  into.metamorph_witness_divergences += partial.metamorph_witness_divergences;
  into.metamorph_sanitizer_divergences += partial.metamorph_sanitizer_divergences;
  into.sanitizer.Add(partial.sanitizer);
  partial = CampaignStats{};
}

// Folds case records (across all shards of one epoch) into the campaign in
// iteration order: findings deduped by signature, corpus growth capped at 512.
void MergeEpochRecords(std::vector<CaseRecord*> records, CampaignStats& stats,
                       std::vector<FuzzCase>& corpus) {
  std::sort(records.begin(), records.end(), [](const CaseRecord* a, const CaseRecord* b) {
    return a->iteration < b->iteration;
  });
  for (CaseRecord* record : records) {
    for (Finding& finding : record->findings) {
      if (stats.finding_signatures.insert(finding.signature).second) {
        stats.findings.push_back(std::move(finding));
      }
    }
    if (record->corpus_candidate && corpus.size() < 512) {
      corpus.push_back(std::move(record->the_case));
    }
  }
}

// Epoch-quantized coverage-curve points: every sample point inside
// (next_iteration .. epoch_end] reports |covered|, the committed count after
// this epoch's merge.
void AppendEpochCurve(CampaignStats& stats, uint64_t next_iteration, uint64_t epoch_end,
                      uint64_t sample_every, size_t covered) {
  if (sample_every == 0) {
    return;
  }
  for (uint64_t m = ((next_iteration + sample_every - 1) / sample_every) * sample_every;
       m <= epoch_end; m += sample_every) {
    stats.curve.push_back(CoveragePoint{m, covered});
  }
}

// Journals what one barrier merged: findings and corpus growth past the
// given marks, then the barrier mark, then fsync.
void JournalBarrier(Journal& journal, const CampaignStats& stats,
                    const std::vector<FuzzCase>& corpus, size_t findings_before,
                    size_t corpus_before, uint64_t epoch_end) {
  for (size_t i = findings_before; i < stats.findings.size(); ++i) {
    std::ostringstream payload;
    serialize::SerializeFinding(payload, stats.findings[i]);
    journal.Append(JournalRecord{JournalRecordType::kFinding, stats.findings[i].iteration,
                                 payload.str()});
  }
  for (size_t i = corpus_before; i < corpus.size(); ++i) {
    std::ostringstream payload;
    serialize::SerializeCase(payload, corpus[i]);
    journal.Append(JournalRecord{JournalRecordType::kCorpusCase, epoch_end, payload.str()});
  }
  journal.Append(JournalRecord{JournalRecordType::kMark, epoch_end + 1, ""});
  journal.Sync();
}

}  // namespace

CampaignStats RunEpochCampaign(const std::string& tool, const CampaignOptions& options,
                               EpochTopology& topology) {
  EpochCampaign campaign;
  campaign.options = options;
  campaign.options.epoch_len = std::max<uint64_t>(1, options.epoch_len);
  const CampaignOptions& opts = campaign.options;
  CampaignStats& stats = campaign.stats;
  std::vector<FuzzCase>& corpus = campaign.corpus;
  stats.tool = tool;
  stats.options = opts;
  const uint64_t epoch_len = opts.epoch_len;

  uint64_t start_iteration = 1;
  std::vector<std::string> coverage_keys;
  if (!opts.resume_path.empty()) {
    CampaignCheckpoint cp;
    std::string error;
    if (LoadCheckpoint(opts.resume_path, &cp, &error) != 0) {
      stats.resume_error = error.empty() ? "checkpoint load failed" : error;
      return stats;
    }
    // Field-wise validation (epoch_len, options hash) before any
    // stats/corpus/coverage state is touched; a rejected resume reports which
    // field mismatched and leaves the campaign untouched.
    const std::string mismatch = ValidateCheckpointCompat(cp, opts, tool);
    if (!mismatch.empty()) {
      stats.resume_error = mismatch;
      return stats;
    }
    stats = std::move(cp.stats);
    stats.options = opts;
    stats.tool = tool;
    corpus = std::move(cp.corpus);
    coverage_keys = std::move(cp.coverage_keys);
    start_iteration = cp.next_iteration;
    stats.resumed_from = start_iteration;
  }
  topology.RestoreCoverage(coverage_keys);

  // Conformance prologue before epoch 0, coordinator-side so it runs exactly
  // once for any job count; workers get its seeds through the corpus
  // snapshot. Resumed campaigns skip it: its findings and corpus seeds are
  // already inside the checkpoint.
  if (opts.resume_path.empty() && !opts.conformance_dir.empty() &&
      !RunConformancePrologue(opts, stats, &corpus)) {
    return stats;
  }

  // Write-ahead journal: every barrier's newly merged findings and corpus
  // growth are appended + fsynced before the epoch is considered done, so a
  // kill between checkpoints cannot lose a recorded finding.
  if (!opts.journal_path.empty()) {
    std::string error;
    if (campaign.journal.Open(opts.journal_path, &error) != 0) {
      stats.resume_error = "journal open failed: " + error;
      return stats;
    }
  }

  const uint64_t sample_every =
      opts.coverage_points > 0 ? std::max<uint64_t>(1, opts.iterations / opts.coverage_points)
                               : 0;
  // A simulated kill is quantized UP to the containing epoch's end: campaign
  // state is only well-defined at barriers.
  uint64_t last_iteration = opts.iterations;
  if (opts.stop_after != 0 && opts.stop_after < last_iteration) {
    last_iteration =
        std::min(last_iteration, ((opts.stop_after - 1) / epoch_len + 1) * epoch_len);
  }

  const std::string fingerprint = FingerprintOptions(opts, tool);
  const auto save_checkpoint = [&](uint64_t next_iteration) {
    CampaignCheckpoint cp;
    cp.next_iteration = next_iteration;
    cp.fingerprint = fingerprint;
    cp.epoch_len = epoch_len;
    cp.corpus = corpus;
    cp.stats = stats;
    cp.stats.final_coverage = topology.CoverageCount();
    cp.coverage_keys = topology.CoverageKeys();
    if (SaveCheckpoint(opts.checkpoint_path, cp) == 0 && campaign.journal.is_open()) {
      // The checkpoint covers everything the journal held; restart it empty.
      campaign.journal.Rotate();
    }
  };

  if (!topology.Start(campaign)) {
    topology.Stop();
    return stats;
  }
  bool finished = true;  // false: aborted or stopped early, no final checkpoint
  std::vector<EpochShardResult*> results;
  for (uint64_t next = start_iteration; next <= last_iteration;) {
    const uint64_t end = std::min(last_iteration, ((next - 1) / epoch_len + 1) * epoch_len);
    results.clear();
    if (!topology.RunEpoch(next, end, results)) {
      finished = false;
      break;
    }

    // ---- Barrier merge (workers parked) ----
    // Order-independent counters, then findings and corpus growth in
    // iteration order across all shards, then the epoch-quantized curve:
    // every sample point inside this epoch reports the committed count after
    // the epoch's merge.
    for (EpochShardResult* result : results) {
      MergeEpochCounters(stats, result->partial);
    }
    const size_t findings_before = stats.findings.size();
    const size_t corpus_before = corpus.size();
    std::vector<CaseRecord*> records;
    for (EpochShardResult* result : results) {
      for (CaseRecord& record : result->records) {
        records.push_back(&record);
      }
    }
    MergeEpochRecords(std::move(records), stats, corpus);
    for (EpochShardResult* result : results) {
      result->records.clear();
    }
    AppendEpochCurve(stats, next, end, sample_every, topology.CoverageCount());

    // Write-ahead order: journal what this barrier merged, fsync, and only
    // then (possibly) checkpoint.
    if (campaign.journal.is_open()) {
      JournalBarrier(campaign.journal, stats, corpus, findings_before, corpus_before, end);
    }
    if (topology.StopRequested()) {
      // Graceful stop: this barrier's state is complete and journaled;
      // checkpoint it and return. Resume continues bit-identically.
      if (!opts.checkpoint_path.empty()) {
        save_checkpoint(end + 1);
      }
      finished = false;
      break;
    }
    if (!opts.checkpoint_path.empty() && opts.checkpoint_every != 0 && end != last_iteration &&
        end / opts.checkpoint_every > (next - 1) / opts.checkpoint_every) {
      save_checkpoint(end + 1);
    }
    next = end + 1;
  }
  topology.Stop();

  stats.final_coverage = topology.CoverageCount();
  if (finished && !opts.checkpoint_path.empty()) {
    save_checkpoint(last_iteration + 1);
  }
  return std::move(stats);
}

}  // namespace bvf
