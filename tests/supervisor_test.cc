// Crash-isolated campaign supervisor (DESIGN.md §12): digest identity with
// the in-process parallel engine, crash/hang recovery mid-epoch, poison-case
// quarantine, SIGTERM graceful stop + resume bit-identity, checkpoint
// interchange with ParallelFuzzer, and the write-ahead journal's no-lost-
// finding guarantee across a hard kill of the coordinator.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/core/journal/journal.h"
#include "src/core/parallel.h"
#include "src/core/serialize.h"
#include "src/core/structured_gen.h"
#include "src/core/supervisor/supervisor.h"

namespace bvf {
namespace {

using bpf::BugConfig;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

CampaignOptions SmallCampaign() {
  CampaignOptions options;
  options.iterations = 240;
  options.seed = 11;
  options.bugs = BugConfig::All();
  options.fault.probability = 0.05;
  options.confirm_runs = 1;
  options.epoch_len = 32;
  options.jobs = 2;
  options.retry_backoff_ms = 1;  // keep recovery tests fast
  return options;
}

CampaignStats RunSupervised(const CampaignOptions& options) {
  StructuredGenerator generator(options.version);
  SupervisedFuzzer fuzzer(generator, options);
  return fuzzer.Run();
}

CampaignStats RunParallel(const CampaignOptions& options) {
  StructuredGenerator generator(options.version);
  ParallelFuzzer fuzzer(generator, options);
  return fuzzer.Run();
}

// ---- Digest-excluded counters agree with the in-process engine ----

TEST(SupervisorCounterTest, MetamorphCountersMatchInProcess) {
  // The metamorph volume counters ride the worker's result frame beside the
  // stats body; they must arrive, and agree with an in-process run.
  CampaignOptions options = SmallCampaign();
  options.metamorph = true;
  const CampaignStats in_process = RunParallel(options);
  const CampaignStats supervised = RunSupervised(options);
  ASSERT_TRUE(supervised.resume_error.empty()) << supervised.resume_error;
  EXPECT_EQ(StatsDigest(supervised), StatsDigest(in_process));
  EXPECT_GT(in_process.metamorph_bases, 0u);
  EXPECT_EQ(supervised.metamorph_bases, in_process.metamorph_bases);
  EXPECT_EQ(supervised.metamorph_variants, in_process.metamorph_variants);
  EXPECT_EQ(supervised.metamorph_verdict_divergences,
            in_process.metamorph_verdict_divergences);
  EXPECT_EQ(supervised.metamorph_witness_divergences,
            in_process.metamorph_witness_divergences);
  EXPECT_EQ(supervised.metamorph_sanitizer_divergences,
            in_process.metamorph_sanitizer_divergences);
  EXPECT_EQ(supervised.exec_runs, in_process.exec_runs);
  EXPECT_EQ(supervised.accepted, in_process.accepted);
}

// ---- Digest identity with the in-process engine ----

TEST(SupervisorDigestTest, MatchesInProcessEngineAcrossJobCounts) {
  const CampaignOptions base = SmallCampaign();
  const std::string in_process = StatsDigest(RunParallel(base));

  for (int jobs : {1, 2, 3}) {
    CampaignOptions options = base;
    options.jobs = jobs;
    const CampaignStats stats = RunSupervised(options);
    EXPECT_TRUE(stats.resume_error.empty()) << stats.resume_error;
    EXPECT_EQ(StatsDigest(stats), in_process) << "jobs=" << jobs;
    EXPECT_EQ(stats.worker_crashes, 0u);
    EXPECT_EQ(stats.worker_restarts, 0u);
  }
}

// ---- Crash recovery ----

TEST(SupervisorCrashTest, Sigkill9MidEpochRetriesToIdenticalDigest) {
  const CampaignOptions base = SmallCampaign();
  const std::string clean = StatsDigest(RunParallel(base));

  const std::string marker = TempPath("supervisor_kill9.marker");
  std::remove(marker.c_str());
  CampaignOptions options = base;
  options.test_crash_at = 50;   // mid-epoch (epoch 2 of 32-iteration epochs)
  options.test_crash_mode = 1;  // SIGKILL, the harshest death
  options.test_crash_marker = marker;  // fire once; the retry runs clean
  const CampaignStats stats = RunSupervised(options);

  EXPECT_TRUE(stats.resume_error.empty()) << stats.resume_error;
  EXPECT_EQ(StatsDigest(stats), clean);
  EXPECT_EQ(stats.worker_crashes, 1u);
  EXPECT_EQ(stats.worker_restarts, 1u);
  EXPECT_EQ(stats.quarantined_cases, 0u);
  EXPECT_EQ(stats.iterations, base.iterations);  // nothing skipped
  // The death is a first-class (digest-excluded) finding with forensics.
  ASSERT_EQ(stats.crash_findings.size(), 1u);
  EXPECT_EQ(stats.crash_findings[0].kind, bpf::ReportKind::kWorkerCrash);
  EXPECT_NE(stats.crash_findings[0].signature.find("signal:9"), std::string::npos)
      << stats.crash_findings[0].signature;
  std::remove(marker.c_str());
}

TEST(SupervisorCrashTest, AbortSignalCarriesWorkerStderrInFinding) {
  const std::string marker = TempPath("supervisor_abort.marker");
  std::remove(marker.c_str());
  CampaignOptions options = SmallCampaign();
  options.test_crash_at = 40;
  options.test_crash_mode = 0;  // SIGABRT (the shape of a sanitizer abort)
  options.test_crash_marker = marker;
  const CampaignStats stats = RunSupervised(options);

  EXPECT_EQ(stats.worker_crashes, 1u);
  ASSERT_EQ(stats.crash_findings.size(), 1u);
  // The injector printed to the worker's stderr before dying; the supervisor
  // must have captured it into the crash finding's details.
  EXPECT_NE(stats.crash_findings[0].details.find("injected failure"), std::string::npos)
      << stats.crash_findings[0].details;
  EXPECT_NE(stats.crash_findings[0].details.find("iteration 40"), std::string::npos)
      << stats.crash_findings[0].details;
  std::remove(marker.c_str());
}

TEST(SupervisorCrashTest, HangedWorkerIsReapedAndRetried) {
  const CampaignOptions base = SmallCampaign();
  const std::string clean = StatsDigest(RunParallel(base));

  const std::string marker = TempPath("supervisor_hang.marker");
  std::remove(marker.c_str());
  CampaignOptions options = base;
  options.test_crash_at = 50;
  options.test_crash_mode = 2;  // hang forever
  options.test_crash_marker = marker;
  options.hang_timeout_ms = 500;
  const CampaignStats stats = RunSupervised(options);

  EXPECT_TRUE(stats.resume_error.empty()) << stats.resume_error;
  EXPECT_EQ(StatsDigest(stats), clean);
  EXPECT_EQ(stats.worker_hangs, 1u);
  EXPECT_EQ(stats.worker_restarts, 1u);
  std::remove(marker.c_str());
}

// ---- Poison-case quarantine ----

TEST(SupervisorQuarantineTest, PersistentCrasherIsQuarantinedAndCampaignDegrades) {
  const std::string quarantine = TempPath("supervisor_poison.bvfq");
  std::remove(quarantine.c_str());
  CampaignOptions options = SmallCampaign();
  options.test_crash_at = 50;
  options.test_crash_mode = 0;
  // No marker: the injected crash fires on EVERY attempt — a poison case.
  options.worker_retries = 2;
  options.quarantine_path = quarantine;
  const CampaignStats stats = RunSupervised(options);

  EXPECT_TRUE(stats.resume_error.empty()) << stats.resume_error;
  EXPECT_EQ(stats.worker_crashes, 2u);  // retried exactly worker_retries times
  EXPECT_EQ(stats.quarantined_cases, 1u);
  EXPECT_EQ(stats.epochs_abandoned, 1u);
  // The poisoned iteration was skipped, everything else ran.
  EXPECT_EQ(stats.iterations, options.iterations - 1);

  // The quarantine file replays: same iteration, the exact in-flight case.
  std::vector<QuarantineRecord> records;
  std::string error;
  ASSERT_EQ(LoadQuarantine(quarantine, &records, &error), 0) << error;
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].iteration, 50u);
  EXPECT_EQ(records[0].attempts, 2);
  EXPECT_EQ(records[0].signal_or_code, SIGABRT);
  EXPECT_FALSE(records[0].the_case.prog.insns.empty());
  std::remove(quarantine.c_str());
}

// ---- SIGTERM graceful stop + resume ----

TEST(SupervisorResumeTest, SigtermMidCampaignThenResumeIsBitIdentical) {
  CampaignOptions base = SmallCampaign();
  base.iterations = 2000;
  const std::string clean = StatsDigest(RunParallel(base));

  const std::string path = TempPath("supervisor_sigterm.bvfcp");
  std::remove(path.c_str());
  CampaignOptions first_leg = base;
  first_leg.checkpoint_path = path;
  first_leg.checkpoint_every = 64;

  // The supervisor restores this disposition when it stops, so a SIGTERM
  // that lands after the campaign has finished is ignored instead of killing
  // the test binary.
  struct sigaction ignore_late = {};
  ignore_late.sa_handler = SIG_IGN;
  struct sigaction old_term = {};
  ASSERT_EQ(::sigaction(SIGTERM, &ignore_late, &old_term), 0);

  // SIGTERM the coordinator (this process) once the campaign's first
  // barrier checkpoint is on disk, i.e. mid-run whatever the throughput; the
  // supervisor's handler finishes the in-flight epoch, checkpoints at the
  // barrier, and returns.
  std::atomic<bool> done{false};
  std::thread killer([&path, &done] {
    while (!done.load() && ::access(path.c_str(), F_OK) != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (!done.load()) {
      ::kill(::getpid(), SIGTERM);
    }
  });
  const CampaignStats partial = RunSupervised(first_leg);
  done.store(true);
  killer.join();
  ::sigaction(SIGTERM, &old_term, nullptr);
  ASSERT_TRUE(partial.resume_error.empty()) << partial.resume_error;

  if (partial.iterations < base.iterations) {
    // The stop landed mid-campaign (the expected case): state is only
    // well-defined at epoch barriers.
    EXPECT_EQ(partial.iterations % base.epoch_len, 0u);
  }

  CampaignOptions second_leg = base;
  second_leg.resume_path = path;
  const CampaignStats full = RunSupervised(second_leg);
  EXPECT_TRUE(full.resume_error.empty()) << full.resume_error;
  EXPECT_EQ(StatsDigest(full), clean);
  std::remove(path.c_str());
}

TEST(SupervisorResumeTest, CheckpointsInterchangeWithInProcessEngine) {
  const CampaignOptions base = SmallCampaign();
  const std::string clean = StatsDigest(RunParallel(base));

  // Supervised first leg (simulated kill), in-process second leg.
  const std::string path = TempPath("supervisor_interchange.bvfcp");
  std::remove(path.c_str());
  CampaignOptions first_leg = base;
  first_leg.stop_after = 100;  // quantized up to epoch end (128)
  first_leg.checkpoint_path = path;
  first_leg.checkpoint_every = 64;
  const CampaignStats partial = RunSupervised(first_leg);
  ASSERT_TRUE(partial.resume_error.empty()) << partial.resume_error;
  EXPECT_EQ(partial.iterations, 128u);

  CampaignOptions second_leg = base;
  second_leg.jobs = 1;
  second_leg.resume_path = path;
  const CampaignStats full = RunParallel(second_leg);
  EXPECT_TRUE(full.resume_error.empty()) << full.resume_error;
  EXPECT_EQ(full.resumed_from, 129u);
  EXPECT_EQ(StatsDigest(full), clean);

  // And the reverse: an in-process checkpoint resumed under supervision.
  std::remove(path.c_str());
  const CampaignStats partial2 = RunParallel(first_leg);
  ASSERT_TRUE(partial2.resume_error.empty()) << partial2.resume_error;
  const CampaignStats full2 = RunSupervised(second_leg);
  EXPECT_TRUE(full2.resume_error.empty()) << full2.resume_error;
  EXPECT_EQ(StatsDigest(full2), clean);
  std::remove(path.c_str());
}

// ---- Write-ahead journal: no recorded finding is lost ----

TEST(SupervisorJournalTest, JournalHoldsEveryMergedFinding) {
  const std::string journal_path = TempPath("supervisor_journal.bvfj");
  std::remove(journal_path.c_str());
  CampaignOptions options = SmallCampaign();
  options.journal_path = journal_path;  // no checkpoint: the journal never rotates
  const CampaignStats stats = RunSupervised(options);
  ASSERT_TRUE(stats.resume_error.empty()) << stats.resume_error;

  std::vector<JournalRecord> records;
  std::string error;
  bool truncated = true;
  ASSERT_EQ(Journal::Replay(journal_path, &records, &error, &truncated), 0) << error;
  EXPECT_FALSE(truncated);

  std::set<std::string> journaled;
  uint64_t marks = 0;
  for (const JournalRecord& record : records) {
    if (record.type == JournalRecordType::kFinding) {
      std::istringstream is(record.payload);
      serialize::Reader reader(is);
      Finding finding;
      serialize::ParseFinding(reader, &finding);
      ASSERT_TRUE(reader.ok()) << reader.error();
      journaled.insert(finding.signature);
    } else if (record.type == JournalRecordType::kMark) {
      ++marks;
    }
  }
  // Exactly one barrier mark per epoch, and exactly the campaign's findings.
  EXPECT_EQ(marks, (options.iterations + options.epoch_len - 1) / options.epoch_len);
  EXPECT_EQ(journaled, stats.finding_signatures);
  std::remove(journal_path.c_str());
}

TEST(SupervisorJournalTest, HardKilledCampaignLosesNoJournaledFinding) {
  // The acceptance experiment: SIGKILL the whole supervised campaign (no
  // graceful stop, no final checkpoint), then prove via journal replay that
  // every finding recorded before the kill is a finding of the uninterrupted
  // run — i.e. nothing the journal promised was lost or invented.
  const std::string journal_path = TempPath("supervisor_kill_journal.bvfj");
  std::remove(journal_path.c_str());
  CampaignOptions options = SmallCampaign();
  options.iterations = 2000;
  options.journal_path = journal_path;

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Coordinator process: run to completion unless killed first.
    const CampaignStats stats = RunSupervised(options);
    ::_exit(stats.resume_error.empty() ? 0 : 1);
  }
  ::usleep(600 * 1000);  // let a few epochs barrier-merge and journal
  ::kill(pid, SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);

  std::vector<JournalRecord> records;
  std::string error;
  bool truncated = false;
  ASSERT_EQ(Journal::Replay(journal_path, &records, &error, &truncated), 0) << error;
  // A torn tail is possible (killed mid-append) and fine; every intact record
  // must check out against the uninterrupted run.
  const CampaignStats full = RunParallel(options);
  uint64_t findings_checked = 0;
  for (const JournalRecord& record : records) {
    if (record.type != JournalRecordType::kFinding) {
      continue;
    }
    std::istringstream is(record.payload);
    serialize::Reader reader(is);
    Finding finding;
    serialize::ParseFinding(reader, &finding);
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(full.finding_signatures.count(finding.signature), 1u)
        << "journaled finding missing from the uninterrupted run: "
        << finding.signature;
    ++findings_checked;
  }
  // The run had ~600ms; at least one barrier must have journaled something
  // (marks always; typically findings too). Guard the test isn't vacuous.
  EXPECT_FALSE(records.empty());
  (void)findings_checked;
  std::remove(journal_path.c_str());
}

}  // namespace
}  // namespace bvf
