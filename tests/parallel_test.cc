// Parallel sharded campaign engine (DESIGN.md §9): job-count invariance of
// findings / outcome histograms / coverage / StatsDigest, cross-job-count
// checkpoint resume, the digest-keyed verdict cache's digest-invisibility
// (in-process and in supervised worker processes), and thread safety of the
// global coverage registry.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/core/parallel.h"
#include "src/core/structured_gen.h"
#include "src/core/supervisor/supervisor.h"
#include "src/ebpf/insn.h"
#include "src/kernel/coverage.h"
#include "src/kernel/fault_inject.h"

namespace bvf {
namespace {

using bpf::BugConfig;
using bpf::Coverage;

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
  return options;
}

CampaignStats RunParallel(const CampaignOptions& options) {
  StructuredGenerator generator(options.version);
  ParallelFuzzer fuzzer(generator, options);
  return fuzzer.Run();
}

// Signature+iteration pairs identify the finding set independent of digests.
std::vector<std::pair<std::string, uint64_t>> FindingKeys(const CampaignStats& stats) {
  std::vector<std::pair<std::string, uint64_t>> keys;
  for (const Finding& finding : stats.findings) {
    keys.emplace_back(finding.signature, finding.iteration);
  }
  return keys;
}

std::set<std::string> CoverageKeySet() {
  const std::vector<std::string> keys = Coverage::Get().SerializeHitKeys();
  return std::set<std::string>(keys.begin(), keys.end());
}

// ---- CaseSeed ----

TEST(CaseSeedTest, DecorrelatedFromFaultSeedAndSpread) {
  // Different iterations give different seeds, and the stream is not the
  // fault-schedule stream (a correlated pair would couple generation
  // randomness to fault decisions).
  std::set<uint64_t> seen;
  for (uint64_t i = 1; i <= 1000; ++i) {
    const uint64_t s = CaseSeed(42, i);
    EXPECT_NE(s, bpf::FaultSeed(42, i));
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 1000u);
}

// ---- Job-count invariance ----

TEST(ParallelInvarianceTest, FourJobsMatchOneJobBitForBit) {
  CampaignOptions options = SmallCampaign();

  options.jobs = 1;
  const CampaignStats one = RunParallel(options);
  const std::set<std::string> one_coverage = CoverageKeySet();

  options.jobs = 4;
  const CampaignStats four = RunParallel(options);
  const std::set<std::string> four_coverage = CoverageKeySet();

  EXPECT_EQ(StatsDigest(one), StatsDigest(four));
  EXPECT_EQ(FindingKeys(one), FindingKeys(four));
  EXPECT_EQ(one.outcomes, four.outcomes);
  EXPECT_EQ(one.exec_errno, four.exec_errno);
  EXPECT_EQ(one.reject_errno, four.reject_errno);
  EXPECT_EQ(one.final_coverage, four.final_coverage);
  EXPECT_EQ(one_coverage, four_coverage);
  EXPECT_EQ(one.fault_injected, four.fault_injected);
  EXPECT_EQ(one.panics, four.panics);
  EXPECT_EQ(one.substrate_rebuilds, four.substrate_rebuilds);
  // Both ran real campaigns.
  EXPECT_EQ(one.iterations, options.iterations);
  EXPECT_GT(one.accepted, 0u);
  EXPECT_FALSE(one.findings.empty());
  // Confirmation verdicts survive the merge identically.
  for (size_t i = 0; i < one.findings.size(); ++i) {
    EXPECT_EQ(one.findings[i].confirmation, four.findings[i].confirmation);
  }
}

TEST(ParallelInvarianceTest, OddJobCountAndShortFinalEpoch) {
  // 240 is not a multiple of 3*32; exercises uneven worker strides and the
  // short final epoch path.
  CampaignOptions options = SmallCampaign();
  options.iterations = 230;  // not a multiple of epoch_len
  options.jobs = 3;
  const CampaignStats three = RunParallel(options);
  options.jobs = 1;
  const CampaignStats one = RunParallel(options);
  EXPECT_EQ(StatsDigest(one), StatsDigest(three));
  EXPECT_EQ(one.iterations, 230u);
}

TEST(ParallelInvarianceTest, EpochLengthIsSemantics) {
  // Changing jobs must not change results; changing epoch_len may (it moves
  // the snapshot barriers). Since checkpoint v2 the engine and epoch length
  // are structured checkpoint fields, validated field-wise on load and resume
  // — guard that each mismatching field is rejected by name.
  CampaignOptions options = SmallCampaign();
  CampaignCheckpoint cp;
  cp.fingerprint = FingerprintOptions(options, "bvf");
  cp.engine = kEngineParallel;
  cp.epoch_len = options.epoch_len;
  EXPECT_EQ(ValidateCheckpointCompat(cp, options, "bvf"), "");

  // jobs is not semantics: any job count resumes the same checkpoint.
  options.jobs = 8;
  EXPECT_EQ(ValidateCheckpointCompat(cp, options, "bvf"), "");

  // epoch_len is semantics: the mismatch is rejected, by name.
  options.epoch_len = 64;
  const std::string epoch_mismatch = ValidateCheckpointCompat(cp, options, "bvf");
  EXPECT_NE(epoch_mismatch.find("epoch_len"), std::string::npos) << epoch_mismatch;
  options.epoch_len = cp.epoch_len;

  // The engine tag is checked at load: a file written by the removed serial
  // engine is refused, by name.
  const std::string path = TempPath("engine_axis.bvfcp");
  CampaignCheckpoint serial = cp;
  serial.engine = "serial";
  ASSERT_EQ(SaveCheckpoint(path, serial), 0);
  CampaignCheckpoint loaded;
  std::string engine_error;
  EXPECT_NE(LoadCheckpoint(path, &loaded, &engine_error), 0);
  EXPECT_NE(engine_error.find("engine"), std::string::npos) << engine_error;
  std::remove(path.c_str());

  // Options-fingerprint mismatch is the third named axis.
  options.seed += 1;
  const std::string options_mismatch = ValidateCheckpointCompat(cp, options, "bvf");
  EXPECT_NE(options_mismatch.find("fingerprint"), std::string::npos) << options_mismatch;
}

// ---- Checkpoint / resume across job counts ----

TEST(ParallelResumeTest, FourJobCheckpointResumesBitIdenticallyAtOneJob) {
  CampaignOptions options = SmallCampaign();

  options.jobs = 2;
  const CampaignStats full = RunParallel(options);

  // Simulated kill mid-run at 8 jobs; stop_after is quantized up to the
  // containing epoch's end (100 -> 128 with epoch_len 32).
  const std::string path = TempPath("parallel_resume.bvfcp");
  CampaignOptions first_leg = options;
  first_leg.jobs = 4;
  first_leg.stop_after = 100;
  first_leg.checkpoint_path = path;
  first_leg.checkpoint_every = 64;
  const CampaignStats partial = RunParallel(first_leg);
  EXPECT_EQ(partial.iterations, 128u);

  CampaignOptions second_leg = options;
  second_leg.jobs = 1;
  second_leg.resume_path = path;
  const CampaignStats continued = RunParallel(second_leg);

  EXPECT_TRUE(continued.resume_error.empty()) << continued.resume_error;
  EXPECT_EQ(continued.resumed_from, 129u);
  EXPECT_EQ(continued.iterations, options.iterations);
  EXPECT_EQ(StatsDigest(continued), StatsDigest(full));
  EXPECT_EQ(FindingKeys(continued), FindingKeys(full));
  EXPECT_EQ(continued.final_coverage, full.final_coverage);
  std::remove(path.c_str());
}

TEST(ParallelResumeTest, SerialCheckpointIsRejected) {
  // Checkpoints tagged engine=serial came from the removed single-stream
  // engine, whose RNG position has no meaning for per-iteration seeds. A
  // hand-saved one must be refused by name before any iteration runs.
  CampaignOptions options = SmallCampaign();
  options.confirm_runs = 0;
  const std::string path = TempPath("serial_for_parallel.bvfcp");
  CampaignCheckpoint cp;
  cp.next_iteration = 65;
  cp.fingerprint = FingerprintOptions(options, "bvf");
  cp.engine = "serial";
  cp.epoch_len = 0;
  cp.stats.tool = "bvf";
  ASSERT_EQ(SaveCheckpoint(path, cp), 0);

  CampaignOptions resume_leg = options;
  resume_leg.resume_path = path;
  const CampaignStats rejected = RunParallel(resume_leg);
  EXPECT_NE(rejected.resume_error.find("engine"), std::string::npos)
      << rejected.resume_error;
  EXPECT_EQ(rejected.iterations, 0u);
  std::remove(path.c_str());
}

// ---- Coverage registry thread safety ----

TEST(CoverageThreadingTest, ConcurrentGlobalHitsCountEachSiteOnce) {
  Coverage& cov = Coverage::Get();
  const int base = cov.RegisterGroup(__FILE__, __LINE__, 64);
  cov.ResetHits();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 1000; ++round) {
        for (int i = 0; i < 64; ++i) {
          cov.Hit(base + i);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(cov.hit_count(), 64u);
  cov.ResetHits();
}

TEST(CoverageThreadingTest, SinksIsolateWorkersUntilCommit) {
  Coverage& cov = Coverage::Get();
  const int base = cov.RegisterGroup(__FILE__, __LINE__, 8);
  cov.ResetHits();

  bpf::CoverageSink sink;
  bpf::CoverageSink* previous = Coverage::InstallThreadSink(&sink);
  sink.BeginCase();
  cov.Hit(base);
  cov.Hit(base + 1);
  cov.Hit(base);  // duplicate
  EXPECT_EQ(sink.NewSinceCase(), 2u);
  EXPECT_EQ(cov.hit_count(), 0u);  // nothing committed yet

  EXPECT_EQ(cov.Commit(sink), 2u);
  EXPECT_EQ(cov.hit_count(), 2u);
  EXPECT_TRUE(cov.Committed(base));

  // After commit, the same sites are no longer case-novel.
  sink.BeginCase();
  cov.Hit(base);
  EXPECT_EQ(sink.NewSinceCase(), 0u);

  Coverage::InstallThreadSink(previous);
  cov.ResetHits();
}

}  // namespace
}  // namespace bvf
