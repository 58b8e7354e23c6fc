// Campaign side of the benchmark: the three workloads, the generator
// decorator every campaign runs through, and one timed campaign run.
//
// The library under test only ever sees generated cases: a workload is a
// CampaignOptions plus a BenchGenerator around StructuredGenerator, built
// from the workload name and the run's seed.

#ifndef CAMPAIGNBENCH_CAMPAIGN_H_
#define CAMPAIGNBENCH_CAMPAIGN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/fuzzer.h"
#include "src/core/generator.h"
#include "src/core/structured_gen.h"
#include "stats_util.h"

namespace campaignbench {

int64_t NowNs();

// One generator call as seen by the recording decorator.
struct GenSpan {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool mutate = false;
};

// Everything one generator instance (one campaign worker) produced, in call
// order. Worker 0 is the prototype; worker k is the k-th Clone().
struct GenLog {
  int worker = 0;
  std::vector<GenSpan> spans;
  std::vector<bvf::FuzzCase> cases;
};

// Shared by a prototype and its clones. Each instance appends only to its
// own log, so recording takes no lock on the hot path.
class GenRecorder {
 public:
  GenLog* NewLog();
  const std::vector<std::unique_ptr<GenLog>>& logs() const { return logs_; }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<GenLog>> logs_;
};

// Timestamp of the first generator call of a campaign, in a MAP_SHARED page
// so supervised worker processes (forked children) can write it too.
struct FirstCallSlot {
  std::atomic<int64_t> first_ns{0};
};
FirstCallSlot* SharedFirstCallSlot();

// The decorator: pins every case's test-run count (when |pin_test_runs| > 0),
// stamps the first call, and optionally records spans and cases.
class BenchGenerator : public bvf::Generator {
 public:
  BenchGenerator(bpf::KernelVersion version, int pin_test_runs, GenRecorder* recorder);

  // The wrapped generator's name: it is part of the campaign fingerprint.
  const char* name() const override { return "bvf"; }
  bvf::FuzzCase Generate(bpf::Rng& rng) override;
  void Mutate(bpf::Rng& rng, bvf::FuzzCase& the_case) override;
  std::unique_ptr<bvf::Generator> Clone() const override;

 private:
  void Finish(int64_t start_ns, bool mutate, bvf::FuzzCase& the_case);

  bpf::KernelVersion version_;
  int pin_test_runs_;
  GenRecorder* recorder_;
  GenLog* log_ = nullptr;
  bvf::StructuredGenerator inner_;
};

enum class Topology { kInProcess, kSupervised };

struct Workload {
  std::string name;
  bvf::CampaignOptions options;  // iterations, seed and jobs filled in
  Topology topology = Topology::kInProcess;
  int pin_test_runs = 0;         // 0 = the generator's own choice
  // Reference run at another topology whose digest must match.
  Topology ref_topology = Topology::kInProcess;
  int ref_jobs = 1;
};

// Time the hypervisor kept this machine's CPUs from running while they had
// work, summed over all CPUs (the steal column of /proc/stat), in seconds; 0
// where the kernel does not report it.
double HostStealSeconds();

// Campaign seed of the |k|-th campaign of a run with seed |seed|.
inline uint64_t SubSeed(uint64_t seed, int k) { return seed * 1000 + static_cast<uint64_t>(k); }

// Builds workload |name| with campaign seed |seed|. |root| is the checkout
// root (for the conformance corpus); |tmp_dir| is a private directory for the
// journal and checkpoint. |cases| = 0 selects the workload's standard case
// count. Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, uint64_t cases,
                  const std::string& root, const std::string& tmp_dir, Workload* out);

// Counters the supervised and in-process engines should agree on
// (digest-excluded, so the digest checks cannot see them).
constexpr int kAgreementCounters = 12;

// What the checks and metrics take from one campaign. Plain data, so that a
// campaign run in a forked child can hand it back through shared memory.
struct CampaignRun {
  bool completed = false;  // false when the campaign's process died
  uint64_t iterations = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t exec_runs = 0;
  uint64_t unclassified = 0;
  uint64_t outcome_sum = 0;  // sum of the outcome histogram
  uint64_t quarantined = 0;
  uint64_t conf_passed = 0;
  uint64_t conf_cases = 0;
  int bugs_found = 0;  // distinct Table-2 root causes (KnownBug) found
  char digest[24] = {};
  char engine_error[128] = {};  // CampaignStats::resume_error
  uint64_t agreement[kAgreementCounters] = {};
  double wall_s = 0;       // engine construction to Run() return
  double setup_s = 0;      // engine construction to the first generator call
  double cpu_s = 0;        // user+sys of the process and its reaped children
  double steal_s = 0;      // hypervisor steal time, summed over all CPUs (HostStealSeconds)
  double peak_rss_mb = 0;  // set by RunCampaignIsolated only
};

// Runs one campaign of |workload| at |topology| with |jobs| workers in this
// process. With |stats| non-null, also returns the campaign's full stats.
CampaignRun RunCampaign(const Workload& workload, Topology topology, int jobs,
                        GenRecorder* recorder, bvf::CampaignStats* stats = nullptr);

// RunCampaign in a forked child that starts from this process's state, so
// every campaign of a run sees the same allocator, cache and coverage history
// (that of a freshly started campaign) and its peak memory is its own:
// peak_rss_mb is the child's peak, plus |jobs| times its largest worker's on
// the supervised topology. Returns a run with completed = false, after
// printing why, when the child did not exit cleanly.
CampaignRun RunCampaignIsolated(const Workload& workload, Topology topology, int jobs);

// The output checks of one campaign: the campaign completed with zero
// kUnclassified, an outcome histogram summing to |cases| and no engine error;
// with a reference run at another topology, digest and bugs_found equal to
// the reference's; with a non-empty |expected_digest| (a repeat of the same
// campaign), digest equal to it. Returns false when any check fails.
bool CheckRun(const std::string& label, const CampaignRun& run, const CampaignRun* ref,
              const std::string& expected_digest, uint64_t cases, CheckList& checks);

// Prints the agreement counters of an in-process and a supervised run of the
// same campaign and returns the number that differ. Reported, never gated.
int ReportCounterAgreement(const CampaignRun& inproc, const CampaignRun& supervised);

}  // namespace campaignbench

#endif  // CAMPAIGNBENCH_CAMPAIGN_H_
