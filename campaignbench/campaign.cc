#include "campaign.h"

#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "src/core/checkpoint.h"
#include "src/core/oracle.h"
#include "src/core/parallel.h"
#include "src/core/supervisor/supervisor.h"

namespace campaignbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double HostStealSeconds() {
  FILE* file = fopen("/proc/stat", "r");
  if (file == nullptr) {
    return 0;
  }
  // "cpu  user nice system idle iowait irq softirq steal ...", in clock ticks.
  unsigned long long field[8] = {};
  const int read = fscanf(file, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &field[0],
                          &field[1], &field[2], &field[3], &field[4], &field[5], &field[6],
                          &field[7]);
  fclose(file);
  const long ticks = sysconf(_SC_CLK_TCK);
  return read == 8 && ticks > 0 ? static_cast<double>(field[7]) / static_cast<double>(ticks)
                                : 0;
}

GenLog* GenRecorder::NewLog() {
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(std::make_unique<GenLog>());
  logs_.back()->worker = static_cast<int>(logs_.size()) - 1;
  return logs_.back().get();
}

FirstCallSlot* SharedFirstCallSlot() {
  static FirstCallSlot* slot = [] {
    void* page = mmap(nullptr, sizeof(FirstCallSlot), PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (page == MAP_FAILED) {
      perror("mmap");
      _exit(2);
    }
    return new (page) FirstCallSlot();
  }();
  return slot;
}

BenchGenerator::BenchGenerator(bpf::KernelVersion version, int pin_test_runs,
                               GenRecorder* recorder)
    : version_(version),
      pin_test_runs_(pin_test_runs),
      recorder_(recorder),
      inner_(version) {
  if (recorder_ != nullptr) {
    log_ = recorder_->NewLog();
  }
}

void BenchGenerator::Finish(int64_t start_ns, bool mutate, bvf::FuzzCase& the_case) {
  if (pin_test_runs_ > 0) {
    the_case.test_runs = pin_test_runs_;
  }
  if (log_ != nullptr) {
    log_->spans.push_back(GenSpan{start_ns, NowNs(), mutate});
    log_->cases.push_back(the_case);
  }
}

bvf::FuzzCase BenchGenerator::Generate(bpf::Rng& rng) {
  const int64_t start = NowNs();
  int64_t unset = 0;
  SharedFirstCallSlot()->first_ns.compare_exchange_strong(unset, start);
  bvf::FuzzCase the_case = inner_.Generate(rng);
  Finish(start, /*mutate=*/false, the_case);
  return the_case;
}

void BenchGenerator::Mutate(bpf::Rng& rng, bvf::FuzzCase& the_case) {
  const int64_t start = NowNs();
  int64_t unset = 0;
  SharedFirstCallSlot()->first_ns.compare_exchange_strong(unset, start);
  inner_.Mutate(rng, the_case);
  Finish(start, /*mutate=*/true, the_case);
}

std::unique_ptr<bvf::Generator> BenchGenerator::Clone() const {
  return std::make_unique<BenchGenerator>(version_, pin_test_runs_, recorder_);
}

bool MakeWorkload(const std::string& name, uint64_t seed, uint64_t cases,
                  const std::string& root, const std::string& tmp_dir, Workload* out) {
  Workload w;
  w.name = name;
  bvf::CampaignOptions& o = w.options;
  o.version = bpf::KernelVersion::kBpfNext;
  o.seed = seed;
  o.sanitize = true;
  o.audit_state = true;
  o.coverage_feedback = true;
  o.epoch_len = 64;
  o.interp_engine = bpf::ExecEngine::kDecoded;
  // Campaigns are a few epochs long so that a run covers many of them: a
  // case's cost is heavy-tailed, and rates pooled over many campaigns vary
  // far less from seed to seed than those of a few long ones.
  if (name == "hunt") {
    // The paper campaign: verification-bound, panics force rebuilds. Two
    // workers, not four: on a shared 4-vCPU host, four workers plus the
    // coordinator measured the host's scheduler (workers wait at every
    // barrier for whichever one the host descheduled), and four ran no more
    // cases per second than two.
    o.bugs = bpf::BugConfig::All();
    o.jobs = 2;
    o.iterations = 256;
    w.ref_topology = Topology::kInProcess;
    w.ref_jobs = 1;
  } else if (name == "exec") {
    // Clean kernel, every case pinned to 256 test runs: execution-bound.
    o.bugs = bpf::BugConfig::None();
    o.jobs = 2;
    o.iterations = 128;
    w.pin_test_runs = 256;
    w.ref_topology = Topology::kInProcess;
    w.ref_jobs = 1;
  } else if (name == "assure") {
    // The unattended configuration: every oracle, the conformance prologue,
    // crash-isolated workers, journal and checkpoints.
    o.bugs = bpf::BugConfig::All();
    o.jobs = 2;
    // Longer than the others: each campaign starts in a fresh process
    // (RunCampaignIsolated), and its start-up cost (the conformance prologue
    // and page-faulting the throwaway substrates' memory in) took about 40%
    // of a 256-case campaign's wall time.
    o.iterations = 1024;
    o.metamorph = true;
    o.metamorph_k = 2;
    o.jit_oracle = true;
    o.conformance_dir = root + "/tests/data/conformance";
    o.journal_path = tmp_dir + "/assure.journal";
    o.checkpoint_path = tmp_dir + "/assure.ckpt";
    o.checkpoint_every = 4 * o.epoch_len;
    w.topology = Topology::kSupervised;
    w.ref_topology = Topology::kInProcess;
    w.ref_jobs = 2;
  } else {
    return false;
  }
  if (cases != 0) {
    o.iterations = cases;
  }
  *out = std::move(w);
  return true;
}

namespace {

double CpuSeconds() {
  double total = 0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    struct rusage usage {};
    getrusage(who, &usage);
    total += static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
  }
  return total;
}

const struct {
  const char* name;
  uint64_t bvf::CampaignStats::*field;
} kAgreement[kAgreementCounters] = {
    {"exec_runs", &bvf::CampaignStats::exec_runs},
    {"accepted", &bvf::CampaignStats::accepted},
    {"metamorph_bases", &bvf::CampaignStats::metamorph_bases},
    {"metamorph_variants", &bvf::CampaignStats::metamorph_variants},
    {"metamorph_verdict_divergences", &bvf::CampaignStats::metamorph_verdict_divergences},
    {"decode_cache_hits", &bvf::CampaignStats::decode_cache_hits},
    {"decode_cache_misses", &bvf::CampaignStats::decode_cache_misses},
    {"decode_cache_evictions", &bvf::CampaignStats::decode_cache_evictions},
    {"jit_cache_hits", &bvf::CampaignStats::jit_cache_hits},
    {"conf_cases", &bvf::CampaignStats::conf_cases},
    {"conf_passed", &bvf::CampaignStats::conf_passed},
    {"worker_restarts", &bvf::CampaignStats::worker_restarts},
};

int BugsFound(const bvf::CampaignStats& stats) {
  int found = 0;
  for (int bug = static_cast<int>(bvf::KnownBug::kBug1NullnessPropagation);
       bug <= static_cast<int>(bvf::KnownBug::kBug13LdImm64Pessimize); ++bug) {
    found += stats.FoundBug(static_cast<bvf::KnownBug>(bug)) ? 1 : 0;
  }
  return found;
}

double PeakRssMb(int who) {
  struct rusage usage {};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace

CampaignRun RunCampaign(const Workload& workload, Topology topology, int jobs,
                        GenRecorder* recorder, bvf::CampaignStats* stats) {
  bvf::CampaignOptions options = workload.options;
  options.jobs = jobs;
  // Journal and checkpoint start from nothing on every run.
  if (!options.journal_path.empty()) {
    unlink(options.journal_path.c_str());
  }
  if (!options.checkpoint_path.empty()) {
    unlink(options.checkpoint_path.c_str());
  }
  BenchGenerator generator(options.version, workload.pin_test_runs, recorder);
  FirstCallSlot* slot = SharedFirstCallSlot();
  slot->first_ns.store(0);

  bvf::CampaignStats s;
  const double cpu_before = CpuSeconds();
  const double steal_before = HostStealSeconds();
  const int64_t start = NowNs();
  if (topology == Topology::kSupervised) {
    bvf::SupervisedFuzzer fuzzer(generator, options);
    s = fuzzer.Run();
  } else {
    bvf::ParallelFuzzer fuzzer(generator, options);
    s = fuzzer.Run();
  }
  const int64_t end = NowNs();
  const double steal_after = HostStealSeconds();

  CampaignRun run;
  run.completed = true;
  run.cpu_s = CpuSeconds() - cpu_before;
  run.steal_s = steal_after - steal_before;
  run.wall_s = 1e-9 * static_cast<double>(end - start);
  const int64_t first = slot->first_ns.load();
  run.setup_s = first == 0 ? run.wall_s : 1e-9 * static_cast<double>(first - start);
  run.iterations = s.iterations;
  run.accepted = s.accepted;
  run.rejected = s.rejected;
  run.exec_runs = s.exec_runs;
  const auto unclassified = s.outcomes.find(bvf::CaseOutcome::kUnclassified);
  run.unclassified = unclassified == s.outcomes.end() ? 0 : unclassified->second;
  for (const auto& [outcome, count] : s.outcomes) {
    run.outcome_sum += count;
  }
  run.quarantined = s.quarantined_cases;
  run.conf_passed = s.conf_passed;
  run.conf_cases = s.conf_cases;
  run.bugs_found = BugsFound(s);
  snprintf(run.digest, sizeof(run.digest), "%s", bvf::StatsDigest(s).c_str());
  snprintf(run.engine_error, sizeof(run.engine_error), "%s", s.resume_error.c_str());
  for (int i = 0; i < kAgreementCounters; ++i) {
    run.agreement[i] = s.*kAgreement[i].field;
  }
  if (stats != nullptr) {
    *stats = std::move(s);
  }
  return run;
}

CampaignRun RunCampaignIsolated(const Workload& workload, Topology topology, int jobs) {
  static CampaignRun* shared = [] {
    void* page = mmap(nullptr, sizeof(CampaignRun), PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (page == MAP_FAILED) {
      perror("mmap");
      _exit(2);
    }
    return static_cast<CampaignRun*>(page);
  }();
  *shared = CampaignRun{};
  fflush(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    perror("fork");
    return CampaignRun{};
  }
  if (pid == 0) {
    // Die with the benchmark process, even when it is killed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) {
      _exit(1);
    }
    CampaignRun run = RunCampaign(workload, topology, jobs, nullptr);
    run.peak_rss_mb = PeakRssMb(RUSAGE_SELF);
    if (topology == Topology::kSupervised) {
      // A sum of per-process peaks: this coordinator plus |jobs| workers,
      // each charged the largest reaped worker's peak.
      run.peak_rss_mb += static_cast<double>(jobs) * PeakRssMb(RUSAGE_CHILDREN);
    }
    *shared = run;
    _exit(0);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    fprintf(stderr, "campaignbench: campaign %" PRIu64 " process ended with status 0x%x\n",
            workload.options.seed, status);
    return CampaignRun{};
  }
  return *shared;
}

bool CheckRun(const std::string& label, const CampaignRun& run, const CampaignRun* ref,
              const std::string& expected_digest, uint64_t cases, CheckList& checks) {
  char detail[256];
  bool ok = true;
  const auto add = [&](const char* name, bool pass) {
    checks.Add(label + "." + name, pass, detail);
    ok = ok && pass;
  };
  detail[0] = '\0';
  add("completed", run.completed);
  if (!expected_digest.empty()) {
    snprintf(detail, sizeof(detail), "%s vs %s", run.digest, expected_digest.c_str());
    add("digest_stable", run.digest == expected_digest);
  }
  if (ref != nullptr) {
    snprintf(detail, sizeof(detail), "%s vs reference %s", run.digest, ref->digest);
    add("digest_reference", ref->completed && strcmp(run.digest, ref->digest) == 0);
    snprintf(detail, sizeof(detail), "%d vs reference %d", run.bugs_found, ref->bugs_found);
    add("bugs_found_reference", ref->completed && run.bugs_found == ref->bugs_found);
  }
  snprintf(detail, sizeof(detail), "%" PRIu64, run.unclassified);
  add("zero_unclassified", run.unclassified == 0);
  snprintf(detail, sizeof(detail), "%" PRIu64 " of %" PRIu64, run.outcome_sum, cases);
  add("outcomes_sum", run.outcome_sum == cases && run.iterations == cases);
  snprintf(detail, sizeof(detail), "%s", run.engine_error);
  add("no_engine_error", run.engine_error[0] == '\0');
  return ok;
}

int ReportCounterAgreement(const CampaignRun& inproc, const CampaignRun& supervised) {
  int mismatches = 0;
  for (int i = 0; i < kAgreementCounters; ++i) {
    const uint64_t a = inproc.agreement[i];
    const uint64_t b = supervised.agreement[i];
    mismatches += a == b ? 0 : 1;
    printf("agree %-30s inproc=%-8" PRIu64 " supervised=%-8" PRIu64 " %s\n",
           kAgreement[i].name, a, b, a == b ? "ok" : "MISMATCH");
  }
  printf("agree %d counter mismatch(es) between supervised and in-process (not gated)\n",
         mismatches);
  return mismatches;
}

}  // namespace campaignbench
