// Coordinator half of the crash-isolated supervisor (DESIGN.md §12).
//
// The coordinator owns all campaign state (stats, corpus, committed coverage
// keys, finding signatures) and never executes a fuzz case itself; workers are
// fork()ed, stream heartbeats + results back over pipes, and are re-forked
// when they die. This file is the process topology of the shared epoch
// coordinator (src/core/epoch.cc): the campaign loop and the barrier merge
// run there, over parsed frames instead of in-memory shard results — which is
// the whole digest-identity argument.

#include "src/core/supervisor/supervisor.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/epoch.h"
#include "src/core/journal/journal.h"
#include "src/core/serialize.h"
#include "src/core/supervisor/wire.h"
#include "src/kernel/report.h"

namespace bvf {

namespace {

using supervisor::Frame;
using supervisor::MsgType;
using supervisor::ReadFrame;
using supervisor::WriteFrame;

volatile sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Coordinator-side view of one worker process (one shard).
struct WorkerProc {
  pid_t pid = -1;
  int cmd_fd = -1;  // coordinator → worker
  int res_fd = -1;  // worker → coordinator
  std::string stderr_path;
  // State-sync high-water marks: how much of the coordinator's corpus /
  // signature / coverage-key history this worker process has been sent.
  // Zeroed on every re-fork, which turns the next epoch command into a full
  // snapshot — exactly the frozen epoch-start state a fresh thread would see.
  size_t sent_corpus = 0;
  size_t sent_sigs = 0;
  size_t sent_keys = 0;
  // Per-epoch collection state.
  bool result_done = false;
  EpochShardResult out;
  std::vector<std::string> result_keys;
  // Failure forensics.
  int consecutive_failures = 0;
  bool inflight_valid = false;
  uint64_t inflight_iteration = 0;
  FuzzCase inflight_case;
  int64_t last_heard_ms = 0;
};

void CloseFd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

// Last |max_bytes| of the worker's captured stderr, for the crash finding.
std::string StderrTail(const std::string& path, size_t max_bytes = 4096) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    return "";
  }
  is.seekg(0, std::ios::end);
  const std::streamoff size = is.tellg();
  const std::streamoff start = size > static_cast<std::streamoff>(max_bytes)
                                   ? size - static_cast<std::streamoff>(max_bytes)
                                   : 0;
  is.seekg(start);
  std::string tail(static_cast<size_t>(size - start), '\0');
  is.read(tail.data(), static_cast<std::streamsize>(tail.size()));
  tail.resize(static_cast<size_t>(is.gcount()));
  return tail;
}

bool ParseResultPayload(const std::string& payload, WorkerProc* w) {
  std::istringstream is(payload);
  serialize::Reader reader(is);
  reader.Fields("result", 2);
  serialize::ParseStats(reader, &w->out.partial);
  serialize::ParseExcludedCounters(reader, &w->out.partial);
  const uint64_t nrecords = reader.Count("records");
  for (uint64_t i = 0; i < nrecords && reader.ok(); ++i) {
    const std::vector<int64_t> fields = reader.Fields("r", 3);
    CaseRecord record;
    record.iteration = static_cast<uint64_t>(fields[0]);
    record.corpus_candidate = fields[1] != 0;
    if (record.corpus_candidate) {
      serialize::ParseCase(reader, &record.the_case);
    }
    for (int64_t f = 0; f < fields[2] && reader.ok(); ++f) {
      Finding finding;
      serialize::ParseFinding(reader, &finding);
      record.findings.push_back(std::move(finding));
    }
    w->out.records.push_back(std::move(record));
  }
  for (uint64_t i = 0, n = reader.Count("covkeys"); i < n && reader.ok(); ++i) {
    w->result_keys.push_back(serialize::Unescape(reader.Line("k")));
  }
  reader.Line("end");
  return reader.ok();
}

// Serializes one quarantine record in the quarantine-file grammar (also the
// journal kQuarantine payload).
std::string SerializeQuarantine(const QuarantineRecord& record) {
  std::ostringstream os;
  os << "quarantine " << record.iteration << " " << record.attempts << " "
     << record.signal_or_code << "\n";
  serialize::SerializeCase(os, record.the_case);
  os << "end\n";
  return os.str();
}

// Durably appends one record to the quarantine file.
int AppendQuarantineRecord(const std::string& path, const QuarantineRecord& record) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return -errno;
  }
  const std::string text = SerializeQuarantine(record);
  size_t written = 0;
  while (written < text.size()) {
    const ssize_t n = ::write(fd, text.data() + written, text.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      const int err = -errno;
      ::close(fd);
      return err;
    }
    written += static_cast<size_t>(n);
  }
  ::fsync(fd);
  ::close(fd);
  return 0;
}

// Worker processes, one per shard, and the coordinator's committed coverage
// key set with per-worker send marks. The coordinator never executes
// instrumented code, so this key set — not the global registry — is the
// campaign's committed coverage; workers rebuild their local registries from
// these keys on every (re)fork.
class ProcessTopology : public EpochTopology {
 public:
  explicit ProcessTopology(Generator& generator) : generator_(generator) {}
  ~ProcessTopology() override { Stop(); }

  void RestoreCoverage(const std::vector<std::string>& keys) override {
    cov_set_.clear();
    cov_vec_.clear();
    for (const std::string& key : keys) {
      AddCoverageKey(bpf::Coverage::StableKey(key));  // older checkpoints: absolute keys
    }
  }
  size_t CoverageCount() const override { return cov_set_.size(); }
  std::vector<std::string> CoverageKeys() const override { return cov_vec_; }

  bool Start(EpochCampaign& campaign) override {
    campaign_ = &campaign;
    const CampaignOptions& options = campaign.options;
    jobs_ = std::max(1, options.jobs);
    worker_retries_ = std::max(1, options.worker_retries);
    // Runs after the conformance prologue, so workers dedup against its
    // findings too.
    sigs_vec_.assign(campaign.stats.finding_signatures.begin(),
                     campaign.stats.finding_signatures.end());
    findings_seen_ = campaign.stats.findings.size();

    // Signal plumbing: SIGTERM/SIGINT request a graceful stop at the next
    // barrier; SIGPIPE (a worker dying mid-frame) must not kill the
    // coordinator — the write error is handled as a worker failure.
    struct sigaction stop_action;
    std::memset(&stop_action, 0, sizeof(stop_action));
    stop_action.sa_handler = HandleStopSignal;
    struct sigaction ignore_pipe;
    std::memset(&ignore_pipe, 0, sizeof(ignore_pipe));
    ignore_pipe.sa_handler = SIG_IGN;
    ::sigaction(SIGTERM, &stop_action, &old_term_);
    ::sigaction(SIGINT, &stop_action, &old_int_);
    ::sigaction(SIGPIPE, &ignore_pipe, &old_pipe_);
    signals_installed_ = true;
    g_stop_requested = 0;

    workers_.resize(static_cast<size_t>(jobs_));
    for (WorkerProc& w : workers_) {
      const int rc = SpawnWorker(w);
      if (rc != 0) {
        campaign.stats.resume_error =
            std::string("supervisor: cannot spawn worker: ") + std::strerror(-rc);
        return false;
      }
    }
    return true;
  }

  bool RunEpoch(uint64_t start, uint64_t end, std::vector<EpochShardResult*>& results) override {
    const CampaignStats& stats = campaign_->stats;
    for (; findings_seen_ < stats.findings.size(); ++findings_seen_) {
      sigs_vec_.push_back(stats.findings[findings_seen_].signature);
    }
    EpochAttempt epoch{start, end, {}, false};
    for (WorkerProc& w : workers_) {
      w.result_done = false;
      w.out = EpochShardResult{};
      w.result_keys.clear();
      w.inflight_valid = false;
    }
    for (int i = 0; i < jobs_; ++i) {
      // A dead pipe at send time is a worker failure; the collect loop below
      // notices the closed result pipe and runs the retry path.
      SendEpoch(workers_[static_cast<size_t>(i)], i, epoch);
    }
    if (!Collect(epoch)) {
      return false;
    }
    for (WorkerProc& w : workers_) {
      for (const std::string& key : w.result_keys) {
        AddCoverageKey(key);
      }
      w.result_keys.clear();
      results.push_back(&w.out);
    }
    return true;
  }

  bool StopRequested() const override { return g_stop_requested != 0; }

  void Stop() override {
    ShutdownWorkers();
    if (signals_installed_) {
      ::sigaction(SIGTERM, &old_term_, nullptr);
      ::sigaction(SIGINT, &old_int_, nullptr);
      ::sigaction(SIGPIPE, &old_pipe_, nullptr);
      signals_installed_ = false;
    }
  }

 private:
  // One epoch's range plus the poison iterations quarantined during it; the
  // re-run shard skips them. Persisting across retries of the epoch is what
  // guarantees progress: every quarantine strictly shrinks the work left to
  // fail.
  struct EpochAttempt {
    uint64_t start;
    uint64_t end;
    std::set<uint64_t> skip;
    bool abandoned_counted;
  };

  void AddCoverageKey(const std::string& key) {
    if (cov_set_.insert(key).second) {
      cov_vec_.push_back(key);
    }
  }

  int SpawnWorker(WorkerProc& w) {
    int cmd[2] = {-1, -1};
    int res[2] = {-1, -1};
    if (::pipe(cmd) != 0) {
      return -errno;
    }
    if (::pipe(res) != 0) {
      const int err = -errno;
      ::close(cmd[0]);
      ::close(cmd[1]);
      return err;
    }
    char stderr_tmpl[] = "/tmp/bvf-worker-stderr-XXXXXX";
    const int stderr_fd = ::mkstemp(stderr_tmpl);
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      const int err = -errno;
      ::close(cmd[0]);
      ::close(cmd[1]);
      ::close(res[0]);
      ::close(res[1]);
      if (stderr_fd >= 0) {
        ::close(stderr_fd);
        ::unlink(stderr_tmpl);
      }
      return err;
    }
    if (pid == 0) {
      // Worker process. Drop every coordinator-owned fd (including the other
      // workers' pipe ends inherited through fork), capture stderr, reset
      // signal dispositions, and die with the coordinator.
      ::close(cmd[1]);
      ::close(res[0]);
      for (const WorkerProc& other : workers_) {
        if (other.cmd_fd >= 0) {
          ::close(other.cmd_fd);
        }
        if (other.res_fd >= 0) {
          ::close(other.res_fd);
        }
      }
      if (stderr_fd >= 0) {
        ::dup2(stderr_fd, 2);
        ::close(stderr_fd);
      }
      ::signal(SIGTERM, SIG_DFL);
      ::signal(SIGINT, SIG_DFL);
      ::signal(SIGPIPE, SIG_DFL);
#ifdef PR_SET_PDEATHSIG
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
      ::_exit(RunWorkerProcess(generator_, campaign_->options, cmd[0], res[1]));
    }
    ::close(cmd[0]);
    ::close(res[1]);
    if (stderr_fd >= 0) {
      ::close(stderr_fd);
    }
    w.pid = pid;
    w.cmd_fd = cmd[1];
    w.res_fd = res[0];
    w.stderr_path = stderr_tmpl;
    w.sent_corpus = 0;
    w.sent_sigs = 0;
    w.sent_keys = 0;
    w.inflight_valid = false;
    w.last_heard_ms = NowMs();
    return 0;
  }

  // Returns the death signal (>0) or negated exit code (<=0).
  int ReapWorker(WorkerProc& w, bool hang) {
    CampaignStats& stats = campaign_->stats;
    CloseFd(w.cmd_fd);
    CloseFd(w.res_fd);
    if (hang && w.pid > 0) {
      ::kill(w.pid, SIGKILL);
    }
    int status = 0;
    if (w.pid > 0) {
      while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
    w.pid = -1;
    if (hang) {
      ++stats.worker_hangs;
      return SIGKILL;
    }
    if (WIFSIGNALED(status)) {
      ++stats.worker_crashes;
      return WTERMSIG(status);
    }
    ++stats.worker_exits;
    return -(WIFEXITED(status) ? WEXITSTATUS(status) : 0);
  }

  int SendEpoch(WorkerProc& w, int index, const EpochAttempt& epoch) {
    const std::vector<FuzzCase>& corpus = campaign_->corpus;
    // Forensic heartbeats (full case payloads) only on the attempt whose
    // failure would exhaust the retry budget and quarantine the in-flight
    // case; every other attempt heartbeats with just the iteration number.
    const bool forensic = w.consecutive_failures + 1 >= worker_retries_;
    std::ostringstream os;
    os << "epoch " << epoch.start << " " << epoch.end << " " << index << " " << jobs_ << "\n";
    os << "forensic " << (forensic ? 1 : 0) << "\n";
    os << "skip " << epoch.skip.size() << "\n";
    for (uint64_t it : epoch.skip) {
      os << "s " << it << "\n";
    }
    os << "sigs " << (sigs_vec_.size() - w.sent_sigs) << "\n";
    for (size_t i = w.sent_sigs; i < sigs_vec_.size(); ++i) {
      os << "g " << serialize::Escape(sigs_vec_[i]) << "\n";
    }
    os << "covkeys " << (cov_vec_.size() - w.sent_keys) << "\n";
    for (size_t i = w.sent_keys; i < cov_vec_.size(); ++i) {
      os << "k " << serialize::Escape(cov_vec_[i]) << "\n";
    }
    os << "corpus " << (corpus.size() - w.sent_corpus) << "\n";
    for (size_t i = w.sent_corpus; i < corpus.size(); ++i) {
      serialize::SerializeCase(os, corpus[i]);
    }
    os << "end\n";
    const int rc = WriteFrame(w.cmd_fd, MsgType::kEpoch, os.str());
    if (rc == 0) {
      w.sent_sigs = sigs_vec_.size();
      w.sent_keys = cov_vec_.size();
      w.sent_corpus = corpus.size();
      w.last_heard_ms = NowMs();
    }
    return rc;
  }

  void ShutdownWorkers() {
    for (WorkerProc& w : workers_) {
      if (w.cmd_fd >= 0) {
        WriteFrame(w.cmd_fd, MsgType::kShutdown, "");
      }
      CloseFd(w.cmd_fd);
    }
    const int64_t deadline = NowMs() + 2000;
    for (WorkerProc& w : workers_) {
      if (w.pid <= 0) {
        continue;
      }
      for (;;) {
        int status = 0;
        const pid_t r = ::waitpid(w.pid, &status, WNOHANG);
        if (r == w.pid || (r < 0 && errno != EINTR)) {
          break;
        }
        if (NowMs() >= deadline) {
          ::kill(w.pid, SIGKILL);
          while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
          }
          break;
        }
        ::usleep(10'000);
      }
      w.pid = -1;
      CloseFd(w.res_fd);
      if (!w.stderr_path.empty()) {
        ::unlink(w.stderr_path.c_str());
        w.stderr_path.clear();
      }
    }
  }

  // Waits for every shard's RESULT, reaping and re-forking failed workers
  // along the way. False aborts the campaign.
  bool Collect(EpochAttempt& epoch) {
    int pending = jobs_;
    while (pending > 0) {
      std::vector<struct pollfd> pfds;
      std::vector<int> pfd_worker;
      int64_t poll_deadline = -1;
      for (int i = 0; i < jobs_; ++i) {
        WorkerProc& w = workers_[static_cast<size_t>(i)];
        if (w.result_done) {
          continue;
        }
        struct pollfd pfd;
        pfd.fd = w.res_fd;
        pfd.events = POLLIN;
        pfd.revents = 0;
        pfds.push_back(pfd);
        pfd_worker.push_back(i);
        if (hang_timeout_ms() > 0) {
          const int64_t deadline = w.last_heard_ms + hang_timeout_ms();
          if (poll_deadline < 0 || deadline < poll_deadline) {
            poll_deadline = deadline;
          }
        }
      }
      int timeout = -1;
      if (poll_deadline >= 0) {
        timeout = static_cast<int>(std::max<int64_t>(0, poll_deadline - NowMs()));
      }
      const int pr = ::poll(pfds.data(), pfds.size(), timeout);
      if (pr < 0 && errno != EINTR) {
        campaign_->stats.resume_error =
            std::string("supervisor: poll failed: ") + std::strerror(errno);
        return false;
      }

      const int64_t now = NowMs();
      for (size_t p = 0; p < pfds.size(); ++p) {
        const int index = pfd_worker[p];
        WorkerProc& w = workers_[static_cast<size_t>(index)];
        if (w.result_done) {
          continue;  // can happen if an earlier entry's failure re-sorted state
        }
        bool failed = false;
        bool hang = false;
        if ((pfds[p].revents & POLLIN) != 0) {
          Frame frame;
          const int rc =
              ReadFrame(w.res_fd, &frame, hang_timeout_ms() > 0 ? hang_timeout_ms() : -1);
          if (rc != 0) {
            // EOF, torn frame, or a stall mid-frame: all worker failures.
            failed = true;
            hang = rc == -ETIMEDOUT;
          } else {
            w.last_heard_ms = NowMs();
            if (frame.type == MsgType::kCaseBegin) {
              std::istringstream is(frame.payload);
              serialize::Reader reader(is);
              const std::vector<int64_t> fields = reader.Fields("case_begin", 2);
              FuzzCase fc;
              if (reader.ok() && fields[1] != 0) {
                serialize::ParseCase(reader, &fc);  // forensic heartbeat
              }
              if (reader.ok()) {
                w.inflight_valid = true;
                w.inflight_iteration = static_cast<uint64_t>(fields[0]);
                w.inflight_case = std::move(fc);
              }
            } else if (frame.type == MsgType::kResult &&
                       ParseResultPayload(frame.payload, &w)) {
              w.result_done = true;
              w.inflight_valid = false;
              w.consecutive_failures = 0;
              --pending;
            } else {
              failed = true;
            }
          }
        } else if ((pfds[p].revents & (POLLHUP | POLLERR | POLLNVAL)) != 0) {
          failed = true;
        } else if (hang_timeout_ms() > 0 && now - w.last_heard_ms >= hang_timeout_ms()) {
          failed = true;
          hang = true;
        }
        if (failed && !HandleFailure(index, hang, epoch)) {
          return false;
        }
      }
    }
    return true;
  }

  // Failure handling for one worker: reap, record, maybe quarantine, back
  // off, re-fork, resend the epoch. False aborts the campaign.
  bool HandleFailure(int index, bool hang, EpochAttempt& epoch) {
    const CampaignOptions& options = campaign_->options;
    CampaignStats& stats = campaign_->stats;
    Journal& journal = campaign_->journal;
    WorkerProc& w = workers_[static_cast<size_t>(index)];
    const int sig_or_code = ReapWorker(w, hang);
    ++w.consecutive_failures;
    w.out = EpochShardResult{};  // a torn result frame may have half-filled it
    w.result_keys.clear();

    // First-class crash finding with the captured stderr (digest-excluded).
    Finding crash;
    crash.kind = bpf::ReportKind::kWorkerCrash;
    crash.indicator = 0;
    crash.iteration = w.inflight_valid ? w.inflight_iteration : 0;
    std::ostringstream sig;
    sig << "worker-crash:shard" << index << ":"
        << (hang ? "hang" : (sig_or_code > 0 ? "signal" : "exit")) << ":"
        << (sig_or_code > 0 ? sig_or_code : -sig_or_code);
    crash.signature = sig.str();
    std::ostringstream details;
    details << "worker for shard " << index << " ";
    if (hang) {
      details << "missed the heartbeat deadline (" << options.hang_timeout_ms
              << " ms) and was killed";
    } else if (sig_or_code > 0) {
      details << "died on signal " << sig_or_code;
    } else {
      details << "exited unexpectedly with code " << -sig_or_code;
    }
    details << " during epoch [" << epoch.start << "," << epoch.end << "]";
    if (w.inflight_valid) {
      details << ", iteration " << w.inflight_iteration << " in flight";
    }
    const std::string tail = StderrTail(w.stderr_path);
    if (!tail.empty()) {
      details << "; stderr: " << tail;
    }
    crash.details = details.str();
    stats.crash_findings.push_back(crash);
    if (!w.stderr_path.empty()) {
      ::unlink(w.stderr_path.c_str());
      w.stderr_path.clear();
    }
    if (journal.is_open()) {
      std::ostringstream payload;
      serialize::SerializeFinding(payload, crash);
      journal.Append(JournalRecord{JournalRecordType::kCrash, crash.iteration, payload.str()});
      journal.Sync();
    }

    const int failures = w.consecutive_failures;
    if (failures >= worker_retries_) {
      if (!w.inflight_valid) {
        // Failing before any case begins is not attributable to a case;
        // retrying cannot converge. Give up on the campaign.
        stats.resume_error = "supervisor: worker for shard " + std::to_string(index) +
                             " failed " + std::to_string(failures) +
                             " times with no case in flight; aborting campaign";
        return false;
      }
      // Poison case: quarantine it, skip its iteration, degrade.
      QuarantineRecord q;
      q.iteration = w.inflight_iteration;
      q.attempts = failures;
      q.signal_or_code = sig_or_code;
      q.the_case = w.inflight_case;
      if (!options.quarantine_path.empty()) {
        AppendQuarantineRecord(options.quarantine_path, q);
      }
      if (journal.is_open()) {
        journal.Append(
            JournalRecord{JournalRecordType::kQuarantine, q.iteration, SerializeQuarantine(q)});
        journal.Sync();
      }
      epoch.skip.insert(q.iteration);
      ++stats.quarantined_cases;
      if (!epoch.abandoned_counted) {
        ++stats.epochs_abandoned;
        epoch.abandoned_counted = true;
      }
      w.consecutive_failures = 0;  // fresh budget for the rest of the epoch
    }
    w.inflight_valid = false;

    const int64_t backoff = std::min<int64_t>(
        static_cast<int64_t>(options.retry_backoff_ms) << std::min(failures - 1, 10), 2000);
    if (backoff > 0) {
      ::usleep(static_cast<useconds_t>(backoff) * 1000);
    }
    const int rc = SpawnWorker(w);
    if (rc != 0) {
      stats.resume_error = std::string("supervisor: cannot respawn worker: ") + std::strerror(-rc);
      return false;
    }
    ++stats.worker_restarts;
    SendEpoch(w, index, epoch);
    return true;
  }

  int hang_timeout_ms() const { return campaign_->options.hang_timeout_ms; }

  Generator& generator_;
  EpochCampaign* campaign_ = nullptr;
  int jobs_ = 1;
  int worker_retries_ = 1;
  std::vector<WorkerProc> workers_;
  // The committed coverage: a dedup set plus an insertion-order vector (for
  // per-worker indexed sync deltas and checkpoint key lines).
  std::set<std::string> cov_set_;
  std::vector<std::string> cov_vec_;
  // Finding signatures in a stable order, for the same indexed-delta scheme;
  // |findings_seen_| is how many of stats.findings it holds.
  std::vector<std::string> sigs_vec_;
  size_t findings_seen_ = 0;
  bool signals_installed_ = false;
  struct sigaction old_term_ = {};
  struct sigaction old_int_ = {};
  struct sigaction old_pipe_ = {};
};

}  // namespace

int LoadQuarantine(const std::string& path, std::vector<QuarantineRecord>* out,
                   std::string* error) {
  std::ifstream is(path);
  if (!is) {
    if (error != nullptr) {
      *error = "cannot open quarantine file: " + path;
    }
    return -ENOENT;
  }
  serialize::Reader reader(is);
  while (is.peek() != EOF && !is.eof()) {
    QuarantineRecord record;
    const std::vector<int64_t> fields = reader.Fields("quarantine", 3);
    record.iteration = static_cast<uint64_t>(fields[0]);
    record.attempts = static_cast<int>(fields[1]);
    record.signal_or_code = static_cast<int>(fields[2]);
    serialize::ParseCase(reader, &record.the_case);
    reader.Line("end");
    if (!reader.ok()) {
      if (error != nullptr) {
        *error = "malformed quarantine file: " + reader.error();
      }
      return -EINVAL;
    }
    out->push_back(std::move(record));
    is.peek();  // refresh eof for the loop condition
  }
  return 0;
}

SupervisedFuzzer::SupervisedFuzzer(Generator& generator, CampaignOptions options)
    : generator_(generator), options_(std::move(options)) {}

CampaignStats SupervisedFuzzer::Run() {
  ProcessTopology topology(generator_);
  return RunEpochCampaign(generator_.name(), options_, topology);
}

}  // namespace bvf
