// Coordinator half of the crash-isolated supervisor (DESIGN.md §12).
//
// The coordinator owns all campaign state (stats, corpus, committed coverage
// keys, finding signatures) and never executes a fuzz case itself; workers are
// fork()ed, stream heartbeats + results back over pipes, and are re-forked
// when they die. The epoch barrier merge is the shared src/core/epoch.cc code,
// run here over parsed frames instead of in-memory shard results — which is
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

#include "src/core/checkpoint.h"
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
  uint64_t vcache_hits = 0, vcache_misses = 0;
  uint64_t dcache_hits = 0, dcache_misses = 0, dcache_evictions = 0;
  uint64_t jcache_hits = 0, jcache_misses = 0, jcache_evictions = 0;
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
  const std::vector<int64_t> vc = reader.Fields("vcache", 2);
  w->vcache_hits = static_cast<uint64_t>(vc[0]);
  w->vcache_misses = static_cast<uint64_t>(vc[1]);
  const std::vector<int64_t> dc = reader.Fields("dcache", 3);
  w->dcache_hits = static_cast<uint64_t>(dc[0]);
  w->dcache_misses = static_cast<uint64_t>(dc[1]);
  w->dcache_evictions = static_cast<uint64_t>(dc[2]);
  const std::vector<int64_t> jc = reader.Fields("jcache", 3);
  w->jcache_hits = static_cast<uint64_t>(jc[0]);
  w->jcache_misses = static_cast<uint64_t>(jc[1]);
  w->jcache_evictions = static_cast<uint64_t>(jc[2]);
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
  CampaignStats stats;
  stats.tool = generator_.name();
  options_.epoch_len = std::max<uint64_t>(1, options_.epoch_len);
  stats.options = options_;

  const uint64_t epoch_len = options_.epoch_len;
  const int jobs = std::max(1, options_.jobs);
  const int worker_retries = std::max(1, options_.worker_retries);

  const std::string fingerprint = FingerprintOptions(options_, stats.tool);
  std::vector<FuzzCase> corpus;
  uint64_t start_iteration = 1;

  // The coordinator's committed coverage: a dedup set plus an insertion-order
  // vector (for per-worker indexed sync deltas and checkpoint key lines). The
  // coordinator never executes instrumented code, so this — not the global
  // registry — is the campaign's committed set; workers rebuild their local
  // registries from these keys on every (re)fork.
  std::set<std::string> cov_set;
  std::vector<std::string> cov_vec;
  // Finding signatures in a stable order, for the same indexed-delta scheme.
  std::vector<std::string> sigs_vec;

  if (!options_.resume_path.empty()) {
    CampaignCheckpoint cp;
    std::string error;
    if (LoadCheckpoint(options_.resume_path, &cp, &error) != 0) {
      stats.resume_error = error.empty() ? "checkpoint load failed" : error;
      return stats;
    }
    const std::string mismatch = ValidateCheckpointCompat(cp, options_, stats.tool);
    if (!mismatch.empty()) {
      stats.resume_error = mismatch;
      return stats;
    }
    stats = std::move(cp.stats);
    stats.options = options_;
    stats.tool = generator_.name();
    corpus = std::move(cp.corpus);
    for (std::string& key : cp.coverage_keys) {
      if (cov_set.insert(key).second) {
        cov_vec.push_back(std::move(key));
      }
    }
    start_iteration = cp.next_iteration;
    stats.resumed_from = start_iteration;
  }

  // Conformance prologue, coordinator-side: worker processes never see the
  // corpus directory — they receive the resulting seeds through the normal
  // corpus sync, exactly as on a resume. Must run before |sigs_vec| snapshots
  // the signature set so workers dedup against prologue findings too.
  if (options_.resume_path.empty() && !options_.conformance_dir.empty() &&
      !RunConformancePrologue(options_, stats, &corpus)) {
    return stats;
  }
  for (const std::string& sig : stats.finding_signatures) {
    sigs_vec.push_back(sig);
  }

  Journal journal;
  if (!options_.journal_path.empty()) {
    std::string error;
    if (journal.Open(options_.journal_path, &error) != 0) {
      stats.resume_error = "journal open failed: " + error;
      return stats;
    }
  }

  const uint64_t sample_every =
      options_.coverage_points > 0
          ? std::max<uint64_t>(1, options_.iterations / options_.coverage_points)
          : 0;
  uint64_t last_iteration = options_.iterations;
  if (options_.stop_after != 0 && options_.stop_after < last_iteration) {
    last_iteration =
        std::min(last_iteration, ((options_.stop_after - 1) / epoch_len + 1) * epoch_len);
  }

  // Signal plumbing: SIGTERM/SIGINT request a graceful stop at the next
  // barrier; SIGPIPE (a worker dying mid-frame) must not kill the
  // coordinator — the write error is handled as a worker failure.
  struct sigaction stop_action;
  std::memset(&stop_action, 0, sizeof(stop_action));
  stop_action.sa_handler = HandleStopSignal;
  struct sigaction old_term, old_int, old_pipe, ignore_pipe;
  std::memset(&ignore_pipe, 0, sizeof(ignore_pipe));
  ignore_pipe.sa_handler = SIG_IGN;
  ::sigaction(SIGTERM, &stop_action, &old_term);
  ::sigaction(SIGINT, &stop_action, &old_int);
  ::sigaction(SIGPIPE, &ignore_pipe, &old_pipe);
  g_stop_requested = 0;

  std::vector<WorkerProc> workers(static_cast<size_t>(jobs));

  const auto spawn_worker = [&](WorkerProc& w) -> int {
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
      for (const WorkerProc& other : workers) {
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
      ::_exit(RunWorkerProcess(generator_, options_, cmd[0], res[1]));
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
  };

  const auto reap_worker = [&](WorkerProc& w, bool hang) -> int {
    // Returns the death signal (>0) or negated exit code (<=0).
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
  };

  const auto send_epoch = [&](WorkerProc& w, int index, uint64_t start, uint64_t end,
                              const std::set<uint64_t>& skip) -> int {
    // Forensic heartbeats (full case payloads) only on the attempt whose
    // failure would exhaust the retry budget and quarantine the in-flight
    // case; every other attempt heartbeats with just the iteration number.
    const bool forensic = w.consecutive_failures + 1 >= worker_retries;
    std::ostringstream os;
    os << "epoch " << start << " " << end << " " << index << " " << jobs << "\n";
    os << "forensic " << (forensic ? 1 : 0) << "\n";
    os << "skip " << skip.size() << "\n";
    for (uint64_t it : skip) {
      os << "s " << it << "\n";
    }
    os << "sigs " << (sigs_vec.size() - w.sent_sigs) << "\n";
    for (size_t i = w.sent_sigs; i < sigs_vec.size(); ++i) {
      os << "g " << serialize::Escape(sigs_vec[i]) << "\n";
    }
    os << "covkeys " << (cov_vec.size() - w.sent_keys) << "\n";
    for (size_t i = w.sent_keys; i < cov_vec.size(); ++i) {
      os << "k " << serialize::Escape(cov_vec[i]) << "\n";
    }
    os << "corpus " << (corpus.size() - w.sent_corpus) << "\n";
    for (size_t i = w.sent_corpus; i < corpus.size(); ++i) {
      serialize::SerializeCase(os, corpus[i]);
    }
    os << "end\n";
    const int rc = WriteFrame(w.cmd_fd, MsgType::kEpoch, os.str());
    if (rc == 0) {
      w.sent_sigs = sigs_vec.size();
      w.sent_keys = cov_vec.size();
      w.sent_corpus = corpus.size();
      w.last_heard_ms = NowMs();
    }
    return rc;
  };

  const auto shutdown_workers = [&] {
    for (WorkerProc& w : workers) {
      if (w.cmd_fd >= 0) {
        WriteFrame(w.cmd_fd, MsgType::kShutdown, "");
      }
      CloseFd(w.cmd_fd);
    }
    const int64_t deadline = NowMs() + 2000;
    for (WorkerProc& w : workers) {
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
  };

  const auto save_checkpoint = [&](uint64_t next_iteration) {
    CampaignCheckpoint cp;
    cp.next_iteration = next_iteration;
    cp.fingerprint = fingerprint;
    cp.epoch_len = epoch_len;
    cp.corpus = corpus;
    cp.stats = stats;
    cp.stats.final_coverage = cov_set.size();
    cp.coverage_keys = cov_vec;
    if (SaveCheckpoint(options_.checkpoint_path, cp) == 0 && journal.is_open()) {
      journal.Rotate();
    }
  };

  for (int w = 0; w < jobs; ++w) {
    const int rc = spawn_worker(workers[static_cast<size_t>(w)]);
    if (rc != 0) {
      stats.resume_error =
          std::string("supervisor: cannot spawn worker: ") + std::strerror(-rc);
      shutdown_workers();
      ::sigaction(SIGTERM, &old_term, nullptr);
      ::sigaction(SIGINT, &old_int, nullptr);
      ::sigaction(SIGPIPE, &old_pipe, nullptr);
      return stats;
    }
  }

  bool aborted = false;
  uint64_t next = start_iteration;
  while (next <= last_iteration && !aborted) {
    const uint64_t end =
        std::min(last_iteration, ((next - 1) / epoch_len + 1) * epoch_len);
    // Poison iterations quarantined during THIS epoch; the re-run shard skips
    // them. Persisting across retries of the epoch is what guarantees
    // progress: every quarantine strictly shrinks the work left to fail.
    std::set<uint64_t> skip;
    bool abandoned_counted = false;

    for (WorkerProc& w : workers) {
      w.result_done = false;
      w.out = EpochShardResult{};
      w.result_keys.clear();
      w.inflight_valid = false;
    }
    for (int i = 0; i < jobs; ++i) {
      WorkerProc& w = workers[static_cast<size_t>(i)];
      if (send_epoch(w, i, next, end, skip) != 0) {
        // A dead pipe at send time is a worker failure; the collect loop
        // below notices the closed result pipe and runs the retry path.
      }
    }

    // ---- Collect: wait for every shard's RESULT, reaping and re-forking
    // failed workers along the way. ----
    int pending = jobs;
    while (pending > 0) {
      std::vector<struct pollfd> pfds;
      std::vector<int> pfd_worker;
      int64_t poll_deadline = -1;
      for (int i = 0; i < jobs; ++i) {
        WorkerProc& w = workers[static_cast<size_t>(i)];
        if (w.result_done) {
          continue;
        }
        struct pollfd pfd;
        pfd.fd = w.res_fd;
        pfd.events = POLLIN;
        pfd.revents = 0;
        pfds.push_back(pfd);
        pfd_worker.push_back(i);
        if (options_.hang_timeout_ms > 0) {
          const int64_t deadline = w.last_heard_ms + options_.hang_timeout_ms;
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
        stats.resume_error =
            std::string("supervisor: poll failed: ") + std::strerror(errno);
        aborted = true;
        break;
      }

      // Failure handling for one worker: reap, record, maybe quarantine,
      // back off, re-fork, resend the epoch.
      const auto handle_failure = [&](int index, bool hang) {
        WorkerProc& w = workers[static_cast<size_t>(index)];
        const int sig_or_code = reap_worker(w, hang);
        ++w.consecutive_failures;

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
          details << "missed the heartbeat deadline (" << options_.hang_timeout_ms
                  << " ms) and was killed";
        } else if (sig_or_code > 0) {
          details << "died on signal " << sig_or_code;
        } else {
          details << "exited unexpectedly with code " << -sig_or_code;
        }
        details << " during epoch [" << next << "," << end << "]";
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
          JournalRecord record;
          record.type = JournalRecordType::kCrash;
          record.iteration = crash.iteration;
          std::ostringstream payload;
          serialize::SerializeFinding(payload, crash);
          record.payload = payload.str();
          journal.Append(record);
          journal.Sync();
        }

        const int failures = w.consecutive_failures;
        if (failures >= worker_retries) {
          if (w.inflight_valid) {
            // Poison case: quarantine it, skip its iteration, degrade.
            QuarantineRecord q;
            q.iteration = w.inflight_iteration;
            q.attempts = failures;
            q.signal_or_code = sig_or_code;
            q.the_case = w.inflight_case;
            if (!options_.quarantine_path.empty()) {
              AppendQuarantineRecord(options_.quarantine_path, q);
            }
            if (journal.is_open()) {
              JournalRecord record;
              record.type = JournalRecordType::kQuarantine;
              record.iteration = q.iteration;
              record.payload = SerializeQuarantine(q);
              journal.Append(record);
              journal.Sync();
            }
            skip.insert(q.iteration);
            ++stats.quarantined_cases;
            if (!abandoned_counted) {
              ++stats.epochs_abandoned;
              abandoned_counted = true;
            }
            w.consecutive_failures = 0;  // fresh budget for the rest of the epoch
          } else {
            // Failing before any case begins is not attributable to a case;
            // retrying cannot converge. Give up on the campaign.
            stats.resume_error =
                "supervisor: worker for shard " + std::to_string(index) + " failed " +
                std::to_string(failures) +
                " times with no case in flight; aborting campaign";
            aborted = true;
            return;
          }
        }
        w.inflight_valid = false;

        const int64_t backoff = std::min<int64_t>(
            static_cast<int64_t>(options_.retry_backoff_ms)
                << std::min(failures - 1, 10),
            2000);
        if (backoff > 0) {
          ::usleep(static_cast<useconds_t>(backoff) * 1000);
        }
        const int rc = spawn_worker(w);
        if (rc != 0) {
          stats.resume_error =
              std::string("supervisor: cannot respawn worker: ") + std::strerror(-rc);
          aborted = true;
          return;
        }
        ++stats.worker_restarts;
        send_epoch(w, index, next, end, skip);
      };

      const int64_t now = NowMs();
      for (size_t p = 0; p < pfds.size() && !aborted; ++p) {
        WorkerProc& w = workers[static_cast<size_t>(pfd_worker[p])];
        if (w.result_done) {
          continue;  // can happen if an earlier entry's failure re-sorted state
        }
        if ((pfds[p].revents & POLLIN) != 0) {
          Frame frame;
          const int rc = ReadFrame(w.res_fd, &frame,
                                   options_.hang_timeout_ms > 0
                                       ? options_.hang_timeout_ms
                                       : -1);
          if (rc != 0) {
            // EOF, torn frame, or a stall mid-frame: all worker failures.
            handle_failure(pfd_worker[p], /*hang=*/rc == -ETIMEDOUT);
            continue;
          }
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
          } else if (frame.type == MsgType::kResult) {
            if (!ParseResultPayload(frame.payload, &w)) {
              handle_failure(pfd_worker[p], /*hang=*/false);
              continue;
            }
            w.result_done = true;
            w.inflight_valid = false;
            w.consecutive_failures = 0;
            --pending;
          } else {
            handle_failure(pfd_worker[p], /*hang=*/false);
          }
        } else if ((pfds[p].revents & (POLLHUP | POLLERR | POLLNVAL)) != 0) {
          handle_failure(pfd_worker[p], /*hang=*/false);
        } else if (options_.hang_timeout_ms > 0 &&
                   now - w.last_heard_ms >= options_.hang_timeout_ms) {
          handle_failure(pfd_worker[p], /*hang=*/true);
        }
      }
    }
    if (aborted) {
      break;
    }

    // ---- Barrier merge: the same steps, in the same order, as the
    // in-process engine (src/core/parallel.cc). ----
    for (WorkerProc& w : workers) {
      MergeEpochCounters(stats, w.out.partial);
    }
    for (WorkerProc& w : workers) {
      for (std::string& key : w.result_keys) {
        if (cov_set.insert(key).second) {
          cov_vec.push_back(std::move(key));
        }
      }
      w.result_keys.clear();
    }
    for (WorkerProc& w : workers) {
      stats.verdict_cache_hits += w.vcache_hits;
      stats.verdict_cache_misses += w.vcache_misses;
      stats.decode_cache_hits += w.dcache_hits;
      stats.decode_cache_misses += w.dcache_misses;
      stats.decode_cache_evictions += w.dcache_evictions;
      stats.jit_cache_hits += w.jcache_hits;
      stats.jit_cache_misses += w.jcache_misses;
      stats.jit_cache_evictions += w.jcache_evictions;
      w.vcache_hits = w.vcache_misses = 0;
      w.dcache_hits = w.dcache_misses = w.dcache_evictions = 0;
      w.jcache_hits = w.jcache_misses = w.jcache_evictions = 0;
    }
    const size_t findings_before = stats.findings.size();
    const size_t corpus_before = corpus.size();
    {
      std::vector<CaseRecord*> merged;
      for (WorkerProc& w : workers) {
        for (CaseRecord& record : w.out.records) {
          merged.push_back(&record);
        }
      }
      MergeEpochRecords(std::move(merged), stats, corpus);
      for (WorkerProc& w : workers) {
        w.out.records.clear();
      }
    }
    for (size_t i = findings_before; i < stats.findings.size(); ++i) {
      sigs_vec.push_back(stats.findings[i].signature);
    }
    AppendEpochCurve(stats, next, end, sample_every, cov_set.size());

    if (journal.is_open()) {
      for (size_t i = findings_before; i < stats.findings.size(); ++i) {
        JournalRecord record;
        record.type = JournalRecordType::kFinding;
        record.iteration = stats.findings[i].iteration;
        std::ostringstream payload;
        serialize::SerializeFinding(payload, stats.findings[i]);
        record.payload = payload.str();
        journal.Append(record);
      }
      for (size_t i = corpus_before; i < corpus.size(); ++i) {
        JournalRecord record;
        record.type = JournalRecordType::kCorpusCase;
        record.iteration = end;
        std::ostringstream payload;
        serialize::SerializeCase(payload, corpus[i]);
        record.payload = payload.str();
        journal.Append(record);
      }
      journal.Append(JournalRecord{JournalRecordType::kMark, end + 1, ""});
      journal.Sync();
    }

    if (g_stop_requested) {
      // Graceful stop: this barrier's state is complete and journaled;
      // checkpoint it and return. Resume continues bit-identically.
      if (!options_.checkpoint_path.empty()) {
        save_checkpoint(end + 1);
      }
      next = end + 1;
      break;
    }
    if (!options_.checkpoint_path.empty() && options_.checkpoint_every != 0 &&
        end != last_iteration &&
        end / options_.checkpoint_every > (next - 1) / options_.checkpoint_every) {
      save_checkpoint(end + 1);
    }
    next = end + 1;
  }

  shutdown_workers();
  ::sigaction(SIGTERM, &old_term, nullptr);
  ::sigaction(SIGINT, &old_int, nullptr);
  ::sigaction(SIGPIPE, &old_pipe, nullptr);

  stats.final_coverage = cov_set.size();
  if (!aborted && !g_stop_requested && !options_.checkpoint_path.empty()) {
    save_checkpoint(last_iteration + 1);
  }
  return stats;
}

}  // namespace bvf
