// Worker-process half of the supervisor (DESIGN.md §12.2). The worker is the
// same shard loop the in-process engine runs (src/core/epoch.cc) wrapped in a
// frame-servicing loop: sync state in, heartbeat + results out. Nothing here
// may touch the coordinator's state except through frames — that isolation is
// the entire point (a sanitizer abort in here kills this process only).

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/epoch.h"
#include "src/core/serialize.h"
#include "src/core/supervisor/supervisor.h"
#include "src/core/supervisor/wire.h"
#include "src/kernel/coverage.h"
#include "src/runtime/kernel.h"

namespace bvf {

namespace {

using bpf::Coverage;
using supervisor::Frame;
using supervisor::MsgType;
using supervisor::ReadFrame;
using supervisor::WriteFrame;

struct EpochCommand {
  uint64_t start = 0;
  uint64_t end = 0;
  int index = 0;
  int jobs = 1;
  // Forensic mode: CASE_BEGIN heartbeats carry the full serialized case so
  // the supervisor can quarantine it if this attempt dies. Requested only on
  // the attempt whose failure would hit the retry budget — routine heartbeats
  // stay a dozen bytes, keeping the per-case supervision cost near zero.
  bool forensic = false;
  std::set<uint64_t> skip;
  std::vector<std::string> sigs;
  std::vector<std::string> covkeys;
  std::vector<FuzzCase> corpus_delta;
};

bool ParseEpochCommand(const std::string& payload, EpochCommand* out) {
  std::istringstream is(payload);
  serialize::Reader reader(is);
  const std::vector<int64_t> header = reader.Fields("epoch", 4);
  out->start = static_cast<uint64_t>(header[0]);
  out->end = static_cast<uint64_t>(header[1]);
  out->index = static_cast<int>(header[2]);
  out->jobs = static_cast<int>(header[3]);
  out->forensic = reader.Fields("forensic", 1)[0] != 0;
  for (uint64_t i = 0, n = reader.Count("skip"); i < n && reader.ok(); ++i) {
    out->skip.insert(static_cast<uint64_t>(reader.Fields("s", 1)[0]));
  }
  for (uint64_t i = 0, n = reader.Count("sigs"); i < n && reader.ok(); ++i) {
    out->sigs.push_back(serialize::Unescape(reader.Line("g")));
  }
  for (uint64_t i = 0, n = reader.Count("covkeys"); i < n && reader.ok(); ++i) {
    out->covkeys.push_back(serialize::Unescape(reader.Line("k")));
  }
  serialize::ParseCorpus(reader, &out->corpus_delta);
  reader.Line("end");
  return reader.ok();
}

// The deterministic crash injector for tests and the smoke gate. With a
// marker file the injected failure fires exactly once across worker
// re-forks (first attempt creates the marker, the retry finds it and runs
// clean) — the transient-crash scenario. Without a marker it fires on every
// attempt — the poison-case scenario that must end in quarantine.
void MaybeInjectCrash(const CampaignOptions& options, uint64_t iteration) {
  if (options.test_crash_at == 0 || iteration != options.test_crash_at) {
    return;
  }
  if (!options.test_crash_marker.empty()) {
    struct stat st;
    if (::stat(options.test_crash_marker.c_str(), &st) == 0) {
      return;  // already fired once; run clean this time
    }
    FILE* marker = std::fopen(options.test_crash_marker.c_str(), "w");
    if (marker != nullptr) {
      std::fclose(marker);
    }
  }
  std::fprintf(stderr, "bvf-worker: injected failure at iteration %llu (mode %d)\n",
               static_cast<unsigned long long>(iteration), options.test_crash_mode);
  std::fflush(stderr);
  switch (options.test_crash_mode) {
    case 1:
      ::kill(::getpid(), SIGKILL);
      break;
    case 2:
      for (;;) {
        ::pause();  // hang until the supervisor's deadline reaps us
      }
      break;
    case 3:
      ::_exit(3);
      break;
    default:
      ::abort();  // SIGABRT — the shape of a real sanitizer abort
  }
}

}  // namespace

int RunWorkerProcess(Generator& generator, const CampaignOptions& options, int cmd_fd,
                     int res_fd) {
  // Shed inherited process-global machine state; the coordinator's key sync
  // is the only source of committed coverage from here on.
  bpf::ResetWorkerProcessState();
  bpf::CoverageSink sink;
  Coverage::InstallThreadSink(&sink);

  CaseRunner runner(options);

  std::vector<FuzzCase> corpus;
  std::set<std::string> sigs;

  for (;;) {
    Frame frame;
    const int rc = ReadFrame(cmd_fd, &frame, /*timeout_ms=*/-1);
    if (rc == -EPIPE) {
      return 0;  // supervisor is gone; PDEATHSIG would kill us anyway
    }
    if (rc != 0) {
      std::fprintf(stderr, "bvf-worker: command pipe error %d\n", -rc);
      return 1;
    }
    if (frame.type == MsgType::kShutdown) {
      return 0;
    }
    if (frame.type != MsgType::kEpoch) {
      std::fprintf(stderr, "bvf-worker: unexpected frame type %u\n",
                   static_cast<unsigned>(frame.type));
      return 1;
    }
    EpochCommand cmd;
    if (!ParseEpochCommand(frame.payload, &cmd)) {
      std::fprintf(stderr, "bvf-worker: malformed epoch command\n");
      return 1;
    }
    // Apply the sync deltas: this worker now holds the exact epoch-start
    // snapshots every in-process worker thread would see.
    for (const std::string& sig : cmd.sigs) {
      sigs.insert(sig);
    }
    Coverage::Get().RestoreHitKeys(cmd.covkeys);
    for (FuzzCase& fc : cmd.corpus_delta) {
      corpus.push_back(std::move(fc));
    }

    EpochShardHooks hooks;
    hooks.on_case_begin = [&](uint64_t iteration, const FuzzCase& the_case) {
      // Heartbeat + forensics: the supervisor learns what is in flight
      // before it runs, so a crash right after is attributable (and, after
      // K retries, quarantinable). The case body rides along only in
      // forensic mode — serializing every case would put a per-case tax on
      // healthy campaigns for data the supervisor needs only at quarantine
      // time.
      std::ostringstream payload;
      payload << "case_begin " << iteration << " " << (cmd.forensic ? 1 : 0) << "\n";
      if (cmd.forensic) {
        serialize::SerializeCase(payload, the_case);
      }
      WriteFrame(res_fd, MsgType::kCaseBegin, payload.str());
      MaybeInjectCrash(options, iteration);
    };
    if (!cmd.skip.empty()) {
      hooks.skip = [&](uint64_t iteration) { return cmd.skip.count(iteration) > 0; };
    }

    EpochShardResult out;
    RunEpochShard(options, generator, runner, sink, corpus, sigs, cmd.index, cmd.jobs,
                  cmd.start, cmd.end, out, hooks);

    // Ship the shard result. Coverage travels as stable keys: site ids are
    // registration-order and differ across processes.
    std::ostringstream payload;
    payload << "result " << cmd.start << " " << cmd.end << "\n";
    serialize::SerializeStats(payload, out.partial);
    serialize::SerializeExcludedCounters(payload, out.partial);
    payload << "records " << out.records.size() << "\n";
    for (const CaseRecord& record : out.records) {
      payload << "r " << record.iteration << " " << (record.corpus_candidate ? 1 : 0)
              << " " << record.findings.size() << "\n";
      if (record.corpus_candidate) {
        serialize::SerializeCase(payload, record.the_case);
      }
      for (const Finding& finding : record.findings) {
        serialize::SerializeFinding(payload, finding);
      }
    }
    const std::vector<std::string> keys = Coverage::Get().SiteKeysFor(sink.epoch_sites());
    sink.ClearEpoch();
    payload << "covkeys " << keys.size() << "\n";
    for (const std::string& key : keys) {
      payload << "k " << serialize::Escape(key) << "\n";
    }
    payload << "end\n";
    if (WriteFrame(res_fd, MsgType::kResult, payload.str()) != 0) {
      return 0;  // supervisor is gone
    }
  }
}

}  // namespace bvf
