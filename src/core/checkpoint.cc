#include "src/core/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/core/serialize.h"

namespace bvf {

namespace {

using serialize::Escape;
using serialize::Fnv1a;
using serialize::Hex64;
using serialize::Reader;
using serialize::Unescape;

constexpr char kMagic[] = "bvf-checkpoint v2";
constexpr char kMagicV1[] = "bvf-checkpoint v1";
constexpr char kSumTag[] = "sum ";

// Writes |content| to |path| atomically: temp file in the same directory,
// fsync, rename. A kill at any point leaves either the old file or the new
// one, never a hybrid.
int AtomicWrite(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return -errno;
  }
  size_t written = 0;
  while (written < content.size()) {
    const ssize_t n = ::write(fd, content.data() + written, content.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      const int err = errno;
      ::close(fd);
      std::remove(tmp.c_str());
      return -err;
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    std::remove(tmp.c_str());
    return -EIO;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return -EIO;
  }
  return 0;
}

// A whole unsigned decimal: no sign, no trailing characters.
bool ParseU64(const std::string& text, uint64_t* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

std::string FingerprintOptions(const CampaignOptions& options, const std::string& tool) {
  std::ostringstream os;
  os << "v1"
     << " version=" << static_cast<int>(options.version) << " seed=" << options.seed
     << " sanitize=" << options.sanitize << " audit=" << options.audit_state
     << " covfb=" << options.coverage_feedback << " covpts=" << options.coverage_points
     << " resetcov=1 arena=" << options.arena_size
     << " budget=" << options.arena_budget << " confirm=" << options.confirm_runs
     << " reuse=" << options.reuse_substrate << " tool=" << tool;
  os << " limits=" << options.limits.step_budget << "/" << options.limits.wall_budget_ms
     << "/" << options.limits.max_call_depth;
  os.precision(17);
  os << " fault=" << options.fault.probability << "/" << options.fault.interval << "/"
     << options.fault.space << "/" << options.fault.times << "/";
  for (const bool enabled : options.fault.enabled) {
    os << (enabled ? 1 : 0);
  }
  const bpf::BugConfig& bugs = options.bugs;
  os << " bugs=" << bugs.bug1_nullness_propagation << bugs.bug2_task_struct_bounds
     << bugs.bug3_kfunc_backtrack << bugs.bug4_trace_printk_recursion
     << bugs.bug5_contention_begin << bugs.bug6_send_signal << bugs.bug7_dispatcher_sync
     << bugs.bug8_kmemdup << bugs.bug9_bucket_iteration << bugs.bug10_irq_work
     << bugs.bug11_xdp_offload << bugs.bug12_jmp32_signed_refine << bugs.cve_2022_23222
     << bugs.bug13_ld_imm64_pessimize;
  os << " mmorph=" << options.metamorph << "/" << options.metamorph_k;
  // The conformance prologue contributes findings (digest-included), so a
  // checkpoint written with a corpus cannot resume without one (or with a
  // different one).
  if (!options.conformance_dir.empty()) {
    os << " conf=" << options.conformance_dir;
  }
  // interp_engine is deliberately absent: the engines are digest-identical,
  // so a --interp=jit checkpoint must resume under --interp=legacy and vice
  // versa. The jit oracle, by contrast, changes outcomes and findings.
  os << " joracle=" << options.jit_oracle;
  return Hex64(Fnv1a(os.str()));
}

std::string ValidateCheckpointCompat(const CampaignCheckpoint& checkpoint,
                                     const CampaignOptions& options,
                                     const std::string& tool) {
  if (checkpoint.epoch_len != options.epoch_len) {
    return "checkpoint epoch_len mismatch: checkpoint used " +
           std::to_string(checkpoint.epoch_len) + ", this campaign uses " +
           std::to_string(options.epoch_len) +
           " (epoch length is campaign semantics; pass --epoch=" +
           std::to_string(checkpoint.epoch_len) + " to resume)";
  }
  const std::string want = FingerprintOptions(options, tool);
  if (checkpoint.fingerprint != want) {
    return "checkpoint options-fingerprint mismatch: checkpoint " +
           checkpoint.fingerprint + " vs campaign " + want +
           " (seed, kernel version, bug set, sanitize/audit/coverage flags, "
           "fault plan, or metamorph config differ)";
  }
  return "";
}

int SaveCheckpoint(const std::string& path, const CampaignCheckpoint& checkpoint) {
  std::ostringstream os;
  os << kMagic << "\n";
  os << "fingerprint " << checkpoint.fingerprint << " engine=" << checkpoint.engine
     << " epoch=" << checkpoint.epoch_len << "\n";
  os << "next_iteration " << checkpoint.next_iteration << "\n";
  os << "rng " << checkpoint.rng_state[0] << " " << checkpoint.rng_state[1] << " "
     << checkpoint.rng_state[2] << " " << checkpoint.rng_state[3] << "\n";
  serialize::SerializeStats(os, checkpoint.stats);
  serialize::SerializeCorpus(os, checkpoint.corpus);
  os << "coverage " << checkpoint.coverage_keys.size() << "\n";
  for (const std::string& key : checkpoint.coverage_keys) {
    os << "k " << Escape(key) << "\n";
  }
  // Counters outside the SerializeStats body: resumable state, but not part
  // of the result digest (metamorph volume, a survived worker crash and the
  // like must stay digest-comparable).
  serialize::SerializeExcludedCounters(os, checkpoint.stats);
  os << "crashes " << checkpoint.stats.crash_findings.size() << "\n";
  for (const Finding& finding : checkpoint.stats.crash_findings) {
    serialize::SerializeFinding(os, finding);
  }
  os << "end\n";
  // Whole-file checksum trailer: covers every byte above, including "end\n".
  // A torn write is detectable as a missing trailer; bit rot as a mismatch.
  std::string content = os.str();
  content += kSumTag + Hex64(Fnv1a(content)) + "\n";
  return AtomicWrite(path, content);
}

int LoadCheckpoint(const std::string& path, CampaignCheckpoint* out, std::string* error) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    if (error != nullptr) {
      *error = "cannot open checkpoint file: " + path;
    }
    return -ENOENT;
  }
  std::ostringstream buf;
  buf << file.rdbuf();
  const std::string data = buf.str();

  // Magic first: a clear "wrong format" beats a checksum complaint when the
  // file is not a checkpoint at all (or is a pre-v2 one).
  const size_t first_nl = data.find('\n');
  const std::string magic = data.substr(0, first_nl == std::string::npos ? data.size() : first_nl);
  if (magic == kMagicV1) {
    if (error != nullptr) {
      *error = "unsupported checkpoint format '" + std::string(kMagicV1) +
               "' (this build reads v2; re-run the campaign to produce a v2 checkpoint)";
    }
    return -EINVAL;
  }
  if (magic != kMagic) {
    if (error != nullptr) {
      *error = "not a bvf checkpoint (bad magic)";
    }
    return -EINVAL;
  }

  // The file must end with the checksum trailer. Anything else means the
  // write was cut short (the atomic rename makes this near-impossible for
  // SaveCheckpoint's own output, but copies and crashes mid-copy happen).
  constexpr size_t kTrailerLen = sizeof(kSumTag) - 1 + 16 + 1;  // "sum " + hex + \n
  if (data.size() < first_nl + 1 + kTrailerLen || data.back() != '\n') {
    if (error != nullptr) {
      *error = "truncated checkpoint: missing checksum trailer (file cut short?)";
    }
    return -EINVAL;
  }
  const size_t trailer_start = data.size() - kTrailerLen;
  if (data.compare(trailer_start, sizeof(kSumTag) - 1, kSumTag) != 0 ||
      (trailer_start != 0 && data[trailer_start - 1] != '\n')) {
    if (error != nullptr) {
      *error = "truncated checkpoint: missing checksum trailer (file cut short?)";
    }
    return -EINVAL;
  }
  const std::string body = data.substr(0, trailer_start);
  const std::string want_sum = data.substr(trailer_start + sizeof(kSumTag) - 1, 16);
  if (Hex64(Fnv1a(body)) != want_sum) {
    if (error != nullptr) {
      *error = "checkpoint checksum mismatch: file is corrupt or was partially "
               "overwritten";
    }
    return -EINVAL;
  }

  std::istringstream is(body);
  Reader reader(is);
  std::string magic_line;
  std::getline(is, magic_line);  // already validated above
  CampaignCheckpoint cp;
  {
    // fingerprint <options-hash> engine=parallel epoch=<n>
    std::istringstream ss(reader.Line("fingerprint"));
    std::string engine_field;
    std::string epoch_field;
    std::string extra;
    if (!(ss >> cp.fingerprint >> engine_field >> epoch_field) || (ss >> extra) ||
        engine_field.compare(0, 7, "engine=") != 0 ||
        epoch_field.compare(0, 6, "epoch=") != 0) {
      reader.Fail("malformed fingerprint line (want '<hash> engine=<e> epoch=<n>')");
    } else {
      cp.engine = engine_field.substr(7);
      if (!ParseU64(epoch_field.substr(6), &cp.epoch_len)) {
        reader.Fail("malformed epoch field on fingerprint line");
      }
      if (cp.engine != kEngineParallel) {
        reader.Fail("unsupported engine '" + cp.engine +
                    "' on fingerprint line (only engine=parallel checkpoints resume; "
                    "the serial engine was removed)");
      }
    }
  }
  cp.next_iteration = static_cast<uint64_t>(
      reader.Fields("next_iteration", {serialize::Counter("next_iteration")})[0]);
  {
    // Full-range uint64 words; parsed separately from the signed field path.
    std::istringstream ss(reader.Line("rng"));
    std::string word;
    int words = 0;
    while (ss >> word) {
      if (words >= 4 || !ParseU64(word, &cp.rng_state[words])) {
        words = -1;
        break;
      }
      ++words;
    }
    if (words != 4) {
      reader.Fail("malformed rng state");
    }
  }
  serialize::ParseStats(reader, &cp.stats);
  serialize::ParseCorpus(reader, &cp.corpus);
  for (uint64_t i = 0, n = reader.Count("coverage"); i < n && reader.ok(); ++i) {
    cp.coverage_keys.push_back(Unescape(reader.Line("k")));
  }
  serialize::ParseExcludedCounters(reader, &cp.stats);
  for (uint64_t i = 0, n = reader.Count("crashes"); i < n && reader.ok(); ++i) {
    Finding finding;
    serialize::ParseFinding(reader, &finding);
    if (reader.ok()) {
      cp.stats.crash_findings.push_back(std::move(finding));
    }
  }
  if (!reader.Line("end").empty() || (reader.ok() && !reader.AtEnd())) {
    reader.Fail("'end' must be the last line, bare");
  }
  if (!reader.ok()) {
    if (error != nullptr) {
      *error = reader.error();
    }
    return -EINVAL;
  }
  *out = std::move(cp);
  return 0;
}

std::string StatsDigest(const CampaignStats& stats) {
  std::ostringstream os;
  serialize::SerializeStats(os, stats);
  return Hex64(Fnv1a(os.str()));
}

}  // namespace bvf
