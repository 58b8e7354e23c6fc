#include "src/core/serialize.h"

#include <charconv>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <sstream>
#include <utility>

namespace bvf {
namespace serialize {

uint64_t Fnv1a(const std::string& data) {
  uint64_t hash = 14695981039346656037ull;
  for (const char c : data) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string Hex64(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string Unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
      switch (s[i]) {
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        default:
          out += s[i];
      }
    } else {
      out += s[i];
    }
  }
  return out;
}

std::string Reader::Line(const std::string& tag) {
  if (!ok()) {
    return "";
  }
  std::string line;
  if (!std::getline(is_, line)) {
    Fail("unexpected end of file, wanted '" + tag + "'");
    return "";
  }
  if (line.compare(0, tag.size(), tag) != 0 ||
      (line.size() > tag.size() && line[tag.size()] != ' ')) {
    Fail("malformed line, wanted '" + tag + "': " + line);
    return "";
  }
  return line.size() > tag.size() ? line.substr(tag.size() + 1) : "";
}

std::vector<int64_t> Reader::Fields(const std::string& tag, size_t count) {
  std::vector<int64_t> out;
  std::istringstream ss(Line(tag));
  std::string token;
  while (ok() && ss >> token) {
    int64_t value = 0;
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (ec != std::errc() || ptr != end) {
      Fail("malformed number on '" + tag + "': " + token);
      break;
    }
    out.push_back(value);
  }
  if (ok() && out.size() != count) {
    Fail("field count mismatch on '" + tag + "'");
  }
  out.resize(count, 0);
  return out;
}

std::vector<int64_t> Reader::Fields(const std::string& tag, std::initializer_list<Field> fields) {
  std::vector<int64_t> out = Fields(tag, fields.size());
  size_t i = 0;
  for (const Field& field : fields) {
    CheckRange(tag, field, out[i++]);
  }
  return out;
}

void Reader::CheckRange(const std::string& tag, const Field& field, int64_t value) {
  if (ok() && (value < field.min || value > field.max)) {
    Fail(std::string(value < 0 && field.min == 0 ? "negative " : "out-of-range ") + field.name +
         " on '" + tag + "': " + std::to_string(value));
  }
}

std::string Reader::PeekTag() {
  if (!ok()) {
    return "";
  }
  const std::istream::pos_type pos = is_.tellg();
  std::string line;
  if (!std::getline(is_, line)) {
    is_.clear();
    is_.seekg(pos);
    return "";
  }
  is_.seekg(pos);
  const size_t space = line.find(' ');
  return space == std::string::npos ? line : line.substr(0, space);
}

uint64_t Reader::Count(const std::string& tag) {
  const std::vector<int64_t> fields = Fields(tag, {Counter("count")});
  // Refuse absurd counts so a corrupt file can't balloon allocation.
  if (ok() && fields[0] > (1ll << 24)) {
    Fail("implausible count on '" + tag + "'");
    return 0;
  }
  return ok() ? static_cast<uint64_t>(fields[0]) : 0;
}

namespace {

// Reads one tagged line of non-negative counters into |fields|, in order; a
// negative value fails, naming its field.
void ReadCounters(Reader& reader, const std::string& tag,
                  std::initializer_list<std::pair<const char*, uint64_t*>> fields) {
  const std::vector<int64_t> values = reader.Fields(tag, fields.size());
  size_t i = 0;
  for (const auto& [name, dest] : fields) {
    reader.CheckRange(tag, Counter(name), values[i]);
    *dest = static_cast<uint64_t>(values[i++]);
  }
}

// Reads a "<tag> N" line and N "<entry> key count" lines into |histogram|.
// Keys must ascend strictly, as SerializeStats writes them: a repeated key
// would be merged away on load.
template <typename Key>
void ReadHistogram(Reader& reader, const std::string& tag, const std::string& entry,
                   std::map<Key, uint64_t>* histogram) {
  for (uint64_t i = 0, n = reader.Count(tag); i < n && reader.ok(); ++i) {
    const std::vector<int64_t> kv = reader.Fields(entry, {Int("key"), Counter("count")});
    const Key key = static_cast<Key>(kv[0]);
    if (reader.ok() && !histogram->empty() && !(histogram->rbegin()->first < key)) {
      reader.Fail("'" + tag + "' keys not strictly ascending at " + std::to_string(kv[0]));
    }
    (*histogram)[key] = static_cast<uint64_t>(kv[1]);
  }
}

}  // namespace

void SerializeFinding(std::ostream& os, const Finding& finding) {
  os << "f " << static_cast<int>(finding.kind) << " " << finding.indicator << " "
     << static_cast<int>(finding.triaged) << " " << finding.iteration << " "
     << static_cast<int>(finding.confirmation) << " " << finding.confirm_hits << " "
     << finding.confirm_runs << "\n";
  os << "fs " << Escape(finding.signature) << "\n";
  os << "fd " << Escape(finding.details) << "\n";
}

void ParseFinding(Reader& reader, Finding* finding) {
  const std::vector<int64_t> fields =
      reader.Fields("f", {Int("kind"), Int("indicator"), Int("triaged"), Counter("iteration"),
                          Int("confirmation"), Int("confirm_hits"), Int("confirm_runs")});
  finding->kind = static_cast<bpf::ReportKind>(fields[0]);
  finding->indicator = static_cast<int>(fields[1]);
  finding->triaged = static_cast<KnownBug>(fields[2]);
  finding->iteration = fields[3];
  finding->confirmation = static_cast<Confirmation>(fields[4]);
  finding->confirm_hits = static_cast<int>(fields[5]);
  finding->confirm_runs = static_cast<int>(fields[6]);
  finding->signature = Unescape(reader.Line("fs"));
  finding->details = Unescape(reader.Line("fd"));
}

void SerializeStats(std::ostream& os, const CampaignStats& stats) {
  os << "tool " << Escape(stats.tool) << "\n";
  os << "counters " << stats.iterations << " " << stats.accepted << " " << stats.rejected
     << " " << stats.exec_runs << " " << stats.exec_failures << " " << stats.panics << " "
     << stats.substrate_rebuilds << " " << stats.fault_injected << " " << stats.insns_total
     << " " << stats.insns_alu_jmp << " " << stats.insns_mem << " " << stats.insns_call
     << " " << stats.final_coverage << "\n";
  os << "reject_errno " << stats.reject_errno.size() << "\n";
  for (const auto& [err, count] : stats.reject_errno) {
    os << "e " << err << " " << count << "\n";
  }
  os << "exec_errno " << stats.exec_errno.size() << "\n";
  for (const auto& [err, count] : stats.exec_errno) {
    os << "x " << err << " " << count << "\n";
  }
  os << "outcomes " << stats.outcomes.size() << "\n";
  for (const auto& [outcome, count] : stats.outcomes) {
    os << "o " << static_cast<int>(outcome) << " " << count << "\n";
  }
  os << "sanitizer " << stats.sanitizer.programs << " " << stats.sanitizer.insns_before
     << " " << stats.sanitizer.insns_after << " " << stats.sanitizer.mem_sites << " "
     << stats.sanitizer.alu_sites << " " << stats.sanitizer.skipped_fp << " "
     << stats.sanitizer.skipped_rewritten << "\n";
  os << "curve " << stats.curve.size() << "\n";
  for (const CoveragePoint& point : stats.curve) {
    os << "c " << point.iteration << " " << point.covered << "\n";
  }
  os << "findings " << stats.findings.size() << "\n";
  for (const Finding& finding : stats.findings) {
    SerializeFinding(os, finding);
  }
}

void ParseStats(Reader& reader, CampaignStats* stats) {
  stats->tool = Unescape(reader.Line("tool"));
  ReadCounters(reader, "counters",
               {{"iterations", &stats->iterations},
                {"accepted", &stats->accepted},
                {"rejected", &stats->rejected},
                {"exec_runs", &stats->exec_runs},
                {"exec_failures", &stats->exec_failures},
                {"panics", &stats->panics},
                {"substrate_rebuilds", &stats->substrate_rebuilds},
                {"fault_injected", &stats->fault_injected},
                {"insns_total", &stats->insns_total},
                {"insns_alu_jmp", &stats->insns_alu_jmp},
                {"insns_mem", &stats->insns_mem},
                {"insns_call", &stats->insns_call},
                {"final_coverage", &stats->final_coverage}});
  ReadHistogram(reader, "reject_errno", "e", &stats->reject_errno);
  ReadHistogram(reader, "exec_errno", "x", &stats->exec_errno);
  ReadHistogram(reader, "outcomes", "o", &stats->outcomes);
  ReadCounters(reader, "sanitizer",
               {{"programs", &stats->sanitizer.programs},
                {"insns_before", &stats->sanitizer.insns_before},
                {"insns_after", &stats->sanitizer.insns_after},
                {"mem_sites", &stats->sanitizer.mem_sites},
                {"alu_sites", &stats->sanitizer.alu_sites},
                {"skipped_fp", &stats->sanitizer.skipped_fp},
                {"skipped_rewritten", &stats->sanitizer.skipped_rewritten}});
  for (uint64_t i = 0, n = reader.Count("curve"); i < n && reader.ok(); ++i) {
    const std::vector<int64_t> point =
        reader.Fields("c", {Counter("iteration"), Counter("covered")});
    stats->curve.push_back(
        CoveragePoint{static_cast<uint64_t>(point[0]), static_cast<size_t>(point[1])});
  }
  for (uint64_t i = 0, n = reader.Count("findings"); i < n && reader.ok(); ++i) {
    Finding finding;
    ParseFinding(reader, &finding);
    if (reader.ok()) {
      stats->finding_signatures.insert(finding.signature);
      stats->findings.push_back(std::move(finding));
    }
  }
}

void SerializeExcludedCounters(std::ostream& os, const CampaignStats& stats) {
  os << "mmorph " << stats.metamorph_bases << " " << stats.metamorph_variants << " "
     << stats.metamorph_verdict_divergences << " " << stats.metamorph_witness_divergences
     << " " << stats.metamorph_sanitizer_divergences << "\n";
  os << "supv " << stats.worker_crashes << " " << stats.worker_hangs << " "
     << stats.worker_exits << " " << stats.worker_restarts << " " << stats.epochs_abandoned
     << " " << stats.quarantined_cases << "\n";
  os << "conf " << stats.conf_cases << " " << stats.conf_passed << " "
     << stats.conf_mismatches << " " << stats.conf_rejects << " " << stats.conf_seeded
     << "\n";
}

void ParseExcludedCounters(Reader& reader, CampaignStats* stats) {
  // Optional and ignored: the counters of the removed digest caches
  // (verdict, its canonical level, decode, JIT), present in checkpoints and
  // worker frames written before their removal.
  static const std::pair<const char*, size_t> kRemovedCacheLines[] = {
      {"vcache", 2}, {"ccache", 2}, {"dcache", 3}, {"jcache", 3}};
  for (const auto& [tag, fields] : kRemovedCacheLines) {
    if (reader.PeekTag() == tag) {
      reader.Fields(tag, fields);
    }
  }
  ReadCounters(reader, "mmorph",
               {{"bases", &stats->metamorph_bases},
                {"variants", &stats->metamorph_variants},
                {"verdict_divergences", &stats->metamorph_verdict_divergences},
                {"witness_divergences", &stats->metamorph_witness_divergences},
                {"sanitizer_divergences", &stats->metamorph_sanitizer_divergences}});
  ReadCounters(reader, "supv",
               {{"worker_crashes", &stats->worker_crashes},
                {"worker_hangs", &stats->worker_hangs},
                {"worker_exits", &stats->worker_exits},
                {"worker_restarts", &stats->worker_restarts},
                {"epochs_abandoned", &stats->epochs_abandoned},
                {"quarantined_cases", &stats->quarantined_cases}});
  // Optional (checkpoints predating the conformance subsystem lack it).
  if (reader.PeekTag() == "conf") {
    ReadCounters(reader, "conf",
                 {{"cases", &stats->conf_cases},
                  {"passed", &stats->conf_passed},
                  {"mismatches", &stats->conf_mismatches},
                  {"rejects", &stats->conf_rejects},
                  {"seeded", &stats->conf_seeded}});
  }
}

void SerializeCase(std::ostream& os, const FuzzCase& fc) {
  os << "case " << static_cast<int>(fc.prog.type) << " "
     << (fc.prog.offload_requested ? 1 : 0) << " " << fc.prog.insns.size() << " "
     << fc.maps.size() << " " << fc.test_runs << " " << (fc.do_attach ? 1 : 0) << " "
     << static_cast<int>(fc.attach_target) << " " << fc.events.size() << " "
     << (fc.do_xdp_install ? 1 : 0) << " " << (fc.do_map_batch ? 1 : 0) << "\n";
  for (const bpf::Insn& insn : fc.prog.insns) {
    os << "i " << static_cast<int>(insn.opcode) << " " << static_cast<int>(insn.dst)
       << " " << static_cast<int>(insn.src) << " " << insn.off << " " << insn.imm
       << "\n";
  }
  for (const bpf::MapDef& def : fc.maps) {
    os << "m " << static_cast<int>(def.type) << " " << def.key_size << " "
       << def.value_size << " " << def.max_entries << "\n";
  }
  for (const bpf::TracepointId event : fc.events) {
    os << "ev " << static_cast<int>(event) << "\n";
  }
}

void ParseCase(Reader& reader, FuzzCase* fc) {
  const std::vector<int64_t> header =
      reader.Fields("case", {Int("prog_type"), Flag("offload_requested"), Counter("insns"),
                             Counter("maps"), Int("test_runs"), Flag("do_attach"),
                             Int("attach_target"), Counter("events"), Flag("do_xdp_install"),
                             Flag("do_map_batch")});
  fc->prog.type = static_cast<bpf::ProgType>(header[0]);
  fc->prog.offload_requested = header[1] != 0;
  fc->test_runs = static_cast<int>(header[4]);
  fc->do_attach = header[5] != 0;
  fc->attach_target = static_cast<bpf::TracepointId>(header[6]);
  fc->do_xdp_install = header[8] != 0;
  fc->do_map_batch = header[9] != 0;
  for (int64_t k = 0; k < header[2] && reader.ok(); ++k) {
    const std::vector<int64_t> fields =
        reader.Fields("i", {Field{"opcode", 0, 255}, Field{"dst", 0, 255}, Field{"src", 0, 255},
                            Field{"off", INT16_MIN, INT16_MAX}, Int("imm")});
    bpf::Insn insn;
    insn.opcode = static_cast<uint8_t>(fields[0]);
    insn.dst = static_cast<uint8_t>(fields[1]);
    insn.src = static_cast<uint8_t>(fields[2]);
    insn.off = static_cast<int16_t>(fields[3]);
    insn.imm = static_cast<int32_t>(fields[4]);
    fc->prog.insns.push_back(insn);
  }
  for (int64_t k = 0; k < header[3] && reader.ok(); ++k) {
    const std::vector<int64_t> fields =
        reader.Fields("m", {Int("map_type"), Field{"key_size", 0, UINT32_MAX},
                            Field{"value_size", 0, UINT32_MAX},
                            Field{"max_entries", 0, UINT32_MAX}});
    bpf::MapDef def;
    def.type = static_cast<bpf::MapType>(fields[0]);
    def.key_size = static_cast<uint32_t>(fields[1]);
    def.value_size = static_cast<uint32_t>(fields[2]);
    def.max_entries = static_cast<uint32_t>(fields[3]);
    fc->maps.push_back(def);
  }
  for (int64_t k = 0; k < header[7] && reader.ok(); ++k) {
    const std::vector<int64_t> fields = reader.Fields("ev", {Int("event")});
    fc->events.push_back(static_cast<bpf::TracepointId>(fields[0]));
  }
}

void SerializeCorpus(std::ostream& os, const std::vector<FuzzCase>& corpus) {
  os << "corpus " << corpus.size() << "\n";
  for (const FuzzCase& fc : corpus) {
    SerializeCase(os, fc);
  }
}

void ParseCorpus(Reader& reader, std::vector<FuzzCase>* corpus) {
  for (uint64_t i = 0, n = reader.Count("corpus"); i < n && reader.ok(); ++i) {
    FuzzCase fc;
    ParseCase(reader, &fc);
    if (reader.ok()) {
      corpus->push_back(std::move(fc));
    }
  }
}

}  // namespace serialize
}  // namespace bvf
