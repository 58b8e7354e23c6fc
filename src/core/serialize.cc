#include "src/core/serialize.h"

#include <cstdio>
#include <initializer_list>
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
  int64_t value = 0;
  while (ss >> value) {
    out.push_back(value);
  }
  if (ok() && out.size() != count) {
    Fail("field count mismatch on '" + tag + "'");
  }
  out.resize(count, 0);
  return out;
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
  const std::vector<int64_t> fields = Fields(tag, 1);
  if (ok() && fields[0] < 0) {
    Fail("negative count on '" + tag + "'");
    return 0;
  }
  // Refuse absurd counts so a corrupt file can't balloon allocation.
  if (ok() && fields[0] > (1ll << 24)) {
    Fail("implausible count on '" + tag + "'");
    return 0;
  }
  return ok() ? static_cast<uint64_t>(fields[0]) : 0;
}

void SerializeFinding(std::ostream& os, const Finding& finding) {
  os << "f " << static_cast<int>(finding.kind) << " " << finding.indicator << " "
     << static_cast<int>(finding.triaged) << " " << finding.iteration << " "
     << static_cast<int>(finding.confirmation) << " " << finding.confirm_hits << " "
     << finding.confirm_runs << "\n";
  os << "fs " << Escape(finding.signature) << "\n";
  os << "fd " << Escape(finding.details) << "\n";
}

void ParseFinding(Reader& reader, Finding* finding) {
  const std::vector<int64_t> fields = reader.Fields("f", 7);
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
  const std::vector<int64_t> counters = reader.Fields("counters", 13);
  stats->iterations = counters[0];
  stats->accepted = counters[1];
  stats->rejected = counters[2];
  stats->exec_runs = counters[3];
  stats->exec_failures = counters[4];
  stats->panics = counters[5];
  stats->substrate_rebuilds = counters[6];
  stats->fault_injected = counters[7];
  stats->insns_total = counters[8];
  stats->insns_alu_jmp = counters[9];
  stats->insns_mem = counters[10];
  stats->insns_call = counters[11];
  stats->final_coverage = counters[12];
  for (uint64_t i = 0, n = reader.Count("reject_errno"); i < n && reader.ok(); ++i) {
    const std::vector<int64_t> kv = reader.Fields("e", 2);
    stats->reject_errno[static_cast<int>(kv[0])] = kv[1];
  }
  for (uint64_t i = 0, n = reader.Count("exec_errno"); i < n && reader.ok(); ++i) {
    const std::vector<int64_t> kv = reader.Fields("x", 2);
    stats->exec_errno[static_cast<int>(kv[0])] = kv[1];
  }
  for (uint64_t i = 0, n = reader.Count("outcomes"); i < n && reader.ok(); ++i) {
    const std::vector<int64_t> kv = reader.Fields("o", 2);
    stats->outcomes[static_cast<CaseOutcome>(kv[0])] = kv[1];
  }
  const std::vector<int64_t> san = reader.Fields("sanitizer", 7);
  stats->sanitizer.programs = san[0];
  stats->sanitizer.insns_before = san[1];
  stats->sanitizer.insns_after = san[2];
  stats->sanitizer.mem_sites = san[3];
  stats->sanitizer.alu_sites = san[4];
  stats->sanitizer.skipped_fp = san[5];
  stats->sanitizer.skipped_rewritten = san[6];
  for (uint64_t i = 0, n = reader.Count("curve"); i < n && reader.ok(); ++i) {
    const std::vector<int64_t> point = reader.Fields("c", 2);
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

namespace {

// Reads one tagged line of counters into |fields|, in order.
void ReadCounters(Reader& reader, const std::string& tag,
                  std::initializer_list<uint64_t*> fields) {
  const std::vector<int64_t> values = reader.Fields(tag, fields.size());
  size_t i = 0;
  for (uint64_t* field : fields) {
    *field = static_cast<uint64_t>(values[i++]);
  }
}

}  // namespace

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
               {&stats->metamorph_bases, &stats->metamorph_variants,
                &stats->metamorph_verdict_divergences, &stats->metamorph_witness_divergences,
                &stats->metamorph_sanitizer_divergences});
  ReadCounters(reader, "supv",
               {&stats->worker_crashes, &stats->worker_hangs, &stats->worker_exits,
                &stats->worker_restarts, &stats->epochs_abandoned,
                &stats->quarantined_cases});
  // Optional (checkpoints predating the conformance subsystem lack it).
  if (reader.PeekTag() == "conf") {
    ReadCounters(reader, "conf",
                 {&stats->conf_cases, &stats->conf_passed, &stats->conf_mismatches,
                  &stats->conf_rejects, &stats->conf_seeded});
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
  const std::vector<int64_t> header = reader.Fields("case", 10);
  fc->prog.type = static_cast<bpf::ProgType>(header[0]);
  fc->prog.offload_requested = header[1] != 0;
  fc->test_runs = static_cast<int>(header[4]);
  fc->do_attach = header[5] != 0;
  fc->attach_target = static_cast<bpf::TracepointId>(header[6]);
  fc->do_xdp_install = header[8] != 0;
  fc->do_map_batch = header[9] != 0;
  for (int64_t k = 0; k < header[2] && reader.ok(); ++k) {
    const std::vector<int64_t> fields = reader.Fields("i", 5);
    bpf::Insn insn;
    insn.opcode = static_cast<uint8_t>(fields[0]);
    insn.dst = static_cast<uint8_t>(fields[1]);
    insn.src = static_cast<uint8_t>(fields[2]);
    insn.off = static_cast<int16_t>(fields[3]);
    insn.imm = static_cast<int32_t>(fields[4]);
    fc->prog.insns.push_back(insn);
  }
  for (int64_t k = 0; k < header[3] && reader.ok(); ++k) {
    const std::vector<int64_t> fields = reader.Fields("m", 4);
    bpf::MapDef def;
    def.type = static_cast<bpf::MapType>(fields[0]);
    def.key_size = static_cast<uint32_t>(fields[1]);
    def.value_size = static_cast<uint32_t>(fields[2]);
    def.max_entries = static_cast<uint32_t>(fields[3]);
    fc->maps.push_back(def);
  }
  for (int64_t k = 0; k < header[7] && reader.ok(); ++k) {
    const std::vector<int64_t> fields = reader.Fields("ev", 1);
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
