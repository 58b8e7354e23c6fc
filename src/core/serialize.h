// Line-oriented campaign serialization shared by the checkpoint format
// (src/core/checkpoint.cc), the write-ahead findings journal
// (src/core/journal), and the supervisor's pipe protocol
// (src/core/supervisor/wire.cc). One grammar, three transports: a FuzzCase,
// a Finding, or a stats body serializes to the same bytes whether it lands
// in a checkpoint file, a journal record, or an epoch-result frame, so the
// formats cannot drift apart.
//
// Strings live to end-of-line after their tag; only line-structure
// characters (backslash, newline, carriage return) are escaped.

#ifndef SRC_CORE_SERIALIZE_H_
#define SRC_CORE_SERIALIZE_H_

#include <cstdint>
#include <initializer_list>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/fuzzer.h"

namespace bvf {
namespace serialize {

uint64_t Fnv1a(const std::string& data);
std::string Hex64(uint64_t value);

std::string Escape(const std::string& s);
std::string Unescape(const std::string& s);

// One integer field of a tagged line and the range its destination holds.
// A value outside the range would be stored wrapped or truncated (a negative
// count read into a uint64_t), so the reader fails on it instead, naming the
// field; a file that loads therefore re-serializes to the same numbers.
struct Field {
  const char* name;
  int64_t min = 0;
  int64_t max = std::numeric_limits<int64_t>::max();
};
// Non-negative counter (the default range).
inline Field Counter(const char* name) { return Field{name}; }
// int / enum destination.
inline Field Int(const char* name) {
  return Field{name, std::numeric_limits<int32_t>::min(), std::numeric_limits<int32_t>::max()};
}
// bool destination.
inline Field Flag(const char* name) { return Field{name, 0, 1}; }

// Line reader with tag validation; records the first error and makes every
// subsequent read a no-op so parse code stays linear.
class Reader {
 public:
  explicit Reader(std::istream& is) : is_(is) {}

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  void Fail(const std::string& message) {
    if (error_.empty()) {
      error_ = message;
    }
  }

  // Reads one line, checks its tag, and returns the remainder after the tag
  // (without leading space). Empty optional-style: "" on failure.
  std::string Line(const std::string& tag);

  // Parses space-separated integer fields from a tagged line. Each token
  // must be a whole decimal int64; there must be exactly |count| of them.
  std::vector<int64_t> Fields(const std::string& tag, size_t count);
  // As above, one field per entry of |fields|, each range-checked.
  std::vector<int64_t> Fields(const std::string& tag, std::initializer_list<Field> fields);

  // Fails unless |value| lies in |field|'s range, naming the field and tag.
  void CheckRange(const std::string& tag, const Field& field, int64_t value);

  // Tag of the next line without consuming it ("" at EOF/after an error).
  // Lets parsers accept files from before an optional line existed: peek,
  // and only consume when the tag matches.
  std::string PeekTag();

  // A one-field line holding a plausible element count.
  uint64_t Count(const std::string& tag);

  // True once every line has been read.
  bool AtEnd() { return is_.peek() == std::istream::traits_type::eof(); }

 private:
  std::istream& is_;
  std::string error_;
};

// Canonical stats body shared by checkpoint files, StatsDigest, and the
// supervisor's epoch-result frames. Excludes stats.options (covered by the
// fingerprint), the digest-excluded counters (metamorph volume, supervisor
// accounting, conformance prologue — each rides its own checkpoint line),
// and the resume bookkeeping fields.
void SerializeStats(std::ostream& os, const CampaignStats& stats);
void ParseStats(Reader& reader, CampaignStats* stats);

// The digest-excluded counters, one tagged line per group: mmorph (metamorph
// volume), supv (supervisor accounting), conf (conformance prologue).
// Checkpoint files and the supervisor's epoch-result frames both carry them
// this way. The parser also accepts older checkpoints: the removed caches'
// vcache, ccache, dcache and jcache lines (each optional and skipped) and a
// missing conf line.
void SerializeExcludedCounters(std::ostream& os, const CampaignStats& stats);
void ParseExcludedCounters(Reader& reader, CampaignStats* stats);

// One fuzz case ("case" header + i/m/ev lines).
void SerializeCase(std::ostream& os, const FuzzCase& fc);
void ParseCase(Reader& reader, FuzzCase* fc);

// A corpus: "corpus <n>" followed by n cases.
void SerializeCorpus(std::ostream& os, const std::vector<FuzzCase>& corpus);
void ParseCorpus(Reader& reader, std::vector<FuzzCase>* corpus);

// One finding (f/fs/fd triplet, the same shape the stats body uses).
void SerializeFinding(std::ostream& os, const Finding& finding);
void ParseFinding(Reader& reader, Finding* finding);

}  // namespace serialize
}  // namespace bvf

#endif  // SRC_CORE_SERIALIZE_H_
