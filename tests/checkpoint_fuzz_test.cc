// Deterministic mutational fuzz of LoadCheckpoint (DESIGN.md §8, checkpoint
// v2). A short campaign writes a real mid-campaign checkpoint; a fixed-seed
// bpf::Rng then derives a few thousand mutants from it — byte flips,
// truncations, deleted and duplicated lines, out-of-range numbers, and
// re-inserted legacy counter lines — and re-seals each mutant's checksum
// trailer so the parser itself is reached, not just the checksum check.
// Every mutant must either load or fail with a non-empty error; a crash or a
// hang fails the suite (and gate 9 of scripts/smoke_all.sh runs it under
// ASan/UBSan). A mutant that loads must re-serialize to the same fields: a
// value the parser wrapped, truncated, merged or dropped would resume a
// campaign from numbers the file never held.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/core/parallel.h"
#include "src/core/serialize.h"
#include "src/core/structured_gen.h"
#include "src/kernel/rng.h"

namespace bvf {
namespace {

constexpr char kSumTag[] = "sum ";
constexpr int kMutants = 3000;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << data;
}

// The checkpoint body without its "sum <hex>\n" trailer.
std::string StripTrailer(const std::string& file) {
  const size_t trailer = file.rfind(kSumTag);
  return trailer == std::string::npos ? file : file.substr(0, trailer);
}

std::string Seal(const std::string& body) {
  return body + kSumTag + serialize::Hex64(serialize::Fnv1a(body)) + "\n";
}

std::vector<std::string> SplitLines(const std::string& body) {
  std::vector<std::string> lines;
  std::istringstream is(body);
  std::string line;
  while (std::getline(is, line)) {
    lines.push_back(line);
  }
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

// A mid-campaign checkpoint from a short real campaign: corpus, findings,
// coverage keys and every counter line are populated.
const std::string& SeedBody() {
  static const std::string body = [] {
    const std::string path = TempPath("fuzz_seed.bvfcp");
    CampaignOptions options;
    options.iterations = 256;
    options.seed = 3;
    options.epoch_len = 32;
    options.bugs = bpf::BugConfig::All();
    options.metamorph = true;
    options.stop_after = 32;
    options.checkpoint_path = path;
    StructuredGenerator generator(options.version);
    ParallelFuzzer fuzzer(generator, options);
    fuzzer.Run();
    std::string file = ReadFile(path);
    std::remove(path.c_str());
    return StripTrailer(file);
  }();
  return body;
}

const char* const kOddNumbers[] = {
    "-1", "0", "16777217", "9223372036854775807", "-9223372036854775808",
    "18446744073709551616", "99999999999999999999999", "4294967296", "x", "",
};

const char* OddToken(bpf::Rng& rng) {
  return kOddNumbers[rng.Below(std::size(kOddNumbers))];
}

// Replaces one whitespace-separated token of |line| (other than the tag) with
// an out-of-range or malformed number.
std::string OddNumber(bpf::Rng& rng, const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    tokens.push_back(token);
  }
  if (tokens.size() < 2) {
    return line + " " + OddToken(rng);
  }
  tokens[1 + rng.Below(tokens.size() - 1)] = OddToken(rng);
  std::string out = tokens[0];
  for (size_t i = 1; i < tokens.size(); ++i) {
    out += " " + tokens[i];
  }
  return out;
}

// The counter lines of the removed digest caches, in the order builds that
// still had them wrote them (ccache predates the others' removal).
const char* const kLegacyCacheLines[] = {"vcache 4 5", "ccache 0 0", "dcache 1 2 3",
                                         "jcache 6 7 8"};

size_t LineIndex(const std::vector<std::string>& lines, const std::string& tag) {
  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind(tag + " ", 0) == 0) {
      return i;
    }
  }
  return lines.size();
}

// Inserts a random subset of the legacy cache lines, in their original
// order, where the parent build put them: right before "mmorph".
void InsertLegacyLines(bpf::Rng& rng, std::vector<std::string>& lines) {
  const size_t at = LineIndex(lines, "mmorph");
  std::vector<std::string> legacy;
  for (const char* line : kLegacyCacheLines) {
    if (rng.Chance(0.6)) {
      legacy.push_back(line);
    }
  }
  lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), legacy.begin(), legacy.end());
}

bool IsLegacyCacheTag(const std::string& tag) {
  for (const char* legacy : kLegacyCacheLines) {
    if (std::string(legacy).rfind(tag + " ", 0) == 0) {
      return true;
    }
  }
  return false;
}

// An integer token in canonical form ("05" and "-0" load as 5 and 0), or the
// token itself when it is not a whole integer.
std::string CanonicalToken(const std::string& token) {
  const char* end = token.data() + token.size();
  int64_t signed_value = 0;
  if (const auto [ptr, ec] = std::from_chars(token.data(), end, signed_value);
      ec == std::errc() && ptr == end) {
    return std::to_string(signed_value);
  }
  uint64_t unsigned_value = 0;  // rng words use the full uint64 range
  if (const auto [ptr, ec] = std::from_chars(token.data(), end, unsigned_value);
      ec == std::errc() && ptr == end) {
    return std::to_string(unsigned_value);
  }
  return token;
}

// The fields of a checkpoint body, one string per line: string payload lines
// (tool, finding signature and details, coverage keys) unescaped, every other
// line as canonical tokens, with "key=value" tokens split. The legacy cache
// lines, which load by being dropped, and an all-zero optional "conf" line,
// which an absent one loads as, are left out.
std::vector<std::string> FieldsOf(const std::string& body) {
  static const char* const kStringTags[] = {"tool", "fs", "fd", "k"};
  std::vector<std::string> out;
  for (const std::string& line : SplitLines(body)) {
    const std::string tag = line.substr(0, line.find(' '));
    if (IsLegacyCacheTag(tag) || line == "conf 0 0 0 0 0") {
      continue;
    }
    if (std::find(std::begin(kStringTags), std::end(kStringTags), tag) !=
        std::end(kStringTags)) {
      out.push_back(tag + "|" +
                    serialize::Unescape(line.size() > tag.size() ? line.substr(tag.size() + 1)
                                                                 : ""));
      continue;
    }
    std::string fields;
    std::istringstream is(line);
    std::string token;
    while (is >> token) {
      const size_t eq = token.find('=');
      fields += eq == std::string::npos
                    ? CanonicalToken(token)
                    : token.substr(0, eq + 1) + CanonicalToken(token.substr(eq + 1));
      fields += '|';
    }
    out.push_back(fields);
  }
  return out;
}

std::string Mutate(bpf::Rng& rng, const std::string& seed) {
  std::string body = seed;
  const int rounds = 1 + static_cast<int>(rng.Below(3));
  for (int round = 0; round < rounds && !body.empty(); ++round) {
    std::vector<std::string> lines = SplitLines(body);
    switch (rng.Below(6)) {
      case 0:  // flip one bit
        body[rng.Below(body.size())] ^= static_cast<char>(1u << rng.Below(8));
        continue;
      case 1:  // truncate
        body.resize(rng.Below(body.size()));
        continue;
      case 2:  // delete a line
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(rng.Below(lines.size())));
        break;
      case 3: {  // duplicate a line
        const size_t i = rng.Below(lines.size());
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
        break;
      }
      case 4: {  // out-of-range or malformed number
        std::string& line = lines[rng.Below(lines.size())];
        line = OddNumber(rng, line);
        break;
      }
      default:
        InsertLegacyLines(rng, lines);
        break;
    }
    body = JoinLines(lines);
  }
  return body;
}

TEST(CheckpointFuzzTest, SeedCheckpointLoads) {
  const std::string path = TempPath("fuzz_seed_roundtrip.bvfcp");
  WriteFile(path, Seal(SeedBody()));
  CampaignCheckpoint cp;
  std::string error;
  ASSERT_EQ(LoadCheckpoint(path, &cp, &error), 0) << error;
  EXPECT_EQ(cp.next_iteration, 33u);
  EXPECT_FALSE(cp.corpus.empty());
  EXPECT_FALSE(cp.coverage_keys.empty());
  std::remove(path.c_str());
}

TEST(CheckpointFuzzTest, LegacyCacheLinesLoadAndAreIgnored) {
  // Checkpoints from builds that still had the digest caches carry all four
  // of their counter lines; they must load to the same state as without.
  const std::string path = TempPath("fuzz_legacy.bvfcp");
  WriteFile(path, Seal(SeedBody()));
  CampaignCheckpoint plain;
  std::string error;
  ASSERT_EQ(LoadCheckpoint(path, &plain, &error), 0) << error;

  std::vector<std::string> lines = SplitLines(SeedBody());
  const size_t at = LineIndex(lines, "mmorph");
  ASSERT_LT(at, lines.size());
  lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), std::begin(kLegacyCacheLines),
               std::end(kLegacyCacheLines));
  WriteFile(path, Seal(JoinLines(lines)));
  CampaignCheckpoint legacy;
  ASSERT_EQ(LoadCheckpoint(path, &legacy, &error), 0) << error;
  EXPECT_EQ(StatsDigest(legacy.stats), StatsDigest(plain.stats));
  EXPECT_EQ(legacy.stats.metamorph_bases, plain.stats.metamorph_bases);
  EXPECT_EQ(legacy.stats.decode_cache_hits, 0u);
  EXPECT_EQ(legacy.stats.jit_cache_hits, 0u);
  std::remove(path.c_str());
}

TEST(CheckpointFuzzTest, NegativeCounterIsRejectedNamingTheField) {
  std::vector<std::string> lines = SplitLines(SeedBody());
  const size_t at = LineIndex(lines, "counters");
  ASSERT_LT(at, lines.size());
  std::string& counters = lines[at];
  const size_t first = counters.find(' ') + 1;
  counters = counters.substr(0, first) + "-5" + counters.substr(counters.find(' ', first));
  const std::string path = TempPath("fuzz_negative.bvfcp");
  WriteFile(path, Seal(JoinLines(lines)));
  CampaignCheckpoint cp;
  std::string error;
  EXPECT_EQ(LoadCheckpoint(path, &cp, &error), -EINVAL);
  EXPECT_NE(error.find("negative iterations"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(CheckpointFuzzTest, SeedCheckpointRoundTrips) {
  const std::string path = TempPath("fuzz_seed_resave.bvfcp");
  WriteFile(path, Seal(SeedBody()));
  CampaignCheckpoint cp;
  std::string error;
  ASSERT_EQ(LoadCheckpoint(path, &cp, &error), 0) << error;
  ASSERT_EQ(SaveCheckpoint(path, cp), 0);
  EXPECT_EQ(StripTrailer(ReadFile(path)), SeedBody());
  std::remove(path.c_str());
}

TEST(CheckpointFuzzTest, EveryMutantLoadsOrFailsWithAnError) {
  const std::string& seed = SeedBody();
  ASSERT_FALSE(seed.empty());
  const std::string path = TempPath("fuzz_mutant.bvfcp");
  const std::string resaved = TempPath("fuzz_mutant_resaved.bvfcp");
  bpf::Rng rng(0xc4ec4901);
  int loaded = 0;
  int rejected = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string body = Mutate(rng, seed);
    // Mostly re-sealed so the parser is reached; now and then left with the
    // seed's stale trailer so the checksum path is fuzzed too.
    WriteFile(path, rng.Chance(0.95) ? Seal(body) : body + Seal(seed).substr(seed.size()));
    CampaignCheckpoint cp;
    std::string error;
    const int rc = LoadCheckpoint(path, &cp, &error);
    if (rc == 0) {
      ++loaded;
      ASSERT_EQ(SaveCheckpoint(resaved, cp), 0);
      const std::vector<std::string> want = FieldsOf(body);
      const std::vector<std::string> got = FieldsOf(StripTrailer(ReadFile(resaved)));
      const auto diverged = std::mismatch(want.begin(), want.end(), got.begin(), got.end());
      EXPECT_TRUE(diverged.first == want.end() && diverged.second == got.end())
          << "mutant " << i << " re-serializes differently: file has '"
          << (diverged.first == want.end() ? "<end>" : *diverged.first) << "', reload has '"
          << (diverged.second == got.end() ? "<end>" : *diverged.second) << "'";
    } else {
      ++rejected;
      EXPECT_LT(rc, 0) << "mutant " << i;
      EXPECT_FALSE(error.empty()) << "mutant " << i << " failed without a reason";
    }
  }
  // Both outcomes must be exercised, or the mutator is not reaching the
  // parser (everything rejected) or not mutating (everything loaded).
  EXPECT_GT(loaded, kMutants / 20);
  EXPECT_GT(rejected, kMutants / 4);
  std::remove(path.c_str());
  std::remove(resaved.c_str());
}

}  // namespace
}  // namespace bvf
