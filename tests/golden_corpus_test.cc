// Golden-corpus regression suite: byte-exact disassembly snapshots of the
// structured generator's output for 32 fixed seeds (tests/data/golden/).
//
// The generator's byte stream is campaign semantics: fingerprints, digests,
// program digests, and the metamorphic oracle's variant derivation all key
// off the exact instruction bytes. Any change to generation — even a
// refactor that "only" reorders RNG draws — shifts every downstream result,
// so it must show up here as an explicit, reviewed snapshot diff.
//
// To regenerate after an intentional generator change:
//   scripts/regen_golden.sh   (or run this binary with BVF_GOLDEN_REGEN=1)

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/core/structured_gen.h"
#include "src/kernel/rng.h"

namespace bvf {
namespace {

constexpr uint64_t kNumSeeds = 32;

std::string Snapshot(uint64_t seed) {
  StructuredGenerator generator(bpf::KernelVersion::kBpfNext);
  bpf::Rng rng(seed);
  const FuzzCase fc = generator.Generate(rng);
  char header[160];
  snprintf(header, sizeof(header),
           "# golden seed=%llu type=%d insns=%zu maps=%zu test_runs=%d "
           "attach=%d xdp=%d batch=%d\n",
           static_cast<unsigned long long>(seed), static_cast<int>(fc.prog.type),
           fc.prog.insns.size(), fc.maps.size(), fc.test_runs,
           fc.do_attach ? 1 : 0, fc.do_xdp_install ? 1 : 0,
           fc.do_map_batch ? 1 : 0);
  return std::string(header) + fc.prog.Disassemble();
}

std::string GoldenPath(uint64_t seed) {
  char buf[32];
  snprintf(buf, sizeof(buf), "/seed_%02llu.txt",
           static_cast<unsigned long long>(seed));
  return std::string(BVF_GOLDEN_DIR) + buf;
}

TEST(GoldenCorpusTest, GenerationIsDeterministic) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    EXPECT_EQ(Snapshot(seed), Snapshot(seed)) << "seed " << seed;
  }
}

TEST(GoldenCorpusTest, SnapshotsAreByteStable) {
  const bool regen = std::getenv("BVF_GOLDEN_REGEN") != nullptr;
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    const std::string snapshot = Snapshot(seed);
    const std::string path = GoldenPath(seed);
    if (regen) {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      ASSERT_TRUE(os) << "cannot write " << path;
      os << snapshot;
      continue;
    }
    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is) << "missing golden file " << path
                    << " (run scripts/regen_golden.sh)";
    std::stringstream want;
    want << is.rdbuf();
    EXPECT_EQ(want.str(), snapshot)
        << "generator output drifted from golden snapshot for seed " << seed
        << "; if intentional, regenerate via scripts/regen_golden.sh and "
           "review the diff";
  }
}

}  // namespace
}  // namespace bvf
