// The kcov-style coverage registry: site registration, hit tracking,
// indexed groups, and the reset semantics campaigns rely on. Per-case
// novelty (campaign feedback) is the sinks' job: tests/parallel_test.cc.

#include <gtest/gtest.h>

#include "src/kernel/coverage.h"

namespace bpf {
namespace {

// The registry is process-global; every test works against deltas.

TEST(CoverageTest, SiteRegistrationAndHits) {
  Coverage& cov = Coverage::Get();
  cov.ResetHits();
  const size_t before_sites = cov.site_count();
  const size_t before_hits = cov.hit_count();

  const int site = cov.RegisterSite("file.cc", 1);
  EXPECT_EQ(cov.site_count(), before_sites + 1);
  EXPECT_EQ(cov.hit_count(), before_hits);

  cov.Hit(site);
  EXPECT_EQ(cov.hit_count(), before_hits + 1);
  cov.Hit(site);  // idempotent for distinct-coverage counting
  EXPECT_EQ(cov.hit_count(), before_hits + 1);
}

TEST(CoverageTest, GroupsAreContiguousAndBounded) {
  Coverage& cov = Coverage::Get();
  cov.ResetHits();
  const size_t before_hits = cov.hit_count();
  const int base = cov.RegisterGroup("file.cc", 20, 8);
  // The BVF_COV_IDX macro guards the range; Hit() itself trusts its input.
  cov.Hit(base);
  cov.Hit(base + 7);
  EXPECT_EQ(cov.hit_count(), before_hits + 2);
}

TEST(CoverageTest, ResetClearsHitsKeepsSites) {
  Coverage& cov = Coverage::Get();
  const int site = cov.RegisterSite("file.cc", 30);
  cov.Hit(site);
  const size_t sites = cov.site_count();
  cov.ResetHits();
  EXPECT_EQ(cov.hit_count(), 0u);
  EXPECT_EQ(cov.site_count(), sites);
}

TEST(CoverageTest, DisableSuppressesHits) {
  Coverage& cov = Coverage::Get();
  cov.ResetHits();
  const int site = cov.RegisterSite("file.cc", 40);
  cov.set_enabled(false);
  cov.Hit(site);
  EXPECT_EQ(cov.hit_count(), 0u);
  cov.set_enabled(true);
  cov.Hit(site);
  EXPECT_EQ(cov.hit_count(), 1u);
}

TEST(CoverageTest, CoveredSitesListsLocations) {
  Coverage& cov = Coverage::Get();
  cov.ResetHits();
  const int site = cov.RegisterSite("special_file.cc", 99);
  cov.Hit(site);
  bool found = false;
  for (const std::string& location : cov.CoveredSites()) {
    found |= location == "special_file.cc:99";
  }
  EXPECT_TRUE(found);
}

TEST(CoverageTest, MacroRegistersOnce) {
  Coverage& cov = Coverage::Get();
  cov.ResetHits();
  const size_t before_sites = cov.site_count();
  for (int i = 0; i < 5; ++i) {
    BVF_COV();
  }
  EXPECT_EQ(cov.site_count(), before_sites + 1);
  const size_t sites_after_single = cov.site_count();
  for (int i = 0; i < 3; ++i) {
    BVF_COV_IDX(4, i);
  }
  EXPECT_EQ(cov.site_count(), sites_after_single + 4);
  BVF_COV_IDX(4, 99);  // out of range: ignored, no crash
}

}  // namespace
}  // namespace bpf
