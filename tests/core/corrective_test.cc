#include "core/corrective.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "testing/test_explore.h"
#include "util/random.h"
#include "util/run_guard.h"

namespace divexp {
namespace {

using testing::ExploreForTest;

// a0=v1 is strongly divergent; adding a1=v1 pulls the rate back to the
// overall level — a1=v1 is a corrective item for {a0=v1} (Def. 4.2).
PatternTable MakeCorrectiveTable() {
  std::vector<std::vector<int>> rows;
  std::string outcomes;
  // a0=v0 background: rate 0.2 (40 rows).
  for (int k = 0; k < 40; ++k) {
    rows.push_back({0, k % 2});
    outcomes += (k % 5 == 0) ? 'T' : 'F';
  }
  // a0=v1, a1=v0: rate 0.9 (20 rows) -> divergent.
  for (int k = 0; k < 20; ++k) {
    rows.push_back({1, 0});
    outcomes += (k < 18) ? 'T' : 'F';
  }
  // a0=v1, a1=v1: rate ~0.3 (20 rows) -> corrected back near overall.
  for (int k = 0; k < 20; ++k) {
    rows.push_back({1, 1});
    outcomes += (k < 6) ? 'T' : 'F';
  }
  return ExploreForTest(rows, {2, 2}, outcomes, 0.05);
}

TEST(CorrectiveTest, FindsTheInjectedCorrectiveItem) {
  const PatternTable table = MakeCorrectiveTable();
  const auto items = FindCorrectiveItems(table);
  ASSERT_FALSE(items.empty());
  // The strongest corrective pair must be ({a0=v1}, a1=v1):
  // |Δ({a0=v1})| ≈ 0.6−0.4=0.2... verify against the table directly.
  const CorrectiveItem& top = items.front();
  EXPECT_EQ(table.ItemsetName(top.base), "a0=v1");
  EXPECT_EQ(table.catalog().ItemName(top.item), "a1=v1");
  EXPECT_GT(top.factor, 0.0);
  EXPECT_NEAR(top.factor,
              std::fabs(top.base_divergence) -
                  std::fabs(top.with_divergence),
              1e-12);
}

TEST(CorrectiveTest, EveryReportedPairReducesAbsoluteDivergence) {
  const PatternTable table = MakeCorrectiveTable();
  for (const CorrectiveItem& c : FindCorrectiveItems(table)) {
    EXPECT_LT(std::fabs(c.with_divergence), std::fabs(c.base_divergence));
    // Cross-check both divergences against the table.
    EXPECT_NEAR(c.base_divergence, *table.Divergence(c.base), 1e-12);
    EXPECT_NEAR(c.with_divergence,
                *table.Divergence(With(c.base, c.item)), 1e-12);
  }
}

TEST(CorrectiveTest, SortedByDescendingFactor) {
  const PatternTable table = MakeCorrectiveTable();
  const auto items = FindCorrectiveItems(table);
  for (size_t i = 1; i < items.size(); ++i) {
    EXPECT_GE(items[i - 1].factor, items[i].factor);
  }
}

TEST(CorrectiveTest, MinFactorFilters) {
  const PatternTable table = MakeCorrectiveTable();
  CorrectiveOptions opts;
  opts.min_factor = 0.25;
  for (const CorrectiveItem& c : FindCorrectiveItems(table, opts)) {
    EXPECT_GT(c.factor, 0.25);
  }
}

TEST(CorrectiveTest, TopKTruncates) {
  const PatternTable table = MakeCorrectiveTable();
  CorrectiveOptions opts;
  opts.top_k = 2;
  EXPECT_LE(FindCorrectiveItems(table, opts).size(), 2u);
}

TEST(CorrectiveTest, NoCorrectiveItemsInMonotoneData) {
  // Divergence only grows along this chain: no corrective pairs with a
  // positive factor should be reported for the divergent branch.
  std::vector<std::vector<int>> rows;
  std::string outcomes;
  for (int k = 0; k < 40; ++k) {
    const int a0 = k < 20 ? 1 : 0;
    const int a1 = k % 2;
    rows.push_back({a0, a1});
    // Rate rises with a0 alone; a1 is noise-free neutral.
    outcomes += (a0 == 1) ? 'T' : 'F';
  }
  const PatternTable table = ExploreForTest(rows, {2, 2}, outcomes, 0.05);
  for (const CorrectiveItem& c : FindCorrectiveItems(table)) {
    // Any surviving pair must genuinely reduce |Δ|; with this synthetic
    // outcome only same-|Δ| pairs exist, so the list is empty.
    ADD_FAILURE() << "unexpected corrective pair: "
                  << table.ItemsetName(c.base) << " + "
                  << table.catalog().ItemName(c.item);
  }
}

PatternTable MakeRandomTable(uint64_t seed) {
  Rng rng(seed);
  constexpr size_t kRows = 200;
  constexpr size_t kAttrs = 4;
  std::vector<std::vector<int>> cells(kRows, std::vector<int>(kAttrs));
  std::string outcomes;
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t a = 0; a < kAttrs; ++a) {
      cells[r][a] = static_cast<int>(rng.Below(3));
    }
    const double u = rng.Uniform();
    outcomes += (u < 0.35 ? 'T' : u < 0.8 ? 'F' : 'B');
  }
  return ExploreForTest(cells, std::vector<int>(kAttrs, 3), outcomes, 0.01);
}

/// Reference scan: every (I, α) pair found by itemset lookup instead of
/// lattice links, fully sorted in the documented order.
std::vector<CorrectiveItem> ReferenceCorrective(const PatternTable& table,
                                                double min_factor) {
  std::vector<CorrectiveItem> out;
  for (size_t i = 0; i < table.size(); ++i) {
    const PatternRow& row = table.row(i);
    for (const uint32_t item : row.items) {
      Itemset base;
      for (const uint32_t other : row.items) {
        if (other != item) base.push_back(other);
      }
      if (base.empty()) continue;
      const auto base_row = table.Find(base);
      if (!base_row.has_value()) continue;
      const double base_div = table.row(*base_row).divergence;
      const double factor = std::fabs(base_div) - std::fabs(row.divergence);
      if (factor <= min_factor || factor <= 0.0) continue;
      out.push_back(CorrectiveItem{base, item, base_div, row.divergence,
                                   factor, row.t});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const CorrectiveItem& a, const CorrectiveItem& b) {
              if (a.factor != b.factor) return a.factor > b.factor;
              if (a.base.size() != b.base.size()) {
                return a.base.size() < b.base.size();
              }
              if (a.base != b.base) return a.base < b.base;
              return a.item < b.item;
            });
  return out;
}

void ExpectSameItems(const std::vector<CorrectiveItem>& got,
                     const std::vector<CorrectiveItem>& want, size_t n) {
  ASSERT_GE(got.size(), n);
  ASSERT_GE(want.size(), n);
  for (size_t j = 0; j < n; ++j) {
    EXPECT_EQ(got[j].base, want[j].base) << "position " << j;
    EXPECT_EQ(got[j].item, want[j].item) << "position " << j;
    EXPECT_EQ(got[j].base_divergence, want[j].base_divergence);
    EXPECT_EQ(got[j].with_divergence, want[j].with_divergence);
    EXPECT_EQ(got[j].factor, want[j].factor);
    EXPECT_EQ(got[j].t, want[j].t);
  }
}

TEST(CorrectivePropertyTest, AllPairsMatchReferenceAndTopKIsAPrefix) {
  for (const uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE(seed);
    const PatternTable table = MakeRandomTable(seed);
    const std::vector<CorrectiveItem> all = FindCorrectiveItems(table);
    const std::vector<CorrectiveItem> reference =
        ReferenceCorrective(table, 0.0);
    ASSERT_EQ(all.size(), reference.size());
    ASSERT_GT(all.size(), 10u) << "fixture has too few corrective pairs";
    ExpectSameItems(all, reference, all.size());
    for (size_t k = 1; k <= all.size() + 1; ++k) {
      CorrectiveOptions options;
      options.top_k = k;
      const std::vector<CorrectiveItem> top =
          FindCorrectiveItems(table, options);
      ASSERT_EQ(top.size(), std::min(k, all.size())) << "k=" << k;
      ExpectSameItems(top, all, top.size());
    }
  }
}

TEST(CorrectivePropertyTest, MinFactorKeepsExactlyTheLargerFactors) {
  const PatternTable table = MakeRandomTable(5);
  const std::vector<CorrectiveItem> all = FindCorrectiveItems(table);
  ASSERT_GT(all.size(), 4u);
  // Thresholds at, between and beyond the observed factors; a pair whose
  // factor equals min_factor is excluded.
  for (const double min_factor :
       {all[all.size() / 2].factor, all.front().factor / 3,
        all.front().factor, 0.0}) {
    for (const size_t top_k : {size_t{0}, size_t{3}}) {
      CorrectiveOptions options;
      options.min_factor = min_factor;
      options.top_k = top_k;
      std::vector<CorrectiveItem> want = ReferenceCorrective(table, min_factor);
      if (top_k != 0 && want.size() > top_k) want.resize(top_k);
      const std::vector<CorrectiveItem> got =
          FindCorrectiveItems(table, options);
      ASSERT_EQ(got.size(), want.size()) << "min_factor=" << min_factor;
      ExpectSameItems(got, want, got.size());
      for (const CorrectiveItem& c : got) EXPECT_GT(c.factor, min_factor);
    }
  }
}

// Four pairs with exactly the same factor 0.5 (divergences are exact
// binary fractions): ({a0=v0}, a1=v0) and ({a0=v0}, a2=v0) tie up to
// the item; ({a1=v0}, a0=v0) loses to both on base items; and
// ({a1=v0, a2=v0}, a0=v0) comes last on base length.
PatternTable MakeTieTable() {
  ItemCatalog catalog;
  catalog.AddAttribute("a0", {"v0", "v1"});  // items 0, 1
  catalog.AddAttribute("a1", {"v0", "v1"});  // items 2, 3
  catalog.AddAttribute("a2", {"v0", "v1"});  // items 4, 5
  std::vector<MinedPattern> mined;
  mined.push_back({Itemset{}, OutcomeCounts{8, 8, 0}});      // Δ = 0
  mined.push_back({Itemset{0, 2, 4}, OutcomeCounts{1, 1, 0}});  // Δ = 0
  mined.push_back({Itemset{2, 4}, OutcomeCounts{1, 0, 0}});  // Δ = .5
  mined.push_back({Itemset{0, 4}, OutcomeCounts{2, 2, 0}});  // Δ = 0
  mined.push_back({Itemset{0, 2}, OutcomeCounts{2, 2, 0}});  // Δ = 0
  mined.push_back({Itemset{4}, OutcomeCounts{2, 2, 0}});     // Δ = 0
  mined.push_back({Itemset{2}, OutcomeCounts{4, 0, 0}});     // Δ = .5
  mined.push_back({Itemset{0}, OutcomeCounts{4, 0, 0}});     // Δ = .5
  auto table = PatternTable::Create(std::move(mined), catalog, 16);
  DIVEXP_CHECK_OK(table.status());
  return std::move(table).value();
}

TEST(CorrectivePropertyTest, ExactTiesBreakOnBaseLengthItemsThenItem) {
  const PatternTable table = MakeTieTable();

  const std::vector<std::pair<Itemset, uint32_t>> expected = {
      {{0}, 2}, {{0}, 4}, {{2}, 0}, {{2, 4}, 0}};
  for (size_t k = 0; k <= expected.size(); ++k) {
    CorrectiveOptions options;
    options.top_k = k;
    const std::vector<CorrectiveItem> got =
        FindCorrectiveItems(table, options);
    const size_t n = k == 0 ? expected.size() : k;
    ASSERT_EQ(got.size(), n) << "k=" << k;
    for (size_t j = 0; j < n; ++j) {
      EXPECT_EQ(got[j].factor, 0.5);
      EXPECT_EQ(got[j].base, expected[j].first) << "k=" << k << " j=" << j;
      EXPECT_EQ(got[j].item, expected[j].second) << "k=" << k << " j=" << j;
    }
  }
}

// The rows of TruncatedTable(), in input order: the superset comes
// first, so a truncation drops a subset of a kept row.
std::vector<MinedPattern> TruncationInput() {
  std::vector<MinedPattern> m;
  m.push_back({Itemset{}, OutcomeCounts{5, 5, 0}});      // Δ = 0
  m.push_back({Itemset{0, 2}, OutcomeCounts{2, 2, 0}});  // Δ = 0
  m.push_back({Itemset{2}, OutcomeCounts{4, 1, 0}});     // Δ = .3
  m.push_back({Itemset{0}, OutcomeCounts{1, 4, 0}});     // Δ = -.3
  return m;
}

ItemCatalog TruncationCatalog() {
  ItemCatalog catalog;
  catalog.AddAttribute("a0", {"v0", "v1"});  // items 0, 1
  catalog.AddAttribute("a1", {"v0", "v1"});  // items 2, 3
  return catalog;
}

/// TruncationInput() with {a0=v0} dropped by a guard truncation, after
/// {a0=v0, a1=v0} was kept: one of that row's links is kNoLink.
PatternTable MakeTruncatedTable() {
  // A 1 MiB budget pre-charged so only {0, 2} and {2} fit (a row is
  // charged its PatternRow plus item and link words); {0} is dropped.
  RunLimits limits;
  limits.max_memory_mb = 1;
  RunGuard guard(limits);
  const auto footprint = [](size_t items) {
    return sizeof(PatternRow) + 2 * items * sizeof(uint32_t);
  };
  DIVEXP_CHECK(
      guard.AddMemory((1ULL << 20) - (footprint(2) + footprint(1) + 4)));
  auto truncated = PatternTable::Create(TruncationInput(),
                                        TruncationCatalog(), 10, &guard);
  DIVEXP_CHECK_OK(truncated.status());
  DIVEXP_CHECK(guard.stopped());
  return std::move(truncated).value();
}

// A guard truncation drops {a0=v0} after {a0=v0, a1=v0} was kept, so one
// of the superset's links is kNoLink: that pair is skipped and the pair
// over the surviving link is still found.
TEST(CorrectivePropertyTest, TruncatedLinksAreSkipped) {
  auto complete =
      PatternTable::Create(TruncationInput(), TruncationCatalog(), 10);
  ASSERT_TRUE(complete.ok());
  EXPECT_EQ(FindCorrectiveItems(*complete).size(), 2u);

  const PatternTable truncated = MakeTruncatedTable();
  ASSERT_EQ(truncated.size(), 3u);
  ASSERT_EQ(truncated.SubsetLinks(1)[1], PatternTable::kNoLink);

  for (const size_t top_k : {size_t{0}, size_t{1}, size_t{5}}) {
    CorrectiveOptions options;
    options.top_k = top_k;
    const std::vector<CorrectiveItem> got =
        FindCorrectiveItems(truncated, options);
    ASSERT_EQ(got.size(), 1u) << "top_k=" << top_k;
    EXPECT_EQ(got[0].base, Itemset{2});
    EXPECT_EQ(got[0].item, 0u);
    EXPECT_NEAR(got[0].factor, 0.3, 1e-12);
  }
}

// The scan split across num_threads selectors and merged keeps the same
// pairs in the same order as the serial scan.
void ExpectSameAtEveryThreadCount(const PatternTable& table) {
  for (const size_t top_k : {size_t{0}, size_t{1}, size_t{5}, size_t{10}}) {
    CorrectiveOptions serial;
    serial.top_k = top_k;
    const std::vector<CorrectiveItem> want =
        FindCorrectiveItems(table, serial);
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      CorrectiveOptions options = serial;
      options.num_threads = threads;
      const std::vector<CorrectiveItem> got =
          FindCorrectiveItems(table, options);
      ASSERT_EQ(got.size(), want.size())
          << "top_k=" << top_k << " threads=" << threads;
      ExpectSameItems(got, want, got.size());
    }
  }
}

TEST(CorrectiveThreadsTest, RandomTablesMatchTheSerialScan) {
  for (const uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE(seed);
    ExpectSameAtEveryThreadCount(MakeRandomTable(seed));
  }
}

TEST(CorrectiveThreadsTest, ExactTiesMatchTheSerialScan) {
  ExpectSameAtEveryThreadCount(MakeTieTable());
}

TEST(CorrectiveThreadsTest, TruncatedLinksMatchTheSerialScan) {
  const PatternTable truncated = MakeTruncatedTable();
  ASSERT_EQ(truncated.SubsetLinks(1)[1], PatternTable::kNoLink);
  ExpectSameAtEveryThreadCount(truncated);
}

}  // namespace
}  // namespace divexp
