#include "core/pattern.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <optional>
#include <set>

#include "testing/test_explore.h"
#include "util/random.h"

namespace divexp {
namespace {

using testing::ExploreForTest;

// 2 binary attributes, 8 rows. Outcomes chosen so that a0=v1 has a
// higher positive rate than the dataset.
PatternTable MakeSmallTable(double support = 0.1) {
  return ExploreForTest(
      {{0, 0}, {0, 0}, {0, 1}, {0, 1}, {1, 0}, {1, 0}, {1, 1}, {1, 1}},
      {2, 2},
      "FFFTTTTB",  // f(D) = 4/7
      support);
}

TEST(PatternTableTest, GlobalRateFromEmptyItemset) {
  const PatternTable table = MakeSmallTable();
  EXPECT_NEAR(table.global_rate(), 4.0 / 7.0, 1e-12);
  EXPECT_EQ(table.num_dataset_rows(), 8u);
}

TEST(PatternTableTest, RowFieldsConsistent) {
  const PatternTable table = MakeSmallTable();
  for (size_t i = 0; i < table.size(); ++i) {
    const PatternRow& r = table.row(i);
    EXPECT_NEAR(r.support,
                static_cast<double>(r.counts.total()) / 8.0, 1e-12);
    EXPECT_NEAR(r.rate, r.counts.PositiveRate(), 1e-12);
    EXPECT_NEAR(r.divergence, r.rate - table.global_rate(), 1e-12);
    EXPECT_GE(r.t, 0.0);
  }
}

TEST(PatternTableTest, FindAndDivergence) {
  const PatternTable table = MakeSmallTable();
  // a0=v1 (item 1) covers rows 4..7: outcomes T T T B -> rate 1.
  auto idx = table.Find(Itemset{1});
  ASSERT_TRUE(idx.has_value());
  EXPECT_NEAR(table.row(*idx).rate, 1.0, 1e-12);
  auto div = table.Divergence(Itemset{1});
  ASSERT_TRUE(div.ok());
  EXPECT_NEAR(*div, 1.0 - 4.0 / 7.0, 1e-12);
  EXPECT_FALSE(table.Divergence(Itemset{99}).ok());
}

TEST(PatternTableTest, EmptyItemsetHasZeroDivergence) {
  const PatternTable table = MakeSmallTable();
  auto div = table.Divergence(Itemset{});
  ASSERT_TRUE(div.ok());
  EXPECT_DOUBLE_EQ(*div, 0.0);
}

TEST(PatternTableTest, RankByDivergenceDescendingExcludesRoot) {
  const PatternTable table = MakeSmallTable();
  const auto order = table.RankByDivergence(true);
  EXPECT_EQ(order.size(), table.size() - 1);  // root excluded
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(table.row(order[i - 1]).divergence,
              table.row(order[i]).divergence);
  }
  // Ascending is the reverse ordering on values.
  const auto asc = table.RankByDivergence(false);
  EXPECT_EQ(table.row(asc.front()).divergence,
            table.row(order.back()).divergence);
}

TEST(PatternTableTest, TopKFilters) {
  const PatternTable table = MakeSmallTable();
  const auto top = table.TopK(3);
  EXPECT_LE(top.size(), 3u);
  // With min_support = 0.6 only itemsets covering >= 5 of 8 rows
  // qualify — none of the single items (4 rows each) do.
  const auto high_support = table.TopK(10, true, 0.6);
  for (size_t i : high_support) {
    EXPECT_GE(table.row(i).support, 0.6);
  }
  // max_len = 1 excludes pairs.
  for (size_t i : table.TopK(10, true, 0.0, 1, 1)) {
    EXPECT_EQ(table.row(i).items.size(), 1u);
  }
}

TEST(PatternTableTest, RankBySignificanceAndSupport) {
  const PatternTable table = MakeSmallTable();
  const auto by_t = table.Rank(PatternTable::RankKey::kSignificance);
  for (size_t i = 1; i < by_t.size(); ++i) {
    EXPECT_GE(table.row(by_t[i - 1]).t, table.row(by_t[i]).t);
  }
  const auto by_sup = table.Rank(PatternTable::RankKey::kSupport);
  for (size_t i = 1; i < by_sup.size(); ++i) {
    EXPECT_GE(table.row(by_sup[i - 1]).support,
              table.row(by_sup[i]).support);
  }
  // All three rankings cover the same rows.
  EXPECT_EQ(by_t.size(), table.RankByDivergence().size());
  EXPECT_EQ(by_sup.size(), by_t.size());
}

TEST(PatternTableTest, ItemsetNameRendering) {
  const PatternTable table = MakeSmallTable();
  EXPECT_EQ(table.ItemsetName(Itemset{}), "(all)");
  EXPECT_EQ(table.ItemsetName(Itemset{0}), "a0=v0");
  EXPECT_EQ(table.ItemsetName(Itemset{0, 3}), "a0=v0, a1=v1");
}

TEST(PatternTableTest, ParseItemsetRoundTrip) {
  const PatternTable table = MakeSmallTable();
  auto items = table.ParseItemset({{"a1", "v1"}, {"a0", "v0"}});
  ASSERT_TRUE(items.ok());
  EXPECT_EQ(*items, (Itemset{0, 3}));
  EXPECT_FALSE(table.ParseItemset({{"a0", "nope"}}).ok());
}

TEST(PatternTableTest, CreateRequiresEmptyItemset) {
  std::vector<MinedPattern> mined;
  mined.push_back({Itemset{0}, OutcomeCounts{1, 0, 0}});
  ItemCatalog catalog;
  catalog.AddAttribute("a", {"x"});
  auto table = PatternTable::Create(std::move(mined), catalog, 1);
  EXPECT_FALSE(table.ok());
}

TEST(PatternTableTest, CreateRejectsDuplicates) {
  std::vector<MinedPattern> mined;
  mined.push_back({Itemset{}, OutcomeCounts{1, 0, 0}});
  mined.push_back({Itemset{0}, OutcomeCounts{1, 0, 0}});
  mined.push_back({Itemset{0}, OutcomeCounts{1, 0, 0}});
  ItemCatalog catalog;
  catalog.AddAttribute("a", {"x"});
  auto table = PatternTable::Create(std::move(mined), catalog, 1);
  EXPECT_FALSE(table.ok());
}

TEST(PatternTableTest, SubsetLinksResolveImmediateSubsets) {
  const PatternTable table = MakeSmallTable();
  for (size_t i = 0; i < table.size(); ++i) {
    const Itemset& items = table.row(i).items;
    const auto links = table.SubsetLinks(i);
    ASSERT_EQ(links.size(), items.size());
    for (size_t j = 0; j < items.size(); ++j) {
      // Complete exploration: every immediate subset is present.
      ASSERT_NE(links[j], PatternTable::kNoLink);
      Itemset expected = items;
      expected.erase(expected.begin() + static_cast<ptrdiff_t>(j));
      EXPECT_EQ(table.row(links[j]).items, expected);
    }
  }
}

TEST(PatternTableTest, HeterogeneousFindMatchesItemsetFind) {
  const PatternTable table = MakeSmallTable();
  for (size_t i = 0; i < table.size(); ++i) {
    const Itemset& items = table.row(i).items;
    const auto by_span = table.Find(ItemSpan(items));
    ASSERT_TRUE(by_span.has_value());
    EXPECT_EQ(*by_span, i);
  }
  const Itemset absent = {0, 1};  // two values of the same attribute
  EXPECT_FALSE(table.Find(ItemSpan(absent)).has_value());
}

TEST(PatternTableTest, TopKMatchesRankPrefix) {
  const PatternTable table = MakeSmallTable();
  const auto ranked = table.RankByDivergence(true);
  for (size_t k : {size_t{1}, size_t{3}, ranked.size(), ranked.size() + 5}) {
    const auto top = table.TopK(k);
    ASSERT_EQ(top.size(), std::min(k, ranked.size()));
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i], ranked[i]) << "k=" << k << " i=" << i;
    }
  }
}

TEST(PatternTableTest, SignificanceGrowsWithSampleSize) {
  // Same 3:1 outcome ratio but 10x the rows -> larger t.
  std::vector<std::vector<int>> small_rows, big_rows;
  std::string small_o, big_o;
  for (int rep = 0; rep < 4; ++rep) {
    small_rows.push_back({0});
    small_o += (rep < 3 ? 'T' : 'F');
    small_rows.push_back({1});
    small_o += (rep < 3 ? 'F' : 'T');
  }
  for (int rep = 0; rep < 40; ++rep) {
    big_rows.push_back({0});
    big_o += (rep < 30 ? 'T' : 'F');
    big_rows.push_back({1});
    big_o += (rep < 30 ? 'F' : 'T');
  }
  const PatternTable small =
      testing::ExploreForTest(small_rows, {2}, small_o, 0.1);
  const PatternTable big =
      testing::ExploreForTest(big_rows, {2}, big_o, 0.1);
  const double t_small = small.row(*small.Find(Itemset{0})).t;
  const double t_big = big.row(*big.Find(Itemset{0})).t;
  EXPECT_GT(t_big, t_small);
}

// Mined patterns for a table with the empty itemset plus `count`
// random distinct itemsets over 40 item ids. Not downward closed, so
// some subset links stay kNoLink; Create does not need closure.
std::vector<MinedPattern> RandomMined(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::set<Itemset> unique = {Itemset{}};
  while (unique.size() < count + 1) {
    std::vector<uint32_t> ids(1 + rng.Below(5));
    for (uint32_t& id : ids) id = static_cast<uint32_t>(rng.Below(40));
    unique.insert(MakeItemset(std::move(ids)));
  }
  std::vector<MinedPattern> mined;
  for (const Itemset& items : unique) {
    mined.push_back({items, OutcomeCounts{1 + rng.Below(5), 1, 0}});
  }
  rng.Shuffle(&mined);
  return mined;
}

ItemCatalog FortyItemCatalog() {
  ItemCatalog catalog;
  std::vector<std::string> values;
  for (int v = 0; v < 40; ++v) values.push_back("v" + std::to_string(v));
  catalog.AddAttribute("a", values);
  return catalog;
}

std::optional<size_t> LinearFind(const PatternTable& table,
                                  const Itemset& items) {
  for (size_t i = 0; i < table.size(); ++i) {
    if (table.row(i).items == items) return i;
  }
  return std::nullopt;
}

// Every Find overload against a linear scan, on `table`, for each row's
// own itemset, each row's immediate subsets (as skip views) and random
// probes, most of them absent.
void ExpectFindMatchesLinearScan(const PatternTable& table, uint64_t seed) {
  for (size_t i = 0; i < table.size(); ++i) {
    const Itemset& items = table.row(i).items;
    EXPECT_EQ(table.Find(items), std::optional<size_t>(i));
    EXPECT_EQ(table.Find(ItemSpan(items)), std::optional<size_t>(i));
    for (size_t j = 0; j < items.size(); ++j) {
      Itemset subset = items;
      subset.erase(subset.begin() + static_cast<ptrdiff_t>(j));
      EXPECT_EQ(table.Find(ItemsetSkipView{ItemSpan(items), j}),
                LinearFind(table, subset))
          << ItemsetDebugString(items) << " skip " << j;
    }
  }
  Rng rng(seed);
  for (int probe = 0; probe < 2000; ++probe) {
    std::vector<uint32_t> ids(rng.Below(7));
    for (uint32_t& id : ids) id = static_cast<uint32_t>(rng.Below(45));
    const Itemset key = MakeItemset(std::move(ids));
    const std::optional<size_t> expected = LinearFind(table, key);
    EXPECT_EQ(table.Find(key), expected) << ItemsetDebugString(key);
    EXPECT_EQ(table.Find(ItemSpan(key)), expected);
    // The same key as a skip view of a one-longer sequence.
    Itemset padded = key;
    padded.push_back(1000);
    EXPECT_EQ(table.Find(ItemsetSkipView{ItemSpan(padded), key.size()}),
              expected);
  }
}

TEST(PatternTableIndexTest, FindMatchesLinearScanOnRandomTables) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      PatternTableOptions options;
      options.num_threads = threads;
      auto table = PatternTable::Create(RandomMined(seed, 3000),
                                        FortyItemCatalog(), 10, nullptr,
                                        options);
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      ASSERT_EQ(table->size(), 3001u);
      ExpectFindMatchesLinearScan(*table, seed + 100);
    }
  }
}

TEST(PatternTableIndexTest, RootOnlyTable) {
  std::vector<MinedPattern> mined;
  mined.push_back({Itemset{}, OutcomeCounts{3, 1, 0}});
  auto table =
      PatternTable::Create(std::move(mined), FortyItemCatalog(), 4);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->size(), 1u);
  EXPECT_EQ(table->Find(Itemset{}), std::optional<size_t>(0));
  const Itemset single = {7};
  EXPECT_EQ(table->Find(ItemsetSkipView{ItemSpan(single), 0}),
            std::optional<size_t>(0));
  ExpectFindMatchesLinearScan(*table, 9);
}

TEST(PatternTableIndexTest, DuplicateRejectedAtEveryThreadCount) {
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    std::vector<MinedPattern> mined = RandomMined(5, 2000);
    const MinedPattern twin = mined[mined.size() / 2];
    mined.push_back(twin);  // far from the original
    PatternTableOptions options;
    options.num_threads = threads;
    auto table = PatternTable::Create(std::move(mined), FortyItemCatalog(),
                                      10, nullptr, options);
    ASSERT_FALSE(table.ok()) << "threads=" << threads;
    EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(PatternTableIndexTest, CreateMaterializesNoItemsets) {
  // The index and the link pass compare probes against the rows' own
  // items; building the table copies or materializes no itemset.
  std::vector<MinedPattern> mined = RandomMined(11, 3000);
  PatternTableOptions options;
  options.num_threads = 2;
  const uint64_t before = ItemsetAllocCount();
  auto table = PatternTable::Create(std::move(mined), FortyItemCatalog(), 10,
                                    nullptr, options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(ItemsetAllocCount(), before);
}

}  // namespace
}  // namespace divexp
