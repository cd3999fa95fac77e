// Parameterized invariants of the full exploration, swept over
// metric × miner × support on randomized datasets, and the table's
// independence of the thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/explorer.h"
#include "obs/stage.h"
#include "testing/artifact_bytes.h"
#include "testing/test_data.h"
#include "util/random.h"

namespace divexp {
namespace {

using testing::MakeEncoded;

struct Labeled {
  EncodedDataset dataset;
  std::vector<int> preds;
  std::vector<int> truths;
};

Labeled MakeLabeled(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int>> cells;
  Labeled out;
  for (int r = 0; r < 250; ++r) {
    cells.push_back({static_cast<int>(rng.Below(3)),
                     static_cast<int>(rng.Below(2)),
                     static_cast<int>(rng.Below(2))});
    out.preds.push_back(
        rng.Bernoulli(0.3 + 0.2 * cells.back()[0]) ? 1 : 0);
    out.truths.push_back(
        rng.Bernoulli(0.35 + 0.15 * cells.back()[1]) ? 1 : 0);
  }
  out.dataset = MakeEncoded(cells, {3, 2, 2});
  return out;
}

using Param = std::tuple<Metric, MinerKind, double>;

class ExplorerPropertyTest : public ::testing::TestWithParam<Param> {};

TEST_P(ExplorerPropertyTest, TableInvariantsHold) {
  const auto [metric, miner, support] = GetParam();
  const Labeled data = MakeLabeled(42);
  ExplorerOptions opts;
  opts.min_support = support;
  opts.miner = miner;
  DivergenceExplorer explorer(opts);
  auto table =
      explorer.Explore(data.dataset, data.preds, data.truths, metric);
  ASSERT_TRUE(table.ok());

  const uint64_t min_count =
      MinCount(support, data.dataset.num_rows);
  for (size_t i = 0; i < table->size(); ++i) {
    const PatternRow& row = table->row(i);
    // Rates and divergences stay in range.
    EXPECT_GE(row.rate, 0.0);
    EXPECT_LE(row.rate, 1.0);
    EXPECT_LE(std::fabs(row.divergence), 1.0);
    EXPECT_GE(row.t, 0.0);
    // Support semantics.
    if (!row.items.empty()) {
      EXPECT_GE(row.counts.total(), min_count);
    }
    EXPECT_EQ(row.counts.total(),
              data.dataset.Cover(row.items).size());
    // Downward closure: every subset is frequent too.
    for (uint32_t alpha : row.items) {
      EXPECT_TRUE(table->Contains(Without(row.items, alpha)));
    }
    // Items refer to distinct attributes.
    for (size_t a = 1; a < row.items.size(); ++a) {
      EXPECT_NE(
          table->catalog().item(row.items[a]).attribute,
          table->catalog().item(row.items[a - 1]).attribute);
    }
  }
  // The empty itemset anchors Δ = 0.
  auto root = table->Divergence(Itemset{});
  ASSERT_TRUE(root.ok());
  EXPECT_DOUBLE_EQ(*root, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExplorerPropertyTest,
    ::testing::Combine(
        ::testing::Values(Metric::kFalsePositiveRate,
                          Metric::kFalseNegativeRate,
                          Metric::kErrorRate, Metric::kAccuracy,
                          Metric::kPositivePredictiveValue,
                          Metric::kFalseOmissionRate),
        ::testing::Values(MinerKind::kFpGrowth, MinerKind::kApriori,
                          MinerKind::kEclat),
        ::testing::Values(0.02, 0.1, 0.3)));

class MetricDualityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricDualityTest, ComplementMetricsAreNegations) {
  // ACC = 1 − ER, TPR = 1 − FNR, TNR = 1 − FPR pointwise, so the
  // divergences must be exact negations on every pattern.
  const Labeled data = MakeLabeled(GetParam());
  ExplorerOptions opts;
  opts.min_support = 0.03;
  DivergenceExplorer explorer(opts);
  const std::pair<Metric, Metric> duals[] = {
      {Metric::kAccuracy, Metric::kErrorRate},
      {Metric::kTruePositiveRate, Metric::kFalseNegativeRate},
      {Metric::kTrueNegativeRate, Metric::kFalsePositiveRate},
      {Metric::kPositivePredictiveValue, Metric::kFalseDiscoveryRate},
      {Metric::kNegativePredictiveValue, Metric::kFalseOmissionRate},
  };
  for (const auto& [a, b] : duals) {
    auto ta = explorer.Explore(data.dataset, data.preds, data.truths, a);
    auto tb = explorer.Explore(data.dataset, data.preds, data.truths, b);
    ASSERT_TRUE(ta.ok());
    ASSERT_TRUE(tb.ok());
    ASSERT_EQ(ta->size(), tb->size());
    for (size_t i = 0; i < ta->size(); ++i) {
      auto db = tb->Divergence(ta->row(i).items);
      ASSERT_TRUE(db.ok());
      EXPECT_NEAR(ta->row(i).divergence, -*db, 1e-12)
          << MetricName(a) << " vs " << MetricName(b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricDualityTest,
                         ::testing::Values(1u, 7u, 23u));

class SupportMonotonicityTest
    : public ::testing::TestWithParam<MinerKind> {};

TEST_P(SupportMonotonicityTest, HigherSupportYieldsSubsetOfPatterns) {
  const Labeled data = MakeLabeled(5);
  DivergenceExplorer low(ExplorerOptions{
      .min_support = 0.02, .miner = GetParam(), .max_length = 0});
  DivergenceExplorer high(ExplorerOptions{
      .min_support = 0.2, .miner = GetParam(), .max_length = 0});
  auto tlow = low.Explore(data.dataset, data.preds, data.truths,
                          Metric::kErrorRate);
  auto thigh = high.Explore(data.dataset, data.preds, data.truths,
                            Metric::kErrorRate);
  ASSERT_TRUE(tlow.ok());
  ASSERT_TRUE(thigh.ok());
  EXPECT_LE(thigh->size(), tlow->size());
  for (size_t i = 0; i < thigh->size(); ++i) {
    const PatternRow& row = thigh->row(i);
    auto j = tlow->Find(row.items);
    ASSERT_TRUE(j.has_value());
    EXPECT_EQ(tlow->row(*j).counts, row.counts);
    EXPECT_DOUBLE_EQ(tlow->row(*j).divergence, row.divergence);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMiners, SupportMonotonicityTest,
                         ::testing::Values(MinerKind::kFpGrowth,
                                           MinerKind::kApriori,
                                           MinerKind::kEclat));

// The explore stage's parallel parts (mining units, the canonical
// sort, the order check, the stat pass and the level-by-level link
// walk) must not leak the thread count into the table: every miner at
// 1, 2 and 4 threads writes the same artifact bytes. The table (~53k
// patterns) is large enough that the canonical sort splits into two
// runs at 2 threads and three (an odd one out) at 4.
TEST(ExplorerThreadInvarianceTest, ArtifactBytesIdenticalAcrossThreads) {
  Rng rng(2024);
  std::vector<std::vector<int>> cells;
  std::string outcomes;
  for (int r = 0; r < 1500; ++r) {
    std::vector<int> row;
    for (int a = 0; a < 8; ++a) {
      row.push_back(static_cast<int>(rng.Below(4)));
    }
    outcomes += rng.Bernoulli(0.2 + 0.1 * row[0]) ? 'T' : 'F';
    cells.push_back(std::move(row));
  }
  const EncodedDataset dataset =
      testing::MakeEncoded(cells, std::vector<int>(8, 4));

  std::string reference;
  for (MinerKind miner :
       {MinerKind::kFpGrowth, MinerKind::kEclat, MinerKind::kApriori}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      ExplorerOptions opts;
      opts.min_support = 0.001;
      opts.miner = miner;
      opts.num_threads = threads;
      DivergenceExplorer explorer(opts);
      auto table = explorer.ExploreOutcomes(
          dataset, testing::OutcomesFromString(outcomes));
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      // Three of SortPatterns' minimum 16,384 patterns per sort thread.
      ASSERT_GE(table->size(), 3u * 16384u);

      const obs::StageStats* canonicalize = nullptr;
      for (const obs::StageStats& s : explorer.last_run_stats().stages) {
        if (s.name == obs::kStageCanonicalize) canonicalize = &s;
      }
      ASSERT_NE(canonicalize, nullptr);
      EXPECT_EQ(canonicalize->items, table->size());

      const std::string bytes = testing::WriteArtifactBytes(*table);
      if (reference.empty()) reference = bytes;
      // EXPECT_TRUE, not EXPECT_EQ: a failure must not print megabytes.
      EXPECT_TRUE(bytes == reference)
          << MinerKindName(miner) << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace divexp
