// Property-based cross-checks of the two miners:
//  * soundness/completeness vs a brute-force enumerator (Theorem 5.1),
//  * Apriori and FP-growth produce identical pattern tables,
//  * anti-monotonicity of support.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>

#include "fpm/apriori.h"
#include "fpm/fpgrowth.h"
#include "testing/test_data.h"
#include "util/random.h"

namespace divexp {
namespace {

using testing::MakeEncoded;

struct RandomCase {
  EncodedDataset dataset;
  std::vector<Outcome> outcomes;
};

RandomCase MakeRandomCase(uint64_t seed, size_t rows, size_t attrs,
                          int domain) {
  Rng rng(seed);
  std::vector<std::vector<int>> cells(rows, std::vector<int>(attrs));
  std::vector<Outcome> outcomes(rows);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < attrs; ++a) {
      cells[r][a] = static_cast<int>(rng.Below(domain));
    }
    const double u = rng.Uniform();
    outcomes[r] = u < 0.3   ? Outcome::kTrue
                  : u < 0.7 ? Outcome::kFalse
                            : Outcome::kBottom;
  }
  RandomCase c;
  c.dataset = MakeEncoded(cells, std::vector<int>(attrs, domain));
  c.outcomes = std::move(outcomes);
  return c;
}

// Exhaustive reference implementation: enumerate every itemset (over
// distinct attributes) by brute force and tally outcomes row by row.
std::map<Itemset, OutcomeCounts> BruteForce(const EncodedDataset& ds,
                                            const std::vector<Outcome>& o,
                                            double min_support) {
  std::map<Itemset, OutcomeCounts> out;
  const uint64_t min_count = MinCount(min_support, ds.num_rows);
  // Every attribute picks one of its items or nothing.
  std::vector<int> choice(ds.num_attributes, -1);
  std::vector<uint32_t> firsts(ds.num_attributes);
  for (uint32_t a = 0; a < ds.num_attributes; ++a) {
    firsts[a] = ds.catalog.first_item(a);
  }
  std::function<void(size_t)> rec = [&](size_t attr) {
    if (attr == ds.num_attributes) {
      Itemset items;
      for (size_t a = 0; a < ds.num_attributes; ++a) {
        if (choice[a] >= 0) {
          items.push_back(firsts[a] + static_cast<uint32_t>(choice[a]));
        }
      }
      items = MakeItemset(items);
      OutcomeCounts counts;
      for (size_t r = 0; r < ds.num_rows; ++r) {
        bool covered = true;
        for (size_t a = 0; a < ds.num_attributes; ++a) {
          if (choice[a] >= 0 &&
              ds.at(r, a) != firsts[a] + static_cast<uint32_t>(choice[a])) {
            covered = false;
            break;
          }
        }
        if (!covered) continue;
        switch (o[r]) {
          case Outcome::kTrue:
            ++counts.t;
            break;
          case Outcome::kFalse:
            ++counts.f;
            break;
          case Outcome::kBottom:
            ++counts.bot;
            break;
        }
      }
      if (items.empty() || counts.total() >= min_count) {
        out[items] = counts;
      }
      return;
    }
    for (int v = -1; v < static_cast<int>(ds.catalog.domain_size(
                             static_cast<uint32_t>(attr)));
         ++v) {
      choice[attr] = v;
      rec(attr + 1);
    }
    choice[attr] = -1;
  };
  rec(0);
  return out;
}

std::map<Itemset, OutcomeCounts> ToMap(
    const std::vector<MinedPattern>& patterns) {
  std::map<Itemset, OutcomeCounts> out;
  for (const auto& p : patterns) out[p.items] = p.counts;
  return out;
}

class MinerPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(MinerPropertyTest, BothMinersMatchBruteForce) {
  const auto [seed, support] = GetParam();
  const RandomCase c = MakeRandomCase(seed, 60, 4, 3);
  auto db = TransactionDatabase::Create(c.dataset, c.outcomes);
  ASSERT_TRUE(db.ok());

  MinerOptions opts;
  opts.min_support = support;

  const auto expected = BruteForce(c.dataset, c.outcomes, support);

  for (MinerKind kind :
       {MinerKind::kFpGrowth, MinerKind::kApriori, MinerKind::kEclat}) {
    auto miner = MakeMiner(kind);
    auto patterns = miner->Mine(*db, opts);
    ASSERT_TRUE(patterns.ok());
    EXPECT_EQ(ToMap(*patterns), expected)
        << miner->name() << " mismatch";
  }
}

TEST_P(MinerPropertyTest, SupportIsAntiMonotone) {
  const auto [seed, support] = GetParam();
  const RandomCase c = MakeRandomCase(seed + 1000, 80, 4, 3);
  auto db = TransactionDatabase::Create(c.dataset, c.outcomes);
  ASSERT_TRUE(db.ok());
  MinerOptions opts;
  opts.min_support = support;
  FpGrowthMiner fp;
  auto patterns = fp.Mine(*db, opts);
  ASSERT_TRUE(patterns.ok());
  const auto map = ToMap(*patterns);
  for (const auto& [items, counts] : map) {
    for (uint32_t alpha : items) {
      const Itemset sub = Without(items, alpha);
      ASSERT_EQ(map.count(sub), 1u)
          << "subset of a frequent itemset missing";
      EXPECT_GE(map.at(sub).total(), counts.total());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MinerPropertyTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                       ::testing::Values(0.02, 0.05, 0.15, 0.4)));

TEST(MinerEquivalenceTest, LargerRandomInstance) {
  const RandomCase c = MakeRandomCase(99, 500, 6, 4);
  auto db = TransactionDatabase::Create(c.dataset, c.outcomes);
  ASSERT_TRUE(db.ok());
  MinerOptions opts;
  opts.min_support = 0.02;
  FpGrowthMiner fp;
  AprioriMiner ap;
  auto a = fp.Mine(*db, opts);
  auto b = ap.Mine(*db, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->size(), b->size());
  EXPECT_EQ(ToMap(*a), ToMap(*b));
}

TEST(SortPatternsTest, DeterministicOrder) {
  std::vector<MinedPattern> patterns;
  patterns.push_back({Itemset{2, 3}, {}});
  patterns.push_back({Itemset{1}, {}});
  patterns.push_back({Itemset{}, {}});
  patterns.push_back({Itemset{1, 4}, {}});
  SortPatterns(&patterns);
  EXPECT_EQ(patterns[0].items, Itemset{});
  EXPECT_EQ(patterns[1].items, Itemset{1});
  EXPECT_EQ(patterns[2].items, (Itemset{1, 4}));
  EXPECT_EQ(patterns[3].items, (Itemset{2, 3}));
}

TEST(SortPatternsTest, ParallelSortMatchesSerialAtEveryThreadCount) {
  // Enough distinct itemsets that up to 8 threads each get a run of
  // their own, in a shuffled order with lengths mixed throughout.
  std::set<Itemset> unique;
  Rng rng(17);
  while (unique.size() < 200000) {
    std::vector<uint32_t> ids(rng.Below(7));
    for (uint32_t& id : ids) id = static_cast<uint32_t>(rng.Below(60));
    unique.insert(MakeItemset(std::move(ids)));
  }
  std::vector<MinedPattern> input;
  for (const Itemset& items : unique) {
    input.push_back({items, {input.size(), 1, 0}});  // t tags the row
  }
  rng.Shuffle(&input);
  std::vector<MinedPattern> serial = input;
  SortPatterns(&serial);
  for (size_t threads : {size_t{2}, size_t{3}, size_t{4}, size_t{5},
                         size_t{8}}) {
    std::vector<MinedPattern> parallel = input;
    SortPatterns(&parallel, threads);
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
    for (size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(parallel[i].items, serial[i].items)
          << "threads=" << threads << " i=" << i;
      ASSERT_EQ(parallel[i].counts.t, serial[i].counts.t);
    }
  }
}

}  // namespace
}  // namespace divexp
