// Differential tests for the lattice-indexed divergence post-pass: the
// allocation-free link-walking implementations must agree with the
// pre-index reference algorithms (temporary itemsets + hash lookups)
// on seeded random tables across supports and thread counts, and
// guard-truncated tables must expose consistent partial links.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>

#include "core/corrective.h"
#include "core/explorer.h"
#include "core/global_divergence.h"
#include "core/pruning.h"
#include "core/shapley.h"
#include "stats/special.h"
#include "testing/test_data.h"
#include "util/random.h"

namespace divexp {
namespace {

using testing::MakeEncoded;

// ---------------------------------------------------------------------
// Reference implementations: the pre-index algorithms, kept verbatim
// (modulo naming) as the differential oracle.

Result<std::vector<ItemContribution>> RefShapley(const PatternTable& table,
                                                 const Itemset& items) {
  if (!table.Contains(items)) {
    return Status::NotFound("itemset not in pattern table");
  }
  const size_t n = items.size();
  const double n_fact = Factorial(n);
  std::vector<ItemContribution> out;
  out.reserve(n);
  Status failure = Status::OK();
  for (uint32_t alpha : items) {
    const Itemset rest = Without(items, alpha);
    double value = 0.0;
    ForEachSubset(rest, [&](const Itemset& j) {
      if (!failure.ok()) return;
      const Result<double> with = table.Divergence(With(j, alpha));
      const Result<double> without = table.Divergence(j);
      if (!with.ok()) {
        failure = with.status();
        return;
      }
      if (!without.ok()) {
        failure = without.status();
        return;
      }
      const double weight =
          Factorial(j.size()) * Factorial(n - j.size() - 1) / n_fact;
      value += weight * (*with - *without);
    });
    if (!failure.ok()) return failure;
    out.push_back(ItemContribution{alpha, value});
  }
  return out;
}

std::vector<CorrectiveItem> RefCorrective(const PatternTable& table,
                                          const CorrectiveOptions& options) {
  std::vector<CorrectiveItem> out;
  for (const PatternRow& row : table.rows()) {
    const Itemset& k = row.items;
    if (k.empty()) continue;
    for (uint32_t alpha : k) {
      const Itemset base = Without(k, alpha);
      if (base.empty()) continue;
      const Result<double> base_div = table.Divergence(base);
      DIVEXP_CHECK(base_div.ok());
      const double factor =
          std::fabs(*base_div) - std::fabs(row.divergence);
      if (factor <= options.min_factor || factor <= 0.0) continue;
      CorrectiveItem c;
      c.base = base;
      c.item = alpha;
      c.base_divergence = *base_div;
      c.with_divergence = row.divergence;
      c.factor = factor;
      c.t = row.t;
      out.push_back(std::move(c));
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const CorrectiveItem& a, const CorrectiveItem& b) {
                     if (a.factor != b.factor) return a.factor > b.factor;
                     if (a.base.size() != b.base.size()) {
                       return a.base.size() < b.base.size();
                     }
                     if (a.base != b.base) return a.base < b.base;
                     return a.item < b.item;
                   });
  if (options.top_k != 0 && out.size() > options.top_k) {
    out.resize(options.top_k);
  }
  return out;
}

std::vector<size_t> RefPrune(const PatternTable& table, double epsilon) {
  std::vector<size_t> kept;
  for (size_t i = 0; i < table.size(); ++i) {
    const PatternRow& row = table.row(i);
    if (row.items.empty()) continue;
    bool redundant = false;
    for (uint32_t alpha : row.items) {
      const Itemset base = Without(row.items, alpha);
      const Result<double> base_div = table.Divergence(base);
      DIVEXP_CHECK(base_div.ok());
      if (std::fabs(row.divergence - *base_div) <= epsilon) {
        redundant = true;
        break;
      }
    }
    if (!redundant) kept.push_back(i);
  }
  return kept;
}

Result<double> RefGlobalItemset(const PatternTable& table,
                                const Itemset& itemset) {
  const ItemCatalog& catalog = table.catalog();
  const size_t num_attrs = catalog.num_attributes();
  const std::vector<long double> fact = Factorials(num_attrs);
  const size_t i_len = itemset.size();
  long double total = 0.0L;
  for (const PatternRow& row : table.rows()) {
    const Itemset& k = row.items;
    if (k.size() < i_len || !IsSubset(itemset, k)) continue;
    long double prod = 1.0L;
    for (uint32_t id : k) {
      prod *= static_cast<long double>(
          catalog.domain_size(catalog.item(id).attribute));
    }
    const size_t b = k.size() - i_len;
    const long double weight =
        fact[b] * fact[num_attrs - b - i_len] / (fact[num_attrs] * prod);
    Itemset j;
    j.reserve(b);
    std::set_difference(k.begin(), k.end(), itemset.begin(),
                        itemset.end(), std::back_inserter(j));
    DIVEXP_ASSIGN_OR_RETURN(double dj, table.Divergence(j));
    total += weight * (row.divergence - dj);
  }
  return static_cast<double>(total);
}

// ---------------------------------------------------------------------
// Random-table fixture.

struct RandomCase {
  EncodedDataset encoded;
  std::vector<Outcome> outcomes;
};

RandomCase MakeRandomCase(uint64_t seed, size_t num_rows = 400) {
  Rng rng(seed);
  const std::vector<int> domains = {2, 3, 2, 4};
  std::vector<std::vector<int>> rows(num_rows,
                                     std::vector<int>(domains.size()));
  std::string outcomes;
  for (auto& row : rows) {
    for (size_t a = 0; a < domains.size(); ++a) {
      row[a] = static_cast<int>(rng.Int(0, domains[a] - 1));
    }
    const double p = 0.2 + 0.5 * (row[0] == 1) - 0.1 * (row[2] == 0);
    const double roll = rng.Uniform();
    outcomes += roll < 0.15 ? 'B' : (rng.Bernoulli(p) ? 'T' : 'F');
  }
  RandomCase c;
  c.encoded = MakeEncoded(rows, domains);
  c.outcomes = testing::OutcomesFromString(outcomes);
  return c;
}

PatternTable ExploreCase(const RandomCase& c, double support,
                         size_t num_threads = 1) {
  ExplorerOptions opts;
  opts.min_support = support;
  opts.num_threads = num_threads;
  DivergenceExplorer explorer(opts);
  auto table = explorer.ExploreOutcomes(c.encoded, c.outcomes);
  DIVEXP_CHECK(table.ok());
  return std::move(table).value();
}

const uint64_t kSeeds[] = {7, 23, 101};
const double kSupports[] = {0.01, 0.05, 0.2};
const size_t kThreads[] = {1, 2, 8};

// ---------------------------------------------------------------------

TEST(PostpassDifferentialTest, GlobalDivergenceMatchesReference) {
  for (uint64_t seed : kSeeds) {
    const RandomCase c = MakeRandomCase(seed);
    for (double support : kSupports) {
      const PatternTable table = ExploreCase(c, support);
      GlobalDivergenceOptions legacy_opts;
      legacy_opts.use_lattice_index = false;
      const auto legacy = ComputeGlobalItemDivergence(table, legacy_opts);
      for (size_t threads : kThreads) {
        GlobalDivergenceOptions gopts;
        gopts.num_threads = threads;
        const auto indexed = ComputeGlobalItemDivergence(table, gopts);
        ASSERT_EQ(indexed.size(), legacy.size());
        for (size_t i = 0; i < legacy.size(); ++i) {
          EXPECT_EQ(indexed[i].item, legacy[i].item);
          EXPECT_NEAR(indexed[i].global, legacy[i].global, 1e-12)
              << "seed=" << seed << " s=" << support
              << " threads=" << threads << " item=" << i;
          EXPECT_EQ(indexed[i].individual, legacy[i].individual);
        }
      }
    }
  }
}

TEST(PostpassDifferentialTest, ShapleyMatchesReference) {
  for (uint64_t seed : kSeeds) {
    const RandomCase c = MakeRandomCase(seed);
    const PatternTable table = ExploreCase(c, 0.05);
    size_t checked = 0;
    for (size_t i = 0; i < table.size(); ++i) {
      const Itemset& items = table.row(i).items;
      if (items.size() < 2) continue;
      const auto got = ShapleyContributions(table, items);
      const auto want = RefShapley(table, items);
      ASSERT_TRUE(got.ok() && want.ok());
      ASSERT_EQ(got->size(), want->size());
      for (size_t a = 0; a < want->size(); ++a) {
        EXPECT_EQ((*got)[a].item, (*want)[a].item);
        EXPECT_NEAR((*got)[a].contribution, (*want)[a].contribution,
                    1e-12);
      }
      ++checked;
    }
    EXPECT_GT(checked, 10u);
  }
}

TEST(PostpassDifferentialTest, MarginalContributionMatchesReference) {
  const RandomCase c = MakeRandomCase(kSeeds[0]);
  const PatternTable table = ExploreCase(c, 0.05);
  for (size_t i = 0; i < table.size(); ++i) {
    const PatternRow& row = table.row(i);
    if (row.items.empty()) continue;
    for (uint32_t alpha : row.items) {
      const auto got = MarginalContribution(table, row.items, alpha);
      ASSERT_TRUE(got.ok());
      const double want =
          row.divergence - *table.Divergence(Without(row.items, alpha));
      EXPECT_NEAR(*got, want, 1e-12);
    }
  }
}

TEST(PostpassDifferentialTest, CorrectiveItemsMatchReference) {
  for (uint64_t seed : kSeeds) {
    const RandomCase c = MakeRandomCase(seed);
    for (double support : kSupports) {
      const PatternTable table = ExploreCase(c, support);
      for (const double min_factor : {0.0, 0.02}) {
        CorrectiveOptions copts;
        copts.min_factor = min_factor;
        const auto got = FindCorrectiveItems(table, copts);
        const auto want = RefCorrective(table, copts);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].base, want[i].base);
          EXPECT_EQ(got[i].item, want[i].item);
          EXPECT_EQ(got[i].base_divergence, want[i].base_divergence);
          EXPECT_EQ(got[i].with_divergence, want[i].with_divergence);
          EXPECT_EQ(got[i].factor, want[i].factor);
          EXPECT_EQ(got[i].t, want[i].t);
        }
      }
    }
  }
}

TEST(PostpassDifferentialTest, PruningMatchesReference) {
  for (uint64_t seed : kSeeds) {
    const RandomCase c = MakeRandomCase(seed);
    const PatternTable table = ExploreCase(c, 0.02);
    for (const double eps : {0.0, 0.01, 0.05, 0.5}) {
      EXPECT_EQ(RedundancyPrune(table, eps), RefPrune(table, eps));
    }
  }
}

TEST(PostpassDifferentialTest, GlobalItemsetDivergenceMatchesReference) {
  const RandomCase c = MakeRandomCase(kSeeds[1]);
  const PatternTable table = ExploreCase(c, 0.05);
  size_t checked = 0;
  for (size_t i = 0; i < table.size() && checked < 50; ++i) {
    const Itemset& items = table.row(i).items;
    if (items.empty()) continue;
    const auto got = GlobalItemsetDivergence(table, items);
    const auto want = RefGlobalItemset(table, items);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_NEAR(*got, *want, 1e-12) << ItemsetDebugString(items);
    ++checked;
  }
  EXPECT_GT(checked, 20u);
}

// The table build itself must not depend on the thread count: stats
// and links are pure per-row computations.
TEST(PostpassDifferentialTest, CreateDeterministicAcrossThreads) {
  const RandomCase c = MakeRandomCase(kSeeds[2]);
  const PatternTable base = ExploreCase(c, 0.02, 1);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    const PatternTable other = ExploreCase(c, 0.02, threads);
    ASSERT_EQ(other.size(), base.size());
    for (size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(other.row(i).items, base.row(i).items);
      EXPECT_EQ(other.row(i).support, base.row(i).support);
      EXPECT_EQ(other.row(i).rate, base.row(i).rate);
      EXPECT_EQ(other.row(i).divergence, base.row(i).divergence);
      EXPECT_EQ(other.row(i).t, base.row(i).t);
      const auto a = base.SubsetLinks(i);
      const auto b = other.SubsetLinks(i);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    }
  }
}

// The links of every complete table must point at exactly the
// immediate subsets.
TEST(PostpassDifferentialTest, SubsetLinksAreImmediateSubsets) {
  const RandomCase c = MakeRandomCase(kSeeds[0]);
  const PatternTable table = ExploreCase(c, 0.05);
  for (size_t i = 0; i < table.size(); ++i) {
    const Itemset& items = table.row(i).items;
    const auto links = table.SubsetLinks(i);
    ASSERT_EQ(links.size(), items.size());
    for (size_t j = 0; j < items.size(); ++j) {
      ASSERT_NE(links[j], PatternTable::kNoLink);
      EXPECT_EQ(table.row(links[j]).items, Without(items, items[j]));
    }
  }
}

// ---------------------------------------------------------------------
// Allocation accounting: the indexed hot paths must not materialize a
// single Itemset.

TEST(PostpassAllocationTest, GlobalDivergenceHotPathIsAllocationFree) {
  const RandomCase c = MakeRandomCase(kSeeds[0]);
  const PatternTable table = ExploreCase(c, 0.01);
  for (size_t threads : kThreads) {
    GlobalDivergenceOptions gopts;
    gopts.num_threads = threads;
    const uint64_t before = ItemsetAllocCount();
    const auto globals = ComputeGlobalItemDivergence(table, gopts);
    EXPECT_EQ(ItemsetAllocCount(), before) << "threads=" << threads;
    ASSERT_FALSE(globals.empty());
  }
}

TEST(PostpassAllocationTest, PruneAndMarginalAreAllocationFree) {
  const RandomCase c = MakeRandomCase(kSeeds[1]);
  const PatternTable table = ExploreCase(c, 0.02);
  uint64_t before = ItemsetAllocCount();
  const auto kept = RedundancyPrune(table, 0.01);
  EXPECT_EQ(ItemsetAllocCount(), before);
  ASSERT_FALSE(kept.empty());

  const Itemset& items = table.row(kept.back()).items;
  before = ItemsetAllocCount();
  const auto marginal = MarginalContribution(table, items, items[0]);
  EXPECT_EQ(ItemsetAllocCount(), before);
  EXPECT_TRUE(marginal.ok());
}

// ---------------------------------------------------------------------
// Guard-truncated tables: links must be consistent (point at the right
// row or kNoLink), and every consumer must degrade gracefully.

ItemCatalog MakeTwoAttrCatalog() {
  ItemCatalog catalog;
  catalog.AddAttribute("a0", {"v0", "v1"});  // items 0, 1
  catalog.AddAttribute("a1", {"v0", "v1"});  // items 2, 3
  return catalog;
}

// Mined input listing the superset BEFORE its subsets, so a mid-pass
// truncation drops subsets of a kept pattern.
std::vector<MinedPattern> SupersetFirstPatterns() {
  std::vector<MinedPattern> mined;
  mined.push_back({Itemset{}, OutcomeCounts{5, 5, 0}});
  mined.push_back({Itemset{0, 2}, OutcomeCounts{3, 1, 0}});
  mined.push_back({Itemset{2}, OutcomeCounts{4, 2, 0}});
  mined.push_back({Itemset{0}, OutcomeCounts{4, 3, 0}});
  return mined;
}

// Pre-charges a 1 MiB guard so only `keep_bytes` of budget remain for
// the pattern rows, making the truncation point deterministic.
RunLimits OneMiBLimit() {
  RunLimits limits;
  limits.max_memory_mb = 1;
  return limits;
}

void LeaveBudget(RunGuard& guard, uint64_t keep_bytes) {
  DIVEXP_CHECK(guard.AddMemory((1ULL << 20) - keep_bytes));
}

uint64_t FootprintBytes(size_t items) {
  return sizeof(PatternRow) + 2 * items * sizeof(uint32_t);
}

TEST(TruncatedLatticeTest, AllLinksMissing) {
  RunGuard guard(OneMiBLimit());
  LeaveBudget(guard, FootprintBytes(2) + 4);
  auto table = PatternTable::Create(SupersetFirstPatterns(),
                                    MakeTwoAttrCatalog(), 10, &guard);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(guard.stopped());
  EXPECT_EQ(guard.breach(), LimitBreach::kMemoryBudget);
  ASSERT_EQ(table->size(), 2u);  // root + {0, 2}

  const auto links = table->SubsetLinks(1);
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links[0], PatternTable::kNoLink);
  EXPECT_EQ(links[1], PatternTable::kNoLink);

  // Consumers degrade instead of crashing.
  const auto globals = ComputeGlobalItemDivergence(*table);
  for (const auto& g : globals) EXPECT_EQ(g.global, 0.0);
  EXPECT_EQ(RedundancyPrune(*table, 0.0).size(), 1u);
  EXPECT_TRUE(FindCorrectiveItems(*table).empty());
  EXPECT_FALSE(ShapleyContributions(*table, Itemset{0, 2}).ok());
  EXPECT_FALSE(MarginalContribution(*table, Itemset{0, 2}, 0).ok());
  EXPECT_FALSE(GlobalItemsetDivergence(*table, Itemset{0, 2}).ok());
}

TEST(TruncatedLatticeTest, PartialLinksStayConsistent) {
  // Room for {0,2} and {2}; {0} is dropped.
  RunGuard guard(OneMiBLimit());
  LeaveBudget(guard, FootprintBytes(2) + FootprintBytes(1) + 4);
  auto table = PatternTable::Create(SupersetFirstPatterns(),
                                    MakeTwoAttrCatalog(), 10, &guard);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->size(), 3u);  // root + {0, 2} + {2}

  const auto links = table->SubsetLinks(1);
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links[0], 2u);  // {0,2} \ {0} = {2}, present at row 2
  EXPECT_EQ(links[1], PatternTable::kNoLink);  // {0} was dropped
  // {2}'s immediate subset is the root.
  const auto single_links = table->SubsetLinks(2);
  ASSERT_EQ(single_links.size(), 1u);
  EXPECT_EQ(single_links[0], 0u);

  // The marginal over the surviving link works; the dropped one errors.
  EXPECT_TRUE(MarginalContribution(*table, Itemset{0, 2}, 0).ok());
  EXPECT_FALSE(MarginalContribution(*table, Itemset{0, 2}, 2).ok());
}

// The fixed memory accounting charges the itemset heap bytes, not just
// sizeof(PatternRow).
TEST(PatternTableAccountingTest, ChargesPerRowFootprint) {
  const RandomCase c = MakeRandomCase(kSeeds[0]);
  ExplorerOptions opts;
  opts.min_support = 0.05;
  RunGuard guard;  // unlimited: accounting only
  opts.guard = &guard;
  DivergenceExplorer explorer(opts);
  auto table = explorer.ExploreOutcomes(c.encoded, c.outcomes);
  ASSERT_TRUE(table.ok());
  uint64_t items_bytes = 0;
  for (size_t i = 1; i < table->size(); ++i) {
    items_bytes += table->row(i).items.size() * sizeof(uint32_t);
  }
  // Strictly more than the old sizeof(PatternRow)-only accounting.
  EXPECT_GE(guard.peak_memory_bytes(),
            (table->size() - 1) * sizeof(PatternRow) + items_bytes);
}

// ---------------------------------------------------------------------
// Subset links from the canonical order. The level walk (prefix merge,
// child-range search over the last-item column, binary-search fallback)
// must give every row exactly the rows of its immediate subsets, on
// complete, non-closed, shuffled and truncated tables, at every thread
// count. The tables are large enough that the widest levels span
// several of the walk's parallel blocks.

const size_t kLinkThreads[] = {1, 2, 4};

// Row of every itemset, built by one pass over the rows: the oracle the
// links are checked against.
std::map<Itemset, uint32_t> RowsByItemset(const PatternTable& table) {
  std::map<Itemset, uint32_t> rows;
  for (size_t i = 0; i < table.size(); ++i) {
    rows.emplace(table.row(i).items, static_cast<uint32_t>(i));
  }
  return rows;
}

// Every link equals the row of the materialized subset, or kNoLink
// exactly when that subset is not in the table.
void ExpectLinksMatchOracle(const PatternTable& table,
                            const std::string& what) {
  const std::map<Itemset, uint32_t> rows = RowsByItemset(table);
  ASSERT_EQ(rows.size(), table.size()) << what;
  for (size_t i = 0; i < table.size(); ++i) {
    const Itemset& items = table.row(i).items;
    const auto links = table.SubsetLinks(i);
    ASSERT_EQ(links.size(), items.size()) << what;
    for (size_t j = 0; j < items.size(); ++j) {
      const auto it = rows.find(Without(items, items[j]));
      const uint32_t want =
          it == rows.end() ? PatternTable::kNoLink : it->second;
      ASSERT_EQ(links[j], want)
          << what << ": " << ItemsetDebugString(items) << " skip " << j;
    }
  }
}

// `shuffled` holds the same itemsets as `canonical` in another row
// order; its links must be the canonical table's links carried through
// that row permutation.
void ExpectLinksFollowPermutation(const PatternTable& canonical,
                                  const PatternTable& shuffled,
                                  const std::string& what) {
  ASSERT_EQ(shuffled.size(), canonical.size()) << what;
  for (size_t i = 0; i < shuffled.size(); ++i) {
    const auto c = canonical.Find(shuffled.row(i).items);
    ASSERT_TRUE(c.has_value()) << what;
    const auto got = shuffled.SubsetLinks(i);
    const auto want = canonical.SubsetLinks(*c);
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t j = 0; j < got.size(); ++j) {
      if (want[j] == PatternTable::kNoLink) {
        EXPECT_EQ(got[j], PatternTable::kNoLink) << what;
        continue;
      }
      ASSERT_NE(got[j], PatternTable::kNoLink) << what;
      EXPECT_EQ(shuffled.row(got[j]).items, canonical.row(want[j]).items)
          << what;
    }
  }
}

std::vector<MinedPattern> MinedFromTable(const PatternTable& table) {
  std::vector<MinedPattern> mined;
  mined.reserve(table.size());
  for (const PatternRow& row : table.rows()) {
    mined.push_back({row.items, row.counts});
  }
  return mined;
}

// Shuffles every row but the first (the empty itemset), so truncation
// by a guard still keeps the root.
std::vector<MinedPattern> ShuffledAfterRoot(std::vector<MinedPattern> mined,
                                            uint64_t seed) {
  Rng rng(seed);
  std::vector<MinedPattern> rest(mined.begin() + 1, mined.end());
  rng.Shuffle(&rest);
  std::copy(rest.begin(), rest.end(), mined.begin() + 1);
  return mined;
}

PatternTable CreateOrDie(std::vector<MinedPattern> mined,
                         const ItemCatalog& catalog, size_t threads,
                         RunGuard* guard = nullptr) {
  PatternTableOptions options;
  options.num_threads = threads;
  auto table =
      PatternTable::Create(std::move(mined), catalog, 600, guard, options);
  DIVEXP_CHECK(table.ok());
  return std::move(table).value();
}

// 600 rows × 8 three-valued attributes at s=0.003: about 20k patterns,
// with levels 4 and 5 several thousand rows wide.
EncodedDataset WideCase() {
  Rng rng(77);
  std::vector<std::vector<int>> cells(600, std::vector<int>(8));
  for (auto& row : cells) {
    for (int& cell : row) cell = static_cast<int>(rng.Below(3));
  }
  return MakeEncoded(cells, std::vector<int>(8, 3));
}

std::vector<Outcome> WideOutcomes() {
  Rng rng(78);
  std::string outcomes;
  for (int r = 0; r < 600; ++r) outcomes += rng.Bernoulli(0.3) ? 'T' : 'F';
  return testing::OutcomesFromString(outcomes);
}

TEST(SubsetLinkTest, CompleteMinedTablesMatchOracle) {
  const EncodedDataset encoded = WideCase();
  const std::vector<Outcome> outcomes = WideOutcomes();
  for (MinerKind miner :
       {MinerKind::kFpGrowth, MinerKind::kApriori, MinerKind::kEclat}) {
    for (size_t threads : kLinkThreads) {
      ExplorerOptions opts;
      opts.min_support = 0.003;
      opts.miner = miner;
      opts.num_threads = threads;
      auto table = DivergenceExplorer(opts).ExploreOutcomes(encoded, outcomes);
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      ASSERT_GT(table->size(), 10000u);
      const std::string what = std::string(MinerKindName(miner)) +
                               " threads=" + std::to_string(threads);
      ExpectLinksMatchOracle(*table, what);
      for (size_t i = 0; i < table->size(); ++i) {
        for (uint32_t link : table->SubsetLinks(i)) {
          ASSERT_NE(link, PatternTable::kNoLink) << what;
        }
      }
      const PatternTable shuffled = CreateOrDie(
          ShuffledAfterRoot(MinedFromTable(*table), threads), table->catalog(),
          threads);
      ExpectLinksMatchOracle(shuffled, what + " shuffled");
      ExpectLinksFollowPermutation(*table, shuffled, what + " shuffled");
    }
  }
}

// Random itemsets over 30 items: most subsets are absent, so most links
// take the binary-search fallback or come out kNoLink.
std::vector<MinedPattern> RandomNonClosed(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::set<Itemset> unique = {Itemset{}};
  while (unique.size() < count + 1) {
    std::vector<uint32_t> ids(1 + rng.Below(6));
    for (uint32_t& id : ids) id = static_cast<uint32_t>(rng.Below(30));
    unique.insert(MakeItemset(std::move(ids)));
  }
  std::vector<MinedPattern> mined;
  for (const Itemset& items : unique) {
    mined.push_back({items, OutcomeCounts{1 + rng.Below(5), 1, 0}});
  }
  return mined;
}

ItemCatalog ThirtyItemCatalog() {
  ItemCatalog catalog;
  std::vector<std::string> values;
  for (int v = 0; v < 30; ++v) values.push_back("v" + std::to_string(v));
  catalog.AddAttribute("a", values);
  return catalog;
}

TEST(SubsetLinkTest, NonClosedTablesMatchOracle) {
  const ItemCatalog catalog = ThirtyItemCatalog();
  for (uint64_t seed : {3u, 4u}) {
    std::vector<MinedPattern> mined = RandomNonClosed(seed, 12000);
    SortPatterns(&mined);
    for (size_t threads : kLinkThreads) {
      const std::string what = "seed=" + std::to_string(seed) +
                               " threads=" + std::to_string(threads);
      const PatternTable canonical = CreateOrDie(mined, catalog, threads);
      ExpectLinksMatchOracle(canonical, what);
      const PatternTable shuffled =
          CreateOrDie(ShuffledAfterRoot(mined, seed + threads), catalog,
                      threads);
      ExpectLinksMatchOracle(shuffled, what + " shuffled");
      ExpectLinksFollowPermutation(canonical, shuffled, what + " shuffled");
    }
  }
}

// A complete table with a fifth of its rows dropped: prefixes and
// child ranges have gaps, so the walk mixes all three of its paths.
TEST(SubsetLinkTest, ThinnedMinedTablesMatchOracle) {
  ExplorerOptions opts;
  opts.min_support = 0.003;
  auto table = DivergenceExplorer(opts).ExploreOutcomes(WideCase(),
                                                        WideOutcomes());
  ASSERT_TRUE(table.ok());
  Rng rng(5);
  std::vector<MinedPattern> thinned;
  for (MinedPattern& p : MinedFromTable(*table)) {
    if (p.items.empty() || !rng.Bernoulli(0.2)) thinned.push_back(std::move(p));
  }
  for (size_t threads : kLinkThreads) {
    const std::string what = "threads=" + std::to_string(threads);
    const PatternTable canonical =
        CreateOrDie(thinned, table->catalog(), threads);
    ExpectLinksMatchOracle(canonical, what);
    const PatternTable shuffled = CreateOrDie(
        ShuffledAfterRoot(thinned, threads), table->catalog(), threads);
    ExpectLinksFollowPermutation(canonical, shuffled, what + " shuffled");
  }
}

// A memory budget cuts the row set mid-pass: a canonical input keeps a
// prefix of the order, a shuffled one an arbitrary subset whose kept
// rows lose some of their subsets.
TEST(SubsetLinkTest, GuardTruncatedTablesMatchOracle) {
  ExplorerOptions opts;
  opts.min_support = 0.003;
  auto table = DivergenceExplorer(opts).ExploreOutcomes(WideCase(),
                                                        WideOutcomes());
  ASSERT_TRUE(table.ok());
  const std::vector<MinedPattern> mined = MinedFromTable(*table);
  for (size_t threads : kLinkThreads) {
    for (bool shuffle : {false, true}) {
      RunGuard guard(OneMiBLimit());
      LeaveBudget(guard, 600 * 1024);
      const PatternTable truncated = CreateOrDie(
          shuffle ? ShuffledAfterRoot(mined, 9) : mined, table->catalog(),
          threads, &guard);
      ASSERT_TRUE(guard.stopped());
      ASSERT_LT(truncated.size(), mined.size());
      ASSERT_GT(truncated.size(), 2048u);
      ExpectLinksMatchOracle(
          truncated, "threads=" + std::to_string(threads) +
                         (shuffle ? " shuffled" : " canonical"));
    }
  }
}

}  // namespace
}  // namespace divexp
