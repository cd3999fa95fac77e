// Differential cross-miner harness: seeded-PRNG random tables with
// varying arity, NULL density and value skew, asserting that FP-growth,
// Apriori and Eclat emit byte-identical (itemset, support,
// outcome-tally) sets at several min-support levels, across every
// kernel implementation (scalar and the CPU's SIMD table), and that the
// parallel mining paths (num_threads ∈ {1, 2, 8}) reproduce the
// sequential result exactly. The full kernel × miner × threads matrix
// runs under TSan in CI, so the 8-thread SIMD configurations double as
// a race detector for the mining internals.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "fpm/miner.h"
#include "testing/test_data.h"
#include "util/random.h"

namespace divexp {
namespace {

using testing::MakeEncoded;

struct TableSpec {
  std::string label;
  uint64_t seed;
  size_t rows;
  /// Per-attribute domain sizes (mixed arity is the point).
  std::vector<int> domains;
  /// Probability that a cell takes the dedicated "missing" category
  /// (value 0) — the post-discretization representation of NULLs.
  double null_prob;
  /// Geometric skew toward low value indices; 0 = uniform.
  double skew;
};

std::vector<TableSpec> Specs() {
  return {
      {"uniform_small_arity", 11, 240, {2, 3, 3, 2, 4}, 0.0, 0.0},
      {"nulls_mixed_arity", 23, 320, {3, 5, 2, 4, 3, 2}, 0.25, 0.0},
      {"heavy_skew", 37, 400, {4, 4, 6, 3, 2}, 0.05, 0.6},
      {"wide_arity_sparse", 53, 300, {8, 2, 5, 7, 3}, 0.15, 0.35},
  };
}

struct Case {
  EncodedDataset dataset;
  std::vector<Outcome> outcomes;
};

Case MakeCase(const TableSpec& spec) {
  Rng rng(spec.seed);
  std::vector<std::vector<int>> cells(spec.rows,
                                      std::vector<int>(spec.domains.size()));
  std::vector<Outcome> outcomes(spec.rows);
  for (size_t r = 0; r < spec.rows; ++r) {
    for (size_t a = 0; a < spec.domains.size(); ++a) {
      const int domain = spec.domains[a];
      int v = 0;
      if (rng.Uniform() >= spec.null_prob) {
        // Geometric walk away from the sentinel: high skew piles the
        // mass on a few values, which is what stresses the miners'
        // header ordering / tid-list intersection differently.
        v = 1 + static_cast<int>(rng.Below(static_cast<uint64_t>(
                std::max(1, domain - 1))));
        while (v > 1 && rng.Uniform() < spec.skew) --v;
      }
      cells[r][a] = v;
    }
    // Outcome distribution correlated with the first attribute so the
    // tallies differ across itemsets (not just the supports).
    const double bias = cells[r][0] == 0 ? 0.55 : 0.25;
    const double u = rng.Uniform();
    outcomes[r] = u < bias         ? Outcome::kTrue
                  : u < bias + 0.3 ? Outcome::kFalse
                                   : Outcome::kBottom;
  }
  Case c;
  c.dataset = MakeEncoded(cells, spec.domains);
  c.outcomes = std::move(outcomes);
  return c;
}

using PatternMap = std::map<Itemset, OutcomeCounts>;

PatternMap ToMap(const std::vector<MinedPattern>& patterns) {
  PatternMap out;
  for (const MinedPattern& p : patterns) {
    // A miner must never emit the same itemset twice.
    EXPECT_TRUE(out.emplace(p.items, p.counts).second)
        << "duplicate itemset emitted";
  }
  return out;
}

class DifferentialMinerTest : public ::testing::TestWithParam<TableSpec> {};

TEST_P(DifferentialMinerTest, MinersAndThreadCountsAgree) {
  const TableSpec& spec = GetParam();
  const Case c = MakeCase(spec);
  auto db = TransactionDatabase::Create(c.dataset, c.outcomes);
  ASSERT_TRUE(db.ok());

  for (double support : {0.02, 0.08, 0.25}) {
    // Sequential scalar-kernel FP-growth is the reference for this
    // support level.
    MinerOptions ref_opts;
    ref_opts.min_support = support;
    ref_opts.kernel = fpm::KernelKind::kScalar;
    auto reference = MakeMiner(MinerKind::kFpGrowth)->Mine(*db, ref_opts);
    ASSERT_TRUE(reference.ok());
    const PatternMap expected = ToMap(*reference);
    ASSERT_GE(expected.size(), 1u);  // at least the empty itemset

    for (MinerKind kind :
         {MinerKind::kFpGrowth, MinerKind::kApriori, MinerKind::kEclat}) {
      for (fpm::KernelKind kernel :
           {fpm::KernelKind::kScalar, fpm::KernelKind::kSimd}) {
        for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
          MinerOptions opts;
          opts.min_support = support;
          opts.num_threads = threads;
          opts.kernel = kernel;
          auto patterns = MakeMiner(kind)->Mine(*db, opts);
          ASSERT_TRUE(patterns.ok());
          EXPECT_EQ(ToMap(*patterns), expected)
              << spec.label << ": " << MinerKindName(kind)
              << " s=" << support << " threads=" << threads << " kernel="
              << fpm::KernelKindName(kernel)
              << " diverged from the reference";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tables, DifferentialMinerTest, ::testing::ValuesIn(Specs()),
    [](const ::testing::TestParamInfo<TableSpec>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace divexp
