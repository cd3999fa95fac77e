#include "shard/merge.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "fpm/itemset.h"
#include "fpm/kernels/kernels.h"
#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/parallel.h"

namespace divexp {
namespace shard {
namespace {

using ItemsetSet = std::unordered_set<Itemset, ItemsetHash, ItemsetEq>;

/// True when `row` of `dataset` satisfies the conjunction `items`.
bool RowMatches(const EncodedDataset& dataset, size_t row,
                const Itemset& items) {
  for (uint32_t id : items) {
    const size_t attr = dataset.catalog.item(id).attribute;
    if (dataset.at(row, attr) != id) return false;
  }
  return true;
}

}  // namespace

std::vector<ShardRange> MakeShardPlan(size_t num_rows, size_t num_shards) {
  std::vector<ShardRange> plan(num_shards);
  if (num_shards == 0) return plan;
  const size_t base = num_rows / num_shards;
  const size_t extra = num_rows % num_shards;
  size_t begin = 0;
  for (size_t i = 0; i < num_shards; ++i) {
    const size_t size = base + (i < extra ? 1 : 0);
    plan[i] = ShardRange{begin, begin + size};
    begin += size;
  }
  return plan;
}

Result<ShardMergeResult> MergeShardContributions(
    const EncodedDataset& dataset, const std::vector<Outcome>& outcomes,
    const std::vector<ShardRange>& plan,
    const std::vector<uint64_t>& expected_fingerprints,
    const std::vector<bool>& include_rows,
    const std::vector<ShardContribution>& contributions,
    const ShardMergeOptions& options) {
  DIVEXP_FAILPOINT_STATUS("shard.merge.verify");
  if (plan.size() != expected_fingerprints.size() ||
      plan.size() != include_rows.size()) {
    return Status::InvalidArgument(
        "shard plan, fingerprints and inclusion mask disagree in size");
  }
  if (outcomes.size() != dataset.num_rows) {
    return Status::InvalidArgument("outcomes length does not match dataset");
  }
  if (options.min_support <= 0.0 || options.min_support > 1.0) {
    return Status::InvalidArgument("min_support must be in (0, 1]");
  }

  // Phase 1: verify provenance, then union the candidate itemsets.
  // Duplicates collapse; per-shard tallies are deliberately discarded —
  // phase 2 recounts from the dataset, which keeps the merge exact no
  // matter how a contribution was produced (fresh mine, retry, stale
  // checkpoint).
  ItemsetSet candidate_set;
  for (const ShardContribution& c : contributions) {
    if (c.shard >= plan.size()) {
      return Status::InvalidArgument("contribution from unknown shard " +
                                     std::to_string(c.shard));
    }
    if (c.fingerprint != expected_fingerprints[c.shard]) {
      return Status::InvalidArgument(
          "shard " + std::to_string(c.shard) +
          " contribution fingerprint mismatch (contribution was mined "
          "from different data)");
    }
    for (const MinedPattern& p : c.patterns) {
      if (p.items.empty()) continue;  // rebuilt from totals below
      if (options.max_length != 0 && p.items.size() > options.max_length) {
        continue;
      }
      candidate_set.insert(p.items);
    }
  }
  std::vector<Itemset> candidates(candidate_set.begin(),
                                  candidate_set.end());
  // Deterministic verification order (the recount itself is
  // order-independent, but stable iteration keeps timing and any
  // future tie-breaking reproducible).
  std::sort(candidates.begin(), candidates.end());

  ShardMergeResult result;
  result.candidates = candidates.size();
  for (size_t i = 0; i < plan.size(); ++i) {
    if (include_rows[i]) result.covered_rows += plan[i].size();
  }

  // Phase 2: exact recount of every candidate over the covered rows.
  OutcomeCounts totals;
  for (size_t i = 0; i < plan.size(); ++i) {
    if (!include_rows[i]) continue;
    for (size_t r = plan[i].begin; r < plan[i].end; ++r) {
      switch (outcomes[r]) {
        case Outcome::kTrue:
          ++totals.t;
          break;
        case Outcome::kFalse:
          ++totals.f;
          break;
        case Outcome::kBottom:
          ++totals.bot;
          break;
      }
    }
  }
  // Single-item supports over the covered rows feed the
  // SupportUpperBound pre-filter below: an itemset is at most as
  // frequent as its least frequent member, so candidates whose bound
  // is already below min_count skip the full row scan. Exact: a
  // skipped candidate's true count is <= its bound < min_count, so the
  // threshold filter would have discarded it anyway.
  std::vector<uint64_t> item_supports(dataset.catalog.num_items(), 0);
  for (size_t i = 0; i < plan.size(); ++i) {
    if (!include_rows[i]) continue;
    for (size_t r = plan[i].begin; r < plan[i].end; ++r) {
      for (size_t a = 0; a < dataset.num_attributes; ++a) {
        ++item_supports[dataset.at(r, a)];
      }
    }
  }
  const uint64_t min_count_bound =
      MinCount(options.min_support, result.covered_rows);
  obs::Counter* ubound_skips = obs::MetricsRegistry::Default().GetCounter(
      "fpm.kernel.ubound.skips");

  std::vector<OutcomeCounts> counts(candidates.size());
  {
    obs::StageTimer timer(options.stages, obs::kStageShardVerify);
    ParallelFor(options.num_threads, candidates.size(), [&](size_t ci) {
      OutcomeCounts& tally = counts[ci];
      const Itemset& items = candidates[ci];
      if (fpm::SupportUpperBound(items.data(), items.size(),
                                 item_supports.data(),
                                 item_supports.size()) < min_count_bound) {
        ubound_skips->Increment();
        return;  // tally stays zero; filtered by the threshold below
      }
      for (size_t i = 0; i < plan.size(); ++i) {
        if (!include_rows[i]) continue;
        for (size_t r = plan[i].begin; r < plan[i].end; ++r) {
          if (!RowMatches(dataset, r, items)) continue;
          switch (outcomes[r]) {
            case Outcome::kTrue:
              ++tally.t;
              break;
            case Outcome::kFalse:
              ++tally.f;
              break;
            case Outcome::kBottom:
              ++tally.bot;
              break;
          }
        }
      }
    });
    timer.AddItems(candidates.size());
  }

  // Keep candidates meeting the global threshold, then enforce
  // downward closure: with partial candidate sets (stale-checkpoint
  // degradation) a kept pattern could otherwise lack a sub-pattern,
  // which the analyses built on the table assume present. Closure is
  // checked shortest-first so a kept pattern's whole subset chain is
  // kept.
  const uint64_t min_count = min_count_bound;
  std::vector<MinedPattern> frequent;
  for (size_t ci = 0; ci < candidates.size(); ++ci) {
    if (counts[ci].total() >= min_count) {
      frequent.push_back(
          MinedPattern{std::move(candidates[ci]), counts[ci]});
    }
  }
  SortPatterns(&frequent, options.num_threads);
  ItemsetSet kept;
  std::vector<MinedPattern> closed;
  closed.push_back(MinedPattern{Itemset{}, totals});
  for (MinedPattern& p : frequent) {
    bool subsets_present = true;
    if (p.items.size() > 1) {
      for (uint32_t id : p.items) {
        if (kept.find(Without(p.items, id)) == kept.end()) {
          subsets_present = false;
          break;
        }
      }
    }
    if (!subsets_present) continue;
    kept.insert(p.items);
    closed.push_back(std::move(p));
  }
  result.patterns = std::move(closed);
  obs::MetricsRegistry::Default()
      .GetCounter("shard.merge_candidates")
      ->Add(result.candidates);
  return result;
}

}  // namespace shard
}  // namespace divexp
