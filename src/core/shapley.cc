#include "core/shapley.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "obs/stage.h"
#include "obs/trace.h"
#include "stats/special.h"

namespace divexp {

Result<std::vector<ItemContribution>> ShapleyContributions(
    const PatternTable& table, const Itemset& items) {
  obs::ScopedSpan span(obs::kStageShapley);
  if (items.size() > kMaxShapleyItems) {
    return Status::InvalidArgument(
        "shapley accepts at most " + std::to_string(kMaxShapleyItems) +
        " items, got " + std::to_string(items.size()) +
        ": the exact computation enumerates 2^n subsets");
  }
  const auto row_idx = table.Find(items);
  if (!row_idx.has_value()) {
    return Status::NotFound("itemset not in pattern table: " +
                            ItemsetDebugString(items));
  }
  const size_t n = items.size();
  const double n_fact = Factorial(n);
  // Immediate subsets I \ {α} come straight off the lattice links; the
  // non-immediate subsets go through the table's binary search with one
  // scratch buffer reused across the whole enumeration, so no Itemset
  // is materialized on the hot path.
  const std::span<const uint32_t> links = table.SubsetLinks(*row_idx);
  Itemset scratch;
  scratch.reserve(n);

  // Row index of the subset of `items` selected by `mask`; `extra`
  // (npos = none) forces one additional position in. nullopt only on
  // guard-truncated tables (subsets of frequent itemsets are frequent).
  const auto find_subset =
      [&](uint64_t mask, size_t extra) -> std::optional<size_t> {
    scratch.clear();
    for (size_t p = 0; p < n; ++p) {
      if ((mask & (1ULL << p)) || p == extra) scratch.push_back(items[p]);
    }
    return table.Find(ItemSpan(scratch));
  };

  std::vector<ItemContribution> out;
  out.reserve(n);
  for (size_t a = 0; a < n; ++a) {
    double value = 0.0;
    // All subsets J ⊆ I \ {α}: masks over the n positions with bit a
    // forced off (n <= kMaxShapleyItems, so the shift is in range).
    const uint64_t full = (1ULL << n) - 1;
    const uint64_t rest = full & ~(1ULL << a);
    // Enumerate submasks of `rest` in increasing order.
    uint64_t mask = 0;
    while (true) {
      double with_div;
      double without_div;
      size_t j_size;
      if (mask == rest) {
        // J = I \ {α}: both rows are already linked — J ∪ {α} is I
        // itself and J is its α-link.
        if (links[a] == PatternTable::kNoLink) {
          return Status::NotFound("subset dropped by truncation under " +
                                  ItemsetDebugString(items));
        }
        with_div = table.row(*row_idx).divergence;
        without_div = table.row(links[a]).divergence;
        j_size = n - 1;
      } else {
        const auto with = find_subset(mask, a);
        const auto without = find_subset(mask, static_cast<size_t>(-1));
        if (!with.has_value() || !without.has_value()) {
          return Status::NotFound("subset dropped by truncation under " +
                                  ItemsetDebugString(items));
        }
        with_div = table.row(*with).divergence;
        without_div = table.row(*without).divergence;
        j_size = static_cast<size_t>(std::popcount(mask));
      }
      const double weight =
          Factorial(j_size) * Factorial(n - j_size - 1) / n_fact;
      value += weight * (with_div - without_div);
      if (mask == rest) break;
      mask = (mask - rest) & rest;  // next submask of rest
    }
    out.push_back(ItemContribution{items[a], value});
  }
  return out;
}

Result<double> MarginalContribution(const PatternTable& table,
                                    const Itemset& items, uint32_t alpha) {
  const auto row_idx = table.Find(items);
  if (!row_idx.has_value()) {
    return Status::NotFound("itemset not frequent: " +
                            ItemsetDebugString(items));
  }
  const Itemset& k = table.row(*row_idx).items;
  const auto pos = std::lower_bound(k.begin(), k.end(), alpha);
  if (pos == k.end() || *pos != alpha) {
    return Status::NotFound("item not in itemset: " +
                            ItemsetDebugString(items));
  }
  const uint32_t link =
      table.SubsetLinks(*row_idx)[static_cast<size_t>(pos - k.begin())];
  if (link == PatternTable::kNoLink) {
    return Status::NotFound("subset dropped by truncation under " +
                            ItemsetDebugString(items));
  }
  return table.row(*row_idx).divergence - table.row(link).divergence;
}

}  // namespace divexp
