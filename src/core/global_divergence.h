// Global item divergence (paper Def. 4.3): the Shapley value
// generalized to the itemset lattice, measuring how much an item skews
// the statistic when added to patterns across the whole dataset —
// approximated over frequent itemsets (Eq. 8).
#ifndef DIVEXP_CORE_GLOBAL_DIVERGENCE_H_
#define DIVEXP_CORE_GLOBAL_DIVERGENCE_H_

#include <vector>

#include "core/pattern.h"
#include "util/status.h"

namespace divexp {

/// Global and individual divergence of one item (the two measures
/// compared in paper §4.4 / Figures 4, 5, 9).
struct GlobalItemDivergence {
  uint32_t item = 0;
  double global = 0.0;      ///< Δ̃^g(α, s), Eq. 8
  double individual = 0.0;  ///< Δ(α), Eq. 1 (0 if the item is infrequent)
};

/// Tuning knobs for ComputeGlobalItemDivergence.
struct GlobalDivergenceOptions {
  /// Worker threads for the accumulation over the pattern table.
  /// Per-chunk accumulators are reduced in chunk order, so the result
  /// is deterministic for a fixed thread count (and within 1e-12 of
  /// any other thread count — only the FP summation order differs).
  size_t num_threads = 1;
  /// false = the pre-index reference path (sequential, one temporary
  /// itemset + table lookup per (pattern, item)). Kept for A/B
  /// benchmarking (bench/postpass_bench.cc) and the differential tests.
  bool use_lattice_index = true;
};

/// Computes Δ̃^g(α, s) for every item in the catalog in one pass over
/// the pattern table, walking the table's precomputed subset links —
/// no itemset is materialized. Items that never appear in a frequent
/// itemset get global divergence 0. On a guard-truncated table,
/// patterns whose immediate subset was dropped are skipped (the
/// reference path would fail on them).
std::vector<GlobalItemDivergence> ComputeGlobalItemDivergence(
    const PatternTable& table, const GlobalDivergenceOptions& options = {});

/// Δ̃^g(I, s) for an arbitrary frequent itemset I (Eq. 8 in full
/// generality; used by the Theorem 4.1 property tests). Subset rows are
/// resolved by chasing |I| lattice links from each superset — zero
/// itemset materializations.
Result<double> GlobalItemsetDivergence(const PatternTable& table,
                                       const Itemset& itemset);

}  // namespace divexp

#endif  // DIVEXP_CORE_GLOBAL_DIVERGENCE_H_
