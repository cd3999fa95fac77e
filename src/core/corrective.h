// Corrective items (paper Def. 4.2): items whose addition *reduces* the
// absolute divergence of a pattern. Only a complete exploration can
// surface them — pruned searches never visit the corrected superset.
#ifndef DIVEXP_CORE_CORRECTIVE_H_
#define DIVEXP_CORE_CORRECTIVE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/pattern.h"

namespace divexp {

/// One corrective (base itemset, item) pair, as in paper Table 3.
struct CorrectiveItem {
  Itemset base;                 ///< I
  uint32_t item = 0;            ///< α ∉ I
  double base_divergence = 0.0; ///< Δ(I)
  double with_divergence = 0.0; ///< Δ(I ∪ {α})
  double factor = 0.0;          ///< |Δ(I)| − |Δ(I ∪ {α})| > 0
  double t = 0.0;               ///< significance of the corrected itemset
};

struct CorrectiveOptions {
  /// Keep only pairs with corrective factor above this value.
  double min_factor = 0.0;
  /// Require the corrected itemset's |Δ| to land within this fraction
  /// of |Δ(I)| is NOT enforced; set min_factor instead. Kept simple on
  /// purpose: the paper ranks purely by corrective factor.
  size_t top_k = 0;  ///< 0 = all
  /// Workers for FindCorrectiveItems' scan; 1 = sequential. The result
  /// does not depend on it. QueryEngine::Corrective ignores it.
  size_t num_threads = 1;
};

/// A qualifying corrective pair by row index; its base itemset is only
/// built once the pair is known to be among the results.
struct CorrectiveCandidate {
  double factor = 0.0;
  size_t base = 0;      ///< row of I
  size_t superset = 0;  ///< row of I ∪ {α}
  uint32_t item = 0;    ///< α
};

/// Selects corrective pairs in paper Table 3's order: larger factor
/// first, then shorter base, then lexicographically smaller base items,
/// then smaller item. (I, α) pairs are unique, so the order is total and
/// the selection does not depend on the order pairs are offered in.
/// With top_k = k a k-element heap holds the best pairs seen so far:
/// O(pairs · log k) time and O(k) memory. top_k = 0 keeps every
/// qualifying pair and sorts them.
///
/// `BaseItems` maps a row index to that row's items as an ItemSpan; the
/// core table and the serving view each supply one.
template <typename BaseItems>
class CorrectiveSelector {
 public:
  CorrectiveSelector(const CorrectiveOptions& options, BaseItems base_items)
      : options_(options), base_items_(std::move(base_items)) {}

  /// Considers the pair (I, α) where I is row `base` and I ∪ {α} is row
  /// `superset`; it qualifies when its factor exceeds both 0 and
  /// min_factor.
  void Offer(size_t superset, size_t base, uint32_t item,
             double base_divergence, double with_divergence) {
    const double factor =
        std::fabs(base_divergence) - std::fabs(with_divergence);
    // Written so a NaN factor (only a corrupt serving artifact's stats
    // can produce one) never qualifies and never reaches the ordering.
    if (!(factor > options_.min_factor && factor > 0.0)) return;
    Keep(CorrectiveCandidate{factor, base, superset, item});
  }

  /// Folds in every pair `other` kept. Because the order is total, a
  /// scan split across selectors and merged keeps the same pairs as one
  /// selector over the whole scan.
  void Merge(CorrectiveSelector&& other) {
    for (const CorrectiveCandidate& candidate : other.kept_) Keep(candidate);
    other.kept_.clear();
  }

  /// The kept pairs, best first. Leaves the selector empty.
  std::vector<CorrectiveCandidate> Take() {
    if (options_.top_k == 0) {
      std::sort(kept_.begin(), kept_.end(), Order());
    } else {
      std::sort_heap(kept_.begin(), kept_.end(), Order());
    }
    return std::move(kept_);
  }

 private:
  /// Keeps `candidate` if it is among the best top_k pairs so far.
  void Keep(const CorrectiveCandidate& candidate) {
    if (options_.top_k == 0) {
      kept_.push_back(candidate);
    } else if (kept_.size() < options_.top_k) {
      kept_.push_back(candidate);
      std::push_heap(kept_.begin(), kept_.end(), Order());
    } else if (Before(candidate, kept_.front())) {
      // The heap's front is the worst pair kept; the new one replaces it.
      std::pop_heap(kept_.begin(), kept_.end(), Order());
      kept_.back() = candidate;
      std::push_heap(kept_.begin(), kept_.end(), Order());
    }
  }

  /// Before() as a comparator for the standard heap and sort algorithms.
  auto Order() const {
    return [this](const CorrectiveCandidate& a,
                  const CorrectiveCandidate& b) { return Before(a, b); };
  }

  bool Before(const CorrectiveCandidate& a,
              const CorrectiveCandidate& b) const {
    if (a.factor != b.factor) return a.factor > b.factor;
    if (a.base != b.base) {
      const ItemSpan ia = base_items_(a.base);
      const ItemSpan ib = base_items_(b.base);
      if (ia.size() != ib.size()) return ia.size() < ib.size();
      const auto [pa, pb] = std::mismatch(ia.begin(), ia.end(), ib.begin());
      if (pa != ia.end()) return *pa < *pb;
    }
    return a.item < b.item;
  }

  CorrectiveOptions options_;
  BaseItems base_items_;
  std::vector<CorrectiveCandidate> kept_;
};

/// Scans the pattern table for corrective (I, α) pairs, ranked by
/// CorrectiveSelector's order and cut to options.top_k. Both I and
/// I ∪ {α} must be frequent, which the complete exploration guarantees
/// whenever the superset is. With options.num_threads > 1 each worker
/// scans a contiguous share of the links into its own selector, and the
/// selectors are merged.
std::vector<CorrectiveItem> FindCorrectiveItems(
    const PatternTable& table, const CorrectiveOptions& options = {});

}  // namespace divexp

#endif  // DIVEXP_CORE_CORRECTIVE_H_
