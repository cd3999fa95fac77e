#include "core/corrective.h"

#include "obs/stage.h"
#include "obs/trace.h"

namespace divexp {

std::vector<CorrectiveItem> FindCorrectiveItems(
    const PatternTable& table, const CorrectiveOptions& options) {
  obs::ScopedSpan span(obs::kStageCorrective);
  CorrectiveSelector selector(options, [&table](size_t row) {
    return ItemSpan(table.row(row).items);
  });
  // Every frequent superset K = I ∪ {α} defines |K| candidate pairs
  // (drop each item in turn); enumerating supersets guarantees both
  // sides of the comparison are in the table. The base row I comes
  // straight off the lattice links.
  for (size_t i = 0; i < table.size(); ++i) {
    const PatternRow& row = table.row(i);
    const Itemset& k = row.items;
    const std::span<const uint32_t> links = table.SubsetLinks(i);
    for (size_t j = 0; j < k.size(); ++j) {
      const uint32_t link = links[j];
      // kNoLink: subset dropped by a guard truncation — skip the pair.
      if (link == PatternTable::kNoLink) continue;
      const PatternRow& base_row = table.row(link);
      if (base_row.items.empty()) continue;  // Δ(∅) = 0: nothing to correct
      selector.Offer(i, link, k[j], base_row.divergence, row.divergence);
    }
  }
  const std::vector<CorrectiveCandidate> kept = selector.Take();
  std::vector<CorrectiveItem> out;
  out.reserve(kept.size());
  for (const CorrectiveCandidate& c : kept) {
    const PatternRow& base_row = table.row(c.base);
    const PatternRow& row = table.row(c.superset);
    out.push_back(CorrectiveItem{base_row.items, c.item,
                                 base_row.divergence, row.divergence,
                                 c.factor, row.t});
  }
  return out;
}

}  // namespace divexp
