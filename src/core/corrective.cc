#include "core/corrective.h"

#include "obs/stage.h"
#include "obs/trace.h"
#include "util/parallel.h"

namespace divexp {

std::vector<CorrectiveItem> FindCorrectiveItems(
    const PatternTable& table, const CorrectiveOptions& options) {
  obs::ScopedSpan span(obs::kStageCorrective);
  const auto base_items = [&table](size_t row) {
    return ItemSpan(table.row(row).items);
  };
  using Selector = CorrectiveSelector<decltype(base_items)>;
  // Every frequent superset K = I ∪ {α} defines |K| candidate pairs
  // (drop each item in turn); enumerating supersets guarantees both
  // sides of the comparison are in the table. The base row I comes
  // straight off the lattice links.
  const auto scan = [&table](size_t begin, size_t end, Selector* selector) {
    for (size_t i = begin; i < end; ++i) {
      const PatternRow& row = table.row(i);
      const Itemset& k = row.items;
      const std::span<const uint32_t> links = table.SubsetLinks(i);
      for (size_t j = 0; j < k.size(); ++j) {
        const uint32_t link = links[j];
        // kNoLink: subset dropped by a guard truncation — skip the pair.
        if (link == PatternTable::kNoLink) continue;
        const PatternRow& base_row = table.row(link);
        if (base_row.items.empty()) continue;  // Δ(∅) = 0: nothing to correct
        selector->Offer(i, link, k[j], base_row.divergence, row.divergence);
      }
    }
  };
  // The work is one Offer per link, so each chunk takes an equal share of
  // the flat link array: the rows whose links start inside it.
  const std::span<const uint64_t> offsets = table.link_offsets();
  const size_t n = table.size();
  const uint64_t num_links = offsets.back();
  const auto first_row_at = [&](uint64_t link) {
    if (link == num_links) return n;
    return static_cast<size_t>(
        std::lower_bound(offsets.begin(), offsets.begin() + n, link) -
        offsets.begin());
  };
  std::vector<Selector> selectors(
      std::max<size_t>(1, ParallelChunkCount(options.num_threads, num_links)),
      Selector(options, base_items));
  ParallelForChunks(options.num_threads, num_links,
                    [&](size_t chunk, size_t begin, size_t end) {
                      scan(first_row_at(begin), first_row_at(end),
                           &selectors[chunk]);
                    });
  for (size_t c = 1; c < selectors.size(); ++c) {
    selectors[0].Merge(std::move(selectors[c]));
  }
  const std::vector<CorrectiveCandidate> kept = selectors[0].Take();
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
