#include "serve/query.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>

#include "stats/special.h"

namespace divexp {
namespace serve {
namespace {

/// The PatternTable::RankLess tie-break chain, over the columnar view:
/// key, then higher support, then shorter itemset, then lexicographic
/// items. A strict total order (itemsets are unique), so partial and
/// stable sorts yield the same permutation.
bool RankLess(const TableView& view, size_t a, size_t b,
              const std::vector<double>& keys, bool descending) {
  if (keys[a] != keys[b]) {
    return descending ? keys[a] > keys[b] : keys[a] < keys[b];
  }
  if (view.support(a) != view.support(b)) {
    return view.support(a) > view.support(b);
  }
  const ItemSpan ia = view.row_items(a);
  const ItemSpan ib = view.row_items(b);
  if (ia.size() != ib.size()) return ia.size() < ib.size();
  return std::lexicographical_compare(ia.begin(), ia.end(), ib.begin(),
                                      ib.end());
}

Status GuardStatus(RunGuard* guard) {
  const Status status = guard->ToStatus();
  if (!status.ok()) return status;
  // Tick() said stop but no breach latched yet (racy deadline read);
  // report the generic form rather than OK.
  return Status::DeadlineExceeded("query stopped by its run guard");
}

/// A header-tier open defers payload CRCs, so offset/link corruption can
/// first surface mid-query; it must become a clean error, never UB.
Status CorruptStatus(const std::string& what) {
  return Status::InvalidArgument(
      "artifact payload corruption detected while serving (" + what +
      "); reopen with full validation for a complete diagnosis");
}

}  // namespace

Result<std::vector<size_t>> QueryEngine::TopK(const TopKQuery& query,
                                              RunGuard* guard) const {
  const TableView& view = *view_;
  std::vector<double> keys(view.size());
  std::vector<size_t> candidates;
  for (size_t i = 0; i < view.size(); ++i) {
    if (guard != nullptr && !guard->Tick()) return GuardStatus(guard);
    if (!view.row_ok(i)) {
      return CorruptStatus("row " + std::to_string(i) +
                           " has out-of-range offsets");
    }
    switch (query.key) {
      case PatternTable::RankKey::kDivergence:
        keys[i] = view.divergence(i);
        break;
      case PatternTable::RankKey::kSignificance:
        keys[i] = view.t(i);
        break;
      case PatternTable::RankKey::kSupport:
        keys[i] = view.support(i);
        break;
    }
    const size_t len = view.row_items(i).size();
    if (len == 0) continue;
    if (view.support(i) < query.min_support) continue;
    if (len < query.min_len) continue;
    if (query.max_len != 0 && len > query.max_len) continue;
    candidates.push_back(i);
  }
  const auto cmp = [&](size_t a, size_t b) {
    return RankLess(view, a, b, keys, query.descending);
  };
  if (query.k < candidates.size()) {
    std::partial_sort(candidates.begin(), candidates.begin() + query.k,
                      candidates.end(), cmp);
    candidates.resize(query.k);
  } else {
    std::sort(candidates.begin(), candidates.end(), cmp);
  }
  return candidates;
}

Result<Lattice> QueryEngine::Browse(const Itemset& target,
                                    RunGuard* guard) const {
  const TableView& view = *view_;
  if (!view.FindRow(ItemSpan(target)).has_value()) {
    return Status::NotFound("target itemset not frequent: " +
                            ItemsetDebugString(target));
  }
  Lattice lattice;
  lattice.target = target;

  std::vector<Itemset> subsets;
  ForEachSubset(target, [&](const Itemset& s) { subsets.push_back(s); });
  std::sort(subsets.begin(), subsets.end(),
            [](const Itemset& a, const Itemset& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              return a < b;
            });

  std::unordered_map<Itemset, size_t, ItemsetHash, ItemsetEq> node_index;
  for (const Itemset& s : subsets) {
    if (guard != nullptr && !guard->Tick()) return GuardStatus(guard);
    LatticeNode node;
    node.items = s;
    node.level = s.size();
    const auto idx = view.FindRow(ItemSpan(s));
    if (idx.has_value()) {
      node.divergence = view.divergence(*idx);
      node.t = view.t(*idx);
    } else {
      node.frequent = false;  // unreachable for frequent targets
    }
    node_index.emplace(s, lattice.nodes.size());
    lattice.nodes.push_back(std::move(node));
  }

  for (size_t i = 0; i < lattice.nodes.size(); ++i) {
    LatticeNode& node = lattice.nodes[i];
    if (node.items.empty()) continue;
    if (guard != nullptr && !guard->Tick()) return GuardStatus(guard);
    for (size_t j = 0; j < node.items.size(); ++j) {
      const auto it =
          node_index.find(ItemsetSkipView{ItemSpan(node.items), j});
      DIVEXP_CHECK(it != node_index.end());
      lattice.edges.push_back(LatticeEdge{it->second, i});
      const LatticeNode& parent_node = lattice.nodes[it->second];
      if (std::fabs(node.divergence) < std::fabs(parent_node.divergence)) {
        node.corrective = true;
      }
    }
  }
  return lattice;
}

Result<std::vector<ItemContribution>> QueryEngine::Shapley(
    const Itemset& items, RunGuard* guard) const {
  const TableView& view = *view_;
  // Same cap, same message as core ShapleyContributions: the 2^n
  // enumeration is intractable long before the 1ULL << n submask
  // arithmetic would overflow at 64 items.
  if (items.size() > kMaxShapleyItems) {
    return Status::InvalidArgument(
        "shapley accepts at most " + std::to_string(kMaxShapleyItems) +
        " items, got " + std::to_string(items.size()) +
        ": the exact computation enumerates 2^n subsets");
  }
  const auto row_idx = view.FindRow(ItemSpan(items));
  if (!row_idx.has_value()) {
    return Status::NotFound("itemset not in pattern table: " +
                            ItemsetDebugString(items));
  }
  if (!view.row_ok(*row_idx)) {
    return CorruptStatus("row " + std::to_string(*row_idx) +
                         " has out-of-range offsets");
  }
  const size_t n = items.size();
  const double n_fact = Factorial(n);
  const std::span<const uint32_t> links = view.row_links(*row_idx);
  Itemset scratch;
  scratch.reserve(n);

  const auto find_subset =
      [&](uint64_t mask, size_t extra) -> std::optional<size_t> {
    scratch.clear();
    for (size_t p = 0; p < n; ++p) {
      if ((mask & (1ULL << p)) || p == extra) scratch.push_back(items[p]);
    }
    return view.FindRow(ItemSpan(scratch));
  };

  std::vector<ItemContribution> out;
  out.reserve(n);
  for (size_t a = 0; a < n; ++a) {
    double value = 0.0;
    // n <= kMaxShapleyItems, so the shifts are in range.
    const uint64_t full = (1ULL << n) - 1;
    const uint64_t rest = full & ~(1ULL << a);
    uint64_t mask = 0;
    while (true) {
      if (guard != nullptr && !guard->Tick()) return GuardStatus(guard);
      double with_div;
      double without_div;
      size_t j_size;
      if (mask == rest) {
        if (links[a] == PatternTable::kNoLink) {
          return Status::NotFound("subset dropped by truncation under " +
                                  ItemsetDebugString(items));
        }
        if (links[a] >= view.size()) {
          return CorruptStatus("subset link " + std::to_string(links[a]) +
                               " points past the last row");
        }
        with_div = view.divergence(*row_idx);
        without_div = view.divergence(links[a]);
        j_size = n - 1;
      } else {
        const auto with = find_subset(mask, a);
        const auto without = find_subset(mask, static_cast<size_t>(-1));
        if (!with.has_value() || !without.has_value()) {
          return Status::NotFound("subset dropped by truncation under " +
                                  ItemsetDebugString(items));
        }
        with_div = view.divergence(*with);
        without_div = view.divergence(*without);
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

Result<std::vector<CorrectiveItem>> QueryEngine::Corrective(
    const CorrectiveOptions& options, RunGuard* guard) const {
  const TableView& view = *view_;
  CorrectiveSelector selector(
      options, [&view](size_t row) { return view.row_items(row); });
  for (size_t i = 0; i < view.size(); ++i) {
    if (guard != nullptr && !guard->Tick()) return GuardStatus(guard);
    if (!view.row_ok(i)) {
      return CorruptStatus("row " + std::to_string(i) +
                           " has out-of-range offsets");
    }
    const ItemSpan k = view.row_items(i);
    const std::span<const uint32_t> links = view.row_links(i);
    for (size_t j = 0; j < k.size(); ++j) {
      const uint32_t link = links[j];
      if (link == PatternTable::kNoLink) continue;
      if (link >= view.size() || !view.row_ok(link)) {
        return CorruptStatus("subset link " + std::to_string(link) +
                             " under row " + std::to_string(i) +
                             " is out of range");
      }
      if (view.row_items(link).empty()) continue;  // Δ(∅) = 0
      selector.Offer(i, link, k[j], view.divergence(link),
                     view.divergence(i));
    }
  }
  const std::vector<CorrectiveCandidate> kept = selector.Take();
  std::vector<CorrectiveItem> out;
  out.reserve(kept.size());
  for (const CorrectiveCandidate& c : kept) {
    const ItemSpan base_items = view.row_items(c.base);
    out.push_back(CorrectiveItem{Itemset(base_items.begin(), base_items.end()),
                                 c.item, view.divergence(c.base),
                                 view.divergence(c.superset), c.factor,
                                 view.t(c.superset)});
  }
  return out;
}

std::string QueryEngine::ItemName(uint32_t item) const {
  // Item ids read off a header-tier artifact are unvalidated; an id the
  // catalog does not know must render as a placeholder, not trip the
  // catalog's bounds CHECK and take the daemon down.
  if (item >= view_->catalog->num_items()) {
    return "<item " + std::to_string(item) + " outside catalog>";
  }
  return view_->catalog->ItemName(item);
}

std::string QueryEngine::ItemsetName(ItemSpan items) const {
  if (items.empty()) return "(all)";
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i) out += ", ";
    out += ItemName(items[i]);
  }
  return out;
}

Result<Itemset> QueryEngine::ParseItemset(
    const std::vector<std::pair<std::string, std::string>>& items) const {
  std::vector<uint32_t> ids;
  ids.reserve(items.size());
  for (const auto& [attr, value] : items) {
    DIVEXP_ASSIGN_OR_RETURN(uint32_t id,
                            view_->catalog->FindItem(attr, value));
    ids.push_back(id);
  }
  return MakeItemset(std::move(ids));
}

}  // namespace serve
}  // namespace divexp
