#include "core/pattern.h"

#include <algorithm>
#include <atomic>

#include "obs/trace.h"
#include "stats/beta.h"
#include "stats/welch.h"
#include "util/parallel.h"

namespace divexp {
namespace {

// Actual heap + inline footprint of one table row: the row struct, the
// itemset's heap buffer, and its slot in the flat subset-link array.
uint64_t RowFootprintBytes(const PatternRow& row) {
  return sizeof(PatternRow) +
         row.items.capacity() * sizeof(uint32_t) +  // items heap buffer
         row.items.size() * sizeof(uint32_t);       // subset-link slots
}

}  // namespace

Result<PatternTable> PatternTable::Create(std::vector<MinedPattern> mined,
                                          ItemCatalog catalog,
                                          size_t num_rows,
                                          RunGuard* guard,
                                          const PatternTableOptions& options) {
  // Only enforce limits that are still live: when mining already
  // breached, the post-pass must still process the partial pattern set
  // (bounded by what mining emitted) so truncate mode has a table.
  const bool enforce = guard != nullptr && !guard->hard_stopped();
  PatternTable table;
  table.catalog_ = std::move(catalog);
  table.num_dataset_rows_ = num_rows;

  // Locate the empty itemset to fix the global rate.
  const MinedPattern* root = nullptr;
  for (const MinedPattern& p : mined) {
    if (p.items.empty()) {
      root = &p;
      break;
    }
  }
  if (root == nullptr) {
    return Status::InvalidArgument(
        "mined patterns must include the empty itemset");
  }
  if (mined.size() >= static_cast<size_t>(kNoLink)) {
    return Status::InvalidArgument("pattern table exceeds link capacity");
  }
  table.global_rate_ = root->counts.PositiveRate();
  const BetaPosterior global_post =
      BetaPosteriorFromCounts(root->counts.t, root->counts.f);
  table.global_mean_ = global_post.mean;
  table.global_variance_ = global_post.variance;

  table.rows_.reserve(mined.size());
  for (MinedPattern& p : mined) {
    PatternRow row;
    row.counts = p.counts;
    row.items = std::move(p.items);
    // The first row (the empty itemset) is always kept so a truncated
    // table still carries the global rate.
    if (enforce && !table.rows_.empty() &&
        (!guard->Tick() || !guard->AddMemory(RowFootprintBytes(row)))) {
      break;  // partial table; the guard has latched the breach
    }
    table.rows_.push_back(std::move(row));
  }

  // Post-index pass over the now-frozen row set: the itemset index, then
  // per-row stats (Beta posterior + Welch t) and the immediate-subset
  // lattice links. All are per-row work, so they parallelize with
  // results identical across thread counts.
  obs::StageTimer timer(options.stages, obs::kStagePostIndex);
  obs::ScopedSpan span(obs::kStagePostIndex);
  const size_t n = table.rows_.size();
  const double denom =
      num_rows == 0 ? 1.0 : static_cast<double>(num_rows);

  // Rows claim index slots by CAS, so the build runs in parallel. Two
  // equal itemsets hash to the same probe sequence and slots only go
  // from empty to taken, so whichever comes second meets the first.
  size_t slots = 2;
  int slot_bits = 1;
  while (slots < 2 * n) {
    slots <<= 1;
    ++slot_bits;
  }
  table.index_.assign(slots, kEmptySlot);
  table.index_shift_ = 64 - slot_bits;
  std::atomic<bool> duplicate{false};
  ParallelFor(options.num_threads, n, [&table, &duplicate](size_t i) {
    const ItemSpan items(table.rows_[i].items);
    const size_t mask = table.index_.size() - 1;
    for (size_t s = table.HomeSlot(ItemsetHash{}(items));;
         s = (s + 1) & mask) {
      std::atomic_ref<uint32_t> slot(table.index_[s]);
      uint32_t id = slot.load();
      if (id == kEmptySlot &&
          slot.compare_exchange_strong(id, static_cast<uint32_t>(i))) {
        return;
      }
      // `id` is the slot's occupant (a failed CAS reloaded it).
      if (ItemsetEq{}(table.rows_[id].items, items)) {
        duplicate.store(true);
        return;
      }
    }
  });
  if (duplicate.load()) {
    return Status::InvalidArgument("duplicate itemset in mined patterns");
  }

  table.link_offsets_.resize(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    table.link_offsets_[i + 1] =
        table.link_offsets_[i] + table.rows_[i].items.size();
  }
  table.subset_links_.assign(table.link_offsets_[n], kNoLink);

  ParallelFor(options.num_threads, n, [&table, denom](size_t i) {
    PatternRow& row = table.rows_[i];
    row.support = static_cast<double>(row.counts.total()) / denom;
    row.rate = row.counts.PositiveRate();
    row.divergence = row.rate - table.global_rate_;
    const BetaPosterior post =
        BetaPosteriorFromCounts(row.counts.t, row.counts.f);
    row.t = WelchTFromPosteriors(post.mean, post.variance,
                                 table.global_mean_,
                                 table.global_variance_);
    const ItemSpan items(row.items);
    uint32_t* links = table.subset_links_.data() + table.link_offsets_[i];
    for (size_t j = 0; j < items.size(); ++j) {
      // kNoLink stays only when a guard truncation dropped the subset.
      const auto sub = table.Find(ItemsetSkipView{items, j});
      if (sub.has_value()) links[j] = static_cast<uint32_t>(*sub);
    }
  });
  timer.AddItems(n);
  timer.SetPeakBytes((table.subset_links_.size() + table.index_.size()) *
                     sizeof(uint32_t));
  return table;
}

template <typename Key>
std::optional<size_t> PatternTable::FindKey(const Key& key) const {
  if (index_.empty()) return std::nullopt;
  const size_t mask = index_.size() - 1;
  for (size_t s = HomeSlot(ItemsetHash{}(key));; s = (s + 1) & mask) {
    const uint32_t id = index_[s];
    if (id == kEmptySlot) return std::nullopt;
    if (ItemsetEq{}(rows_[id].items, key)) return id;
  }
}

std::optional<size_t> PatternTable::Find(const Itemset& items) const {
  return FindKey(items);
}

std::optional<size_t> PatternTable::Find(ItemSpan items) const {
  return FindKey(items);
}

std::optional<size_t> PatternTable::Find(const ItemsetSkipView& view) const {
  return FindKey(view);
}

Result<double> PatternTable::Divergence(const Itemset& items) const {
  auto idx = Find(items);
  if (!idx.has_value()) {
    return Status::NotFound("itemset not frequent: " +
                            ItemsetDebugString(items));
  }
  return rows_[*idx].divergence;
}

bool PatternTable::RankLess(size_t a, size_t b,
                            const std::vector<double>& keys,
                            bool descending) const {
  if (keys[a] != keys[b]) {
    return descending ? keys[a] > keys[b] : keys[a] < keys[b];
  }
  // Deterministic tie-break: higher support, then shorter, then items.
  if (rows_[a].support != rows_[b].support) {
    return rows_[a].support > rows_[b].support;
  }
  if (rows_[a].items.size() != rows_[b].items.size()) {
    return rows_[a].items.size() < rows_[b].items.size();
  }
  return rows_[a].items < rows_[b].items;
}

std::vector<size_t> PatternTable::Rank(RankKey key,
                                       bool descending) const {
  // One key per row, computed once: the comparator runs O(n log n)
  // times and must not re-derive its operands per comparison.
  std::vector<double> keys(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    switch (key) {
      case RankKey::kDivergence:
        keys[i] = rows_[i].divergence;
        break;
      case RankKey::kSignificance:
        keys[i] = rows_[i].t;
        break;
      case RankKey::kSupport:
        keys[i] = rows_[i].support;
        break;
    }
  }
  std::vector<size_t> order;
  order.reserve(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (!rows_[i].items.empty()) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return RankLess(a, b, keys, descending);
  });
  return order;
}

std::vector<size_t> PatternTable::RankByDivergence(bool descending) const {
  return Rank(RankKey::kDivergence, descending);
}

std::vector<size_t> PatternTable::TopK(size_t k, bool descending,
                                       double min_support, size_t min_len,
                                       size_t max_len) const {
  std::vector<double> keys(rows_.size());
  std::vector<size_t> candidates;
  for (size_t i = 0; i < rows_.size(); ++i) {
    keys[i] = rows_[i].divergence;
    const PatternRow& r = rows_[i];
    if (r.items.empty()) continue;
    if (r.support < min_support) continue;
    if (r.items.size() < min_len) continue;
    if (max_len != 0 && r.items.size() > max_len) continue;
    candidates.push_back(i);
  }
  const auto cmp = [&](size_t a, size_t b) {
    return RankLess(a, b, keys, descending);
  };
  // The comparator is a strict total order (the tie-break ends on the
  // unique itemset), so a partial selection returns exactly the prefix
  // a full stable sort would.
  if (k < candidates.size()) {
    std::partial_sort(candidates.begin(), candidates.begin() + k,
                      candidates.end(), cmp);
    candidates.resize(k);
  } else {
    std::sort(candidates.begin(), candidates.end(), cmp);
  }
  return candidates;
}

std::string PatternTable::ItemsetName(const Itemset& items) const {
  if (items.empty()) return "(all)";
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i) out += ", ";
    out += catalog_.ItemName(items[i]);
  }
  return out;
}

Result<Itemset> PatternTable::ParseItemset(
    const std::vector<std::pair<std::string, std::string>>& items) const {
  std::vector<uint32_t> ids;
  ids.reserve(items.size());
  for (const auto& [attr, value] : items) {
    DIVEXP_ASSIGN_OR_RETURN(uint32_t id, catalog_.FindItem(attr, value));
    ids.push_back(id);
  }
  return MakeItemset(std::move(ids));
}

}  // namespace divexp
