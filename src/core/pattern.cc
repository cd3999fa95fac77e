#include "core/pattern.h"

#include <algorithm>
#include <atomic>
#include <numeric>

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

  // Post-index pass over the now-frozen row set: the canonical order,
  // then per-row stats (Beta posterior + Welch t) and the
  // immediate-subset lattice links. Every stat and link is a pure
  // function of the row set, so results are identical across thread
  // counts.
  obs::StageTimer timer(options.stages, obs::kStagePostIndex,
                        obs::StageTimer::Nesting::kNested);
  obs::ScopedSpan span(obs::kStagePostIndex);
  const size_t n = table.rows_.size();
  DIVEXP_ASSIGN_OR_RETURN(table.canonical_,
                          table.BuildOrder(options.num_threads));

  table.link_offsets_.resize(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    table.link_offsets_[i + 1] =
        table.link_offsets_[i] + table.rows_[i].items.size();
  }
  table.subset_links_.assign(table.link_offsets_[n], kNoLink);
  const double denom =
      num_rows == 0 ? 1.0 : static_cast<double>(num_rows);
  const uint64_t scratch_bytes =
      table.BuildStatsAndLinks(denom, options.num_threads, table.canonical_);
  timer.AddItems(n);
  timer.SetPeakBytes(
      (table.subset_links_.size() + table.order_.size()) *
          sizeof(uint32_t) +
      scratch_bytes);
  return table;
}

Result<bool> PatternTable::BuildOrder(size_t num_threads) {
  const size_t n = rows_.size();
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), uint32_t{0});
  // Every explorer path sorts before Create, so one strictly-increasing
  // check usually proves the identity (and no duplicates).
  std::atomic<bool> sorted{true};
  ParallelForChunks(num_threads, n == 0 ? 0 : n - 1,
                    [this, &sorted](size_t, size_t begin, size_t end) {
                      for (size_t i = begin; i < end; ++i) {
                        if (CanonicalCompare(ItemSpan(rows_[i].items),
                                             rows_[i + 1].items) >= 0) {
                          sorted.store(false, std::memory_order_relaxed);
                          return;
                        }
                      }
                    });
  if (sorted.load()) return true;
  std::sort(order_.begin(), order_.end(), [this](uint32_t a, uint32_t b) {
    return CanonicalCompare(ItemSpan(rows_[a].items), rows_[b].items) < 0;
  });
  for (size_t p = 1; p < n; ++p) {
    if (CanonicalCompare(ItemSpan(rows_[order_[p - 1]].items),
                         rows_[order_[p]].items) == 0) {
      return Status::InvalidArgument("duplicate itemset in mined patterns");
    }
  }
  return false;
}

// The link walk works in canonical positions p (row order_[p]); level k,
// the k-itemsets, is the position range [level[k], level[k + 1]). For a
// k-itemset K = (a_0 … a_{k−1}) with prefix P = K \ {a_{k−1}}:
//  - link k−1 is P itself, found by a merge pointer over level k − 1
//    (prefixes are nondecreasing along a level);
//  - link j < k−1 is K \ {a_j} = Q ∪ {a_{k−1}} with Q = P \ {a_j}, P's
//    own link j. Every (k−1)-row with prefix Q lies in Q's contiguous
//    child range, sorted by last item, so one lower_bound over the
//    last-item column finds it.
// A binary search over level k − 1 covers the rows whose P or Q is
// absent, which only non-downward-closed or guard-truncated tables have.
// Links hold positions during the walk and row ids after it.
uint64_t PatternTable::BuildStatsAndLinks(double denom, size_t num_threads,
                                          bool identity) {
  const size_t n = rows_.size();
  const auto items_at = [this](size_t p) {
    return ItemSpan(rows_[order_[p]].items);
  };
  const auto links_at = [this](size_t p) {
    return subset_links_.data() + link_offsets_[order_[p]];
  };
  std::vector<size_t> level = {0};
  const size_t max_len = n == 0 ? 0 : items_at(n - 1).size();
  for (size_t k = 0; k <= max_len; ++k) {
    level.push_back(static_cast<size_t>(
        std::partition_point(order_.begin() + level.back(), order_.end(),
                             [this, k](uint32_t id) {
                               return rows_[id].items.size() <= k;
                             }) -
        order_.begin()));
  }
  std::vector<uint32_t> last(n);  // last item per position
  // [begin, end) of each level-(k−2) row's children in level k − 1.
  std::vector<uint32_t> children;
  size_t peak_children = 0;

  constexpr size_t kBlock = 2048;
  for (size_t k = 0; k <= max_len; ++k) {
    const size_t begin = level[k];
    const size_t end = level[k + 1];
    const size_t sub_begin = k == 0 ? 0 : level[k - 1];
    const size_t blocks = (end - begin + kBlock - 1) / kBlock;
    ParallelFor(num_threads, blocks, [&](size_t b) {
      const size_t lo = begin + b * kBlock;
      const size_t hi = std::min(end, lo + kBlock);
      size_t cursor =
          k == 0 ? 0
                 : CanonicalLowerBound(sub_begin, begin, items_at,
                                       items_at(lo).first(k - 1));
      for (size_t p = lo; p < hi; ++p) {
        PatternRow& row = rows_[order_[p]];
        row.support = static_cast<double>(row.counts.total()) / denom;
        row.rate = row.counts.PositiveRate();
        row.divergence = row.rate - global_rate_;
        const BetaPosterior post =
            BetaPosteriorFromCounts(row.counts.t, row.counts.f);
        row.t = WelchTFromPosteriors(post.mean, post.variance,
                                     global_mean_, global_variance_);
        if (k == 0) continue;
        const ItemSpan items(row.items);
        const uint32_t tail = items[k - 1];
        last[p] = tail;
        uint32_t* links = links_at(p);
        const ItemSpan prefix = items.first(k - 1);
        int cmp = -1;
        while (cursor < begin &&
               (cmp = CanonicalCompare(items_at(cursor), prefix)) < 0) {
          ++cursor;
        }
        const uint32_t parent =
            cursor < begin && cmp == 0 ? static_cast<uint32_t>(cursor)
                                       : kNoLink;
        links[k - 1] = parent;
        for (size_t j = 0; j + 1 < k; ++j) {
          const uint32_t q =
              parent == kNoLink ? kNoLink : links_at(parent)[j];
          if (q != kNoLink) {
            const uint32_t* range = &children[2 * (q - level[k - 2])];
            const uint32_t* first = last.data() + range[0];
            const uint32_t* stop = last.data() + range[1];
            const uint32_t* hit = std::lower_bound(first, stop, tail);
            links[j] = hit != stop && *hit == tail
                           ? static_cast<uint32_t>(hit - last.data())
                           : kNoLink;
          } else {
            links[j] = static_cast<uint32_t>(
                CanonicalFind(sub_begin, begin, items_at,
                              ItemsetSkipView{items, j})
                    .value_or(kNoLink));
          }
        }
      }
    });
    if (k == 0) continue;
    // Children of level k − 1's rows: the level-k rows whose prefix link
    // points at them, contiguous because rows sharing a prefix are.
    children.assign(2 * (begin - sub_begin), 0);
    peak_children = std::max(peak_children, children.size());
    for (size_t p = begin; p < end; ++p) {
      const uint32_t parent = links_at(p)[k - 1];
      if (parent == kNoLink) continue;
      uint32_t* range = &children[2 * (parent - sub_begin)];
      if (range[1] == 0) range[0] = static_cast<uint32_t>(p);
      range[1] = static_cast<uint32_t>(p + 1);
    }
  }
  if (!identity) {
    ParallelForChunks(num_threads, subset_links_.size(),
                      [this](size_t, size_t begin, size_t end) {
                        for (size_t i = begin; i < end; ++i) {
                          uint32_t& link = subset_links_[i];
                          if (link != kNoLink) link = order_[link];
                        }
                      });
  }
  return (last.size() + peak_children) * sizeof(uint32_t);
}

template <typename Key>
std::optional<size_t> PatternTable::FindKey(const Key& key) const {
  const auto pos = CanonicalFind(
      0, order_.size(),
      [this](size_t p) { return ItemSpan(rows_[order_[p]].items); }, key);
  if (!pos.has_value()) return std::nullopt;
  return order_[*pos];
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
