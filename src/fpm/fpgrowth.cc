#include "fpm/fpgrowth.h"

#include <algorithm>
#include <exception>
#include <iterator>
#include <string>

#include "fpm/kernels/arena.h"
#include "obs/metrics.h"
#include "obs/stage.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/parallel.h"

namespace divexp {
namespace {

// Field order is the access order of the two hot walks: Insert chases
// first_child/next_sibling and compares item; PrefixPath chases parent.
// Keeping those in the first 32 bytes means both walks touch only the
// first cache line half of each node; next_header and the tallies (read
// once per header scan) trail.
struct FpNode {
  FpNode* first_child = nullptr;
  FpNode* next_sibling = nullptr;
  FpNode* parent = nullptr;
  uint32_t item = 0;
  FpNode* next_header = nullptr;  // chain of same-item nodes
  OutcomeCounts counts;
};

struct HeaderEntry {
  uint32_t item = 0;
  OutcomeCounts totals;
  FpNode* head = nullptr;
};

// An FP-tree plus its header table, owning its nodes. Nodes live in a
// bump-pointer NodeArena (contiguous in insertion order, freed
// wholesale with the tree).
class FpTree {
 public:
  FpTree() { root_ = arena_.New<FpNode>(); }

  /// Prepares the header for the given (already support-filtered) item
  /// totals. Items are ranked by descending support count, ties broken
  /// by ascending id, which fixes the insertion order.
  void SetItems(std::vector<std::pair<uint32_t, OutcomeCounts>> items) {
    std::sort(items.begin(), items.end(),
              [](const auto& a, const auto& b) {
                if (a.second.total() != b.second.total()) {
                  return a.second.total() > b.second.total();
                }
                return a.first < b.first;
              });
    headers_.clear();
    headers_.reserve(items.size());
    uint32_t max_id = 0;
    for (const auto& item : items) max_id = std::max(max_id, item.first);
    rank_.assign(items.empty() ? 0 : size_t{max_id} + 1, kNoRank);
    for (size_t i = 0; i < items.size(); ++i) {
      HeaderEntry h;
      h.item = items[i].first;
      h.totals = items[i].second;
      headers_.push_back(h);
      rank_[items[i].first] = static_cast<uint32_t>(i);
    }
  }

  /// Inserts a transaction; `items` may be in any order and may contain
  /// items absent from the header (they are dropped). Each node along
  /// the path accumulates `delta`. `ranks` is caller-owned scratch,
  /// reused across calls so that an insert allocates only new nodes.
  void Insert(ItemSpan items, const OutcomeCounts& delta,
              std::vector<uint32_t>* ranks) {
    // Keep only ranked items, in rank order (descending support).
    ranks->clear();
    for (uint32_t id : items) {
      if (id < rank_.size() && rank_[id] != kNoRank) {
        ranks->push_back(rank_[id]);
      }
    }
    std::sort(ranks->begin(), ranks->end());
    FpNode* node = root_;
    for (uint32_t rank : *ranks) {
      const uint32_t id = headers_[rank].item;
      FpNode* child = node->first_child;
      while (child != nullptr && child->item != id) {
        child = child->next_sibling;
      }
      if (child == nullptr) {
        child = arena_.New<FpNode>();
        child->item = id;
        child->parent = node;
        child->next_sibling = node->first_child;
        node->first_child = child;
        child->next_header = headers_[rank].head;
        headers_[rank].head = child;
      }
      child->counts += delta;
      node = child;
    }
  }

  const std::vector<HeaderEntry>& headers() const { return headers_; }

  /// Heap footprint for the guard's memory accounting: the arena's
  /// real reserved block bytes (what the allocator took from the heap),
  /// not just the node payload sum, plus the header and rank arrays.
  uint64_t MemoryBytes() const {
    return arena_.allocated_bytes() + headers_.size() * sizeof(HeaderEntry) +
           rank_.size() * sizeof(uint32_t);
  }

  /// Bytes reserved by the node arena; feeds the fpm.kernel.arena.bytes
  /// counter.
  uint64_t ArenaBytes() const { return arena_.allocated_bytes(); }

  /// Header position of `item`, which must be in the header.
  uint32_t Rank(uint32_t item) const { return rank_[item]; }

  /// Appends the items from `node`'s parent up to (excluding) the root.
  void AppendPrefixPath(const FpNode* node, std::vector<uint32_t>* out) const {
    for (const FpNode* p = node->parent; p != nullptr && p != root_;
         p = p->parent) {
      out->push_back(p->item);
    }
  }

 private:
  fpm::NodeArena arena_;
  FpNode* root_ = nullptr;
  std::vector<HeaderEntry> headers_;
  /// Header position of each item id, kNoRank for items not in the
  /// header; sized to the largest header item id + 1.
  std::vector<uint32_t> rank_;
  static constexpr uint32_t kNoRank = UINT32_MAX;
};

void MineTree(const FpTree& tree, const Itemset& suffix,
              uint64_t min_count, size_t max_length, MineControl* ctrl,
              std::vector<MinedPattern>* out);

// Mines one header item of `tree`: emits the pattern suffix+item, then
// projects and recurses into its conditional tree.
void MineHeaderItem(const FpTree& tree, size_t hi, const Itemset& suffix,
                    uint64_t min_count, size_t max_length,
                    MineControl* ctrl, std::vector<MinedPattern>* out) {
  DIVEXP_FAILPOINT("fpm.fpgrowth.grow");
  const HeaderEntry& h = tree.headers()[hi];
  if (!ctrl->Emit(suffix.size() + 1)) return;
  Itemset pattern = suffix;
  pattern.push_back(h.item);
  std::sort(pattern.begin(), pattern.end());
  out->push_back(MinedPattern{pattern, h.totals});
  if (max_length != 0 && suffix.size() + 1 >= max_length) return;

  // Conditional pattern base for this item, flat: path p is
  // path_items[path_ends[p - 1], path_ends[p]) with tallies
  // path_counts[p]. Every item on a path sits above h in the tree, so
  // it ranks before hi and cond_totals can be indexed by rank.
  std::vector<uint32_t> path_items;
  std::vector<size_t> path_ends;
  std::vector<OutcomeCounts> path_counts;
  std::vector<OutcomeCounts> cond_totals(hi);
  for (const FpNode* node = h.head; node != nullptr;
       node = node->next_header) {
    const size_t begin = path_items.size();
    tree.AppendPrefixPath(node, &path_items);
    if (path_items.size() == begin) continue;
    for (size_t k = begin; k < path_items.size(); ++k) {
      cond_totals[tree.Rank(path_items[k])] += node->counts;
    }
    path_ends.push_back(path_items.size());
    path_counts.push_back(node->counts);
  }
  std::vector<std::pair<uint32_t, OutcomeCounts>> freq_items;
  for (size_t r = 0; r < hi; ++r) {
    if (cond_totals[r].total() >= min_count) {
      freq_items.emplace_back(tree.headers()[r].item, cond_totals[r]);
    }
  }
  if (freq_items.empty()) return;

  FpTree cond;
  cond.SetItems(std::move(freq_items));
  std::vector<uint32_t> ranks;
  size_t path_begin = 0;
  for (size_t p = 0; p < path_ends.size(); ++p) {
    cond.Insert(ItemSpan(path_items).subspan(path_begin,
                                             path_ends[p] - path_begin),
                path_counts[p], &ranks);
    path_begin = path_ends[p];
  }
  RunGuard* guard = ctrl->guard();
  const uint64_t cond_bytes = cond.MemoryBytes();
  if (guard != nullptr && !guard->AddMemory(cond_bytes)) {
    guard->SubMemory(cond_bytes);
    return;
  }
  Itemset next_suffix = suffix;
  next_suffix.push_back(h.item);
  MineTree(cond, next_suffix, min_count, max_length, ctrl, out);
  if (guard != nullptr) guard->SubMemory(cond_bytes);
}

// Recursive FP-growth. `suffix` holds the items already fixed (in
// arbitrary order; patterns are sorted on emission).
void MineTree(const FpTree& tree, const Itemset& suffix, uint64_t min_count,
              size_t max_length, MineControl* ctrl,
              std::vector<MinedPattern>* out) {
  // Process header items least-frequent first (classic order).
  for (size_t hi = tree.headers().size(); hi-- > 0;) {
    if (ctrl->stopped()) return;
    MineHeaderItem(tree, hi, suffix, min_count, max_length, ctrl, out);
  }
}

}  // namespace

Result<std::vector<MinedPattern>> FpGrowthMiner::Mine(
    const TransactionDatabase& db, const MinerOptions& options) const {
  if (options.min_support <= 0.0 || options.min_support > 1.0) {
    return Status::InvalidArgument("min_support must be in (0, 1]");
  }
  const size_t n = db.num_rows();
  const uint64_t min_count = MinCount(options.min_support, n);
  RunGuard* guard = options.guard;

  std::vector<MinedPattern> out;
  out.push_back(MinedPattern{Itemset{}, db.totals()});
  if (n == 0) return out;

  // Stage accounting: build covers both data passes (tallies + tree
  // insertion), grow covers the enumeration. Truncated runs record
  // whatever the timers saw so far (the RAII destructors fire on every
  // return path).
  FpTree tree;
  obs::StageTimer build_timer(options.stages, obs::kStageMineBuild);
  obs::ScopedSpan build_span(obs::kStageMineBuild);
  const uint64_t build_checks0 =
      guard != nullptr ? guard->check_count() : 0;
  auto close_build = [&]() {
    build_timer.SetPeakBytes(tree.MemoryBytes());
    if (guard != nullptr) {
      build_timer.AddGuardChecks(guard->check_count() - build_checks0);
    }
    build_timer.Finish();
    build_span.End();
  };

  // Pass 1: global item tallies.
  std::vector<OutcomeCounts> item_totals(db.num_items());
  for (size_t r = 0; r < n; ++r) {
    OutcomeCounts delta;
    switch (db.outcome(r)) {
      case Outcome::kTrue:
        delta.t = 1;
        break;
      case Outcome::kFalse:
        delta.f = 1;
        break;
      case Outcome::kBottom:
        delta.bot = 1;
        break;
    }
    const uint32_t* row = db.row(r);
    for (size_t a = 0; a < db.num_attributes(); ++a) {
      item_totals[row[a]] += delta;
    }
  }
  build_timer.AddItems(n);
  std::vector<std::pair<uint32_t, OutcomeCounts>> freq_items;
  for (uint32_t id = 0; id < db.num_items(); ++id) {
    if (item_totals[id].total() >= min_count) {
      freq_items.emplace_back(id, item_totals[id]);
    }
  }
  if (freq_items.empty()) {
    close_build();
    return out;
  }

  // Pass 2: build the FP-tree with outcome deltas on every node.
  tree.SetItems(std::move(freq_items));
  std::vector<uint32_t> ranks;
  for (size_t r = 0; r < n; ++r) {
    if (guard != nullptr && !guard->Tick()) {
      close_build();
      return out;
    }
    OutcomeCounts delta;
    switch (db.outcome(r)) {
      case Outcome::kTrue:
        delta.t = 1;
        break;
      case Outcome::kFalse:
        delta.f = 1;
        break;
      case Outcome::kBottom:
        delta.bot = 1;
        break;
    }
    tree.Insert(ItemSpan(db.row(r), db.num_attributes()), delta, &ranks);
  }

  build_timer.AddItems(n);
  // Top-level tree only; conditional trees are too transient to meter.
  obs::MetricsRegistry::Default()
      .GetCounter("fpm.kernel.arena.bytes")
      ->Add(tree.ArenaBytes());
  const uint64_t tree_bytes = tree.MemoryBytes();
  if (guard != nullptr && !guard->AddMemory(tree_bytes)) {
    guard->SubMemory(tree_bytes);
    close_build();
    return out;
  }
  close_build();

  obs::StageTimer grow_timer(options.stages, obs::kStageMineGrow);
  obs::ScopedSpan grow_span(obs::kStageMineGrow);
  const uint64_t grow_checks0 =
      guard != nullptr ? guard->check_count() : 0;
  auto close_grow = [&]() {
    grow_timer.AddItems(out.size() - 1);  // non-empty patterns emitted
    if (guard != nullptr) {
      grow_timer.SetPeakBytes(guard->peak_memory_bytes());
      grow_timer.AddGuardChecks(guard->check_count() - grow_checks0);
    }
    grow_timer.Finish();
    grow_span.End();
  };

  MiningCheckpointSink* sink = options.checkpoint;
  if (options.num_threads <= 1 && sink == nullptr) {
    MineControl ctrl(guard);
    try {
      MineTree(tree, Itemset{}, min_count, options.max_length, &ctrl,
               &out);
    } catch (const std::exception& e) {
      if (guard != nullptr) guard->SubMemory(tree_bytes);
      return Status::Internal(std::string("fpgrowth worker failed: ") +
                              e.what());
    }
    if (guard != nullptr) guard->SubMemory(tree_bytes);
    close_grow();
    return out;
  }

  // Sharded mode (parallel, or any run with a checkpoint sink):
  // top-level conditional trees are independent; mine each header item
  // into its own buffer, then concatenate in the sequential order so
  // output is identical to the single-thread run. Each shard gets its
  // own MineControl (full pattern budget); the post-merge truncation
  // keeps the budget semantics deterministic. Units restored from a
  // checkpoint are spliced into their slots unmined; only units that
  // ran to completion are reported back.
  const size_t num_headers = tree.headers().size();
  if (sink != nullptr) sink->BeginRun(num_headers);
  std::vector<std::vector<MinedPattern>> partial(num_headers);
  try {
    ParallelFor(options.num_threads, num_headers, [&](size_t i) {
      if (sink != nullptr) {
        const std::vector<MinedPattern>* restored = sink->RestoredUnit(i);
        if (restored != nullptr) {
          partial[i] = *restored;
          return;
        }
      }
      // Sequential order iterates hi descending; slot i handles that
      // position.
      const size_t hi = num_headers - 1 - i;
      MineControl ctrl(guard);
      MineHeaderItem(tree, hi, Itemset{}, min_count, options.max_length,
                     &ctrl, &partial[i]);
      if (sink != nullptr && !ctrl.stopped()) {
        sink->UnitMined(i, partial[i]);
      }
    });
  } catch (const std::exception& e) {
    if (guard != nullptr) guard->SubMemory(tree_bytes);
    return Status::Internal(std::string("fpgrowth worker failed: ") +
                            e.what());
  }
  if (guard != nullptr) guard->SubMemory(tree_bytes);
  for (std::vector<MinedPattern>& chunk : partial) {
    out.insert(out.end(), std::make_move_iterator(chunk.begin()),
               std::make_move_iterator(chunk.end()));
  }
  EnforcePatternBudget(guard, &out);
  close_grow();
  return out;
}

}  // namespace divexp
