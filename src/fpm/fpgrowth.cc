#include "fpm/fpgrowth.h"

#include <algorithm>
#include <exception>
#include <iterator>
#include <string>
#include <unordered_map>

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
    rank_.clear();
    headers_.reserve(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      HeaderEntry h;
      h.item = items[i].first;
      h.totals = items[i].second;
      headers_.push_back(h);
      rank_.emplace(items[i].first, static_cast<uint32_t>(i));
    }
  }

  bool HasItem(uint32_t item) const { return rank_.count(item) > 0; }

  /// Inserts a transaction; `items` may be in any order and may contain
  /// items absent from the header (they are dropped). Each node along
  /// the path accumulates `delta`.
  void Insert(std::vector<uint32_t> items, const OutcomeCounts& delta) {
    // Keep only ranked items, sorted by rank (descending support).
    std::vector<std::pair<uint32_t, uint32_t>> ranked;  // (rank, item)
    ranked.reserve(items.size());
    for (uint32_t id : items) {
      auto it = rank_.find(id);
      if (it != rank_.end()) ranked.emplace_back(it->second, id);
    }
    std::sort(ranked.begin(), ranked.end());
    FpNode* node = root_;
    for (const auto& [rank, id] : ranked) {
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
  /// not just the node payload sum.
  uint64_t MemoryBytes() const {
    return arena_.allocated_bytes() +
           headers_.size() * (sizeof(HeaderEntry) + 3 * sizeof(uint64_t));
  }

  /// Bytes reserved by the node arena; feeds the fpm.kernel.arena.bytes
  /// counter.
  uint64_t ArenaBytes() const { return arena_.allocated_bytes(); }

  /// Path of items from `node`'s parent up to (excluding) the root.
  std::vector<uint32_t> PrefixPath(const FpNode* node) const {
    std::vector<uint32_t> path;
    for (const FpNode* p = node->parent; p != nullptr && p != root_;
         p = p->parent) {
      path.push_back(p->item);
    }
    return path;
  }

 private:
  fpm::NodeArena arena_;
  FpNode* root_ = nullptr;
  std::vector<HeaderEntry> headers_;
  std::unordered_map<uint32_t, uint32_t> rank_;
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

  // Conditional pattern base for this item.
  std::vector<std::pair<std::vector<uint32_t>, OutcomeCounts>> base;
  std::unordered_map<uint32_t, OutcomeCounts> cond_totals;
  for (const FpNode* node = h.head; node != nullptr;
       node = node->next_header) {
    std::vector<uint32_t> path = tree.PrefixPath(node);
    if (path.empty()) continue;
    for (uint32_t id : path) cond_totals[id] += node->counts;
    base.emplace_back(std::move(path), node->counts);
  }
  std::vector<std::pair<uint32_t, OutcomeCounts>> freq_items;
  for (const auto& [id, totals] : cond_totals) {
    if (totals.total() >= min_count) freq_items.emplace_back(id, totals);
  }
  if (freq_items.empty()) return;

  FpTree cond;
  cond.SetItems(std::move(freq_items));
  for (auto& [path, counts] : base) {
    cond.Insert(std::move(path), counts);
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
  std::vector<uint32_t> items;
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
    items.assign(db.row(r), db.row(r) + db.num_attributes());
    tree.Insert(items, delta);
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
