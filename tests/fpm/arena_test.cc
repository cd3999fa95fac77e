// NodeArena regression suite: bump-pointer invariants (alignment,
// block reuse, oversized requests, Reset), plus the two integration
// guarantees the FP-growth rewiring depends on — the
// `fpm.kernel.arena.bytes` counter reports real reserved block bytes,
// and RunGuard's memory accounting sees those same bytes (not just the
// node payload sum). The arena-on/off output-identity property lives
// in differential_test.cc, which CI also runs under ASan so a
// use-after-Reset or out-of-block write surfaces there.
#include "fpm/kernels/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "fpm/fpgrowth.h"
#include "obs/metrics.h"
#include "testing/test_data.h"
#include "util/run_guard.h"

namespace divexp {
namespace {

using testing::MakeEncoded;
using testing::OutcomesFromString;

TEST(NodeArenaTest, BumpAllocatesWithinOneBlock) {
  fpm::NodeArena arena;
  EXPECT_EQ(arena.num_blocks(), 0u);
  EXPECT_EQ(arena.allocated_bytes(), 0u);
  void* a = arena.Allocate(64, 8);
  void* b = arena.Allocate(64, 8);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  // Two small allocations share the first 64 KiB block.
  EXPECT_EQ(arena.num_blocks(), 1u);
  EXPECT_EQ(arena.allocated_bytes(), fpm::NodeArena::kDefaultBlockBytes);
  // Bump order: consecutive allocations are adjacent (modulo padding).
  EXPECT_EQ(static_cast<unsigned char*>(b),
            static_cast<unsigned char*>(a) + 64);
}

TEST(NodeArenaTest, RespectsAlignment) {
  fpm::NodeArena arena(256);
  for (size_t align : {1ul, 2ul, 4ul, 8ul, 16ul}) {
    for (int i = 0; i < 8; ++i) {
      void* p = arena.Allocate(3, align);  // odd size forces padding
      EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u)
          << "align=" << align << " i=" << i;
    }
  }
}

TEST(NodeArenaTest, SpillsToNewBlocksAndCountsRealBytes) {
  fpm::NodeArena arena(128);
  std::set<void*> seen;
  for (int i = 0; i < 100; ++i) {
    void* p = arena.Allocate(16, 8);
    EXPECT_TRUE(seen.insert(p).second) << "allocation reused a live slot";
  }
  // 8 allocations of 16 bytes per 128-byte block -> >= 13 blocks.
  EXPECT_GE(arena.num_blocks(), 13u);
  EXPECT_EQ(arena.allocated_bytes(),
            static_cast<uint64_t>(arena.num_blocks()) * 128u);
}

TEST(NodeArenaTest, OversizedRequestGetsDedicatedBlock) {
  fpm::NodeArena arena(128);
  void* big = arena.Allocate(1024, 8);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(arena.num_blocks(), 1u);
  EXPECT_GE(arena.allocated_bytes(), 1024u);
  // The next small allocation must not land inside the big object.
  void* small = arena.Allocate(16, 8);
  EXPECT_TRUE(small < big ||
              static_cast<unsigned char*>(small) >=
                  static_cast<unsigned char*>(big) + 1024);
}

TEST(NodeArenaTest, ResetReleasesEverything) {
  fpm::NodeArena arena(256);
  for (int i = 0; i < 32; ++i) arena.Allocate(32, 8);
  EXPECT_GT(arena.num_blocks(), 0u);
  arena.Reset();
  EXPECT_EQ(arena.num_blocks(), 0u);
  EXPECT_EQ(arena.allocated_bytes(), 0u);
  // The arena is reusable after Reset.
  EXPECT_NE(arena.Allocate(32, 8), nullptr);
  EXPECT_EQ(arena.num_blocks(), 1u);
}

TEST(NodeArenaTest, NewValueInitializesTrivialTypes) {
  struct Node {
    uint64_t a;
    uint32_t b;
  };
  fpm::NodeArena arena;
  for (int i = 0; i < 16; ++i) {
    Node* n = arena.New<Node>();
    EXPECT_EQ(n->a, 0u);
    EXPECT_EQ(n->b, 0u);
    n->a = ~uint64_t{0};  // dirty the slot; later News get fresh ones
  }
}

Result<std::vector<MinedPattern>> MineSmall(const MinerOptions& opts) {
  // 64 rows over 4 attributes — enough tree to force arena blocks.
  std::vector<std::vector<int>> cells;
  std::string outcomes;
  for (int r = 0; r < 64; ++r) {
    cells.push_back({r % 2, r % 3, r % 4, (r / 2) % 2});
    outcomes += (r % 3 == 0) ? 'T' : (r % 3 == 1 ? 'F' : 'B');
  }
  const EncodedDataset ds = MakeEncoded(cells, {2, 3, 4, 2});
  auto db = TransactionDatabase::Create(ds, OutcomesFromString(outcomes));
  EXPECT_TRUE(db.ok());
  FpGrowthMiner miner;
  return miner.Mine(*db, opts);
}

TEST(ArenaAccountingTest, CounterReportsReservedBlockBytes) {
  obs::Counter* counter = obs::MetricsRegistry::Default().GetCounter(
      "fpm.kernel.arena.bytes");
  const uint64_t before = counter->Value();
  MinerOptions opts;
  opts.min_support = 0.05;
  auto patterns = MineSmall(opts);
  ASSERT_TRUE(patterns.ok());
  // The top-level tree reserves at least one 64 KiB block.
  EXPECT_GE(counter->Value() - before,
            uint64_t{fpm::NodeArena::kDefaultBlockBytes});
}

TEST(ArenaAccountingTest, RunGuardSeesArenaBlockBytes) {
  // The guard is charged the reserved block bytes (>= one 64 KiB
  // block), not just the node payloads, which for this tiny tree are far
  // below one block: RunGuard accounts what the allocator actually took
  // from the heap.
  RunGuard guard{RunLimits{}};
  MinerOptions opts;
  opts.min_support = 0.05;
  opts.guard = &guard;
  ASSERT_TRUE(MineSmall(opts).ok());
  EXPECT_GE(guard.peak_memory_bytes(),
            uint64_t{fpm::NodeArena::kDefaultBlockBytes});
}

}  // namespace
}  // namespace divexp
