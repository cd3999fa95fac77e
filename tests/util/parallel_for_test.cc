// Unit tests for ParallelFor's range handling, in particular the empty
// range: n == 0 with any thread count must spawn no workers, invoke the
// body zero times, and return immediately. Also pins the two schedules:
// ParallelFor's claimed blocks and ParallelForChunks' fixed partition.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/parallel.h"

namespace divexp {
namespace {

TEST(ParallelForTest, EmptyRangeInvokesNothing) {
  for (size_t threads : {size_t{0}, size_t{1}, size_t{2}, size_t{64}}) {
    std::atomic<uint64_t> calls{0};
    std::mutex mu;
    std::set<std::thread::id> worker_ids;
    ParallelFor(threads, 0, [&](size_t) {
      calls.fetch_add(1);
      std::lock_guard<std::mutex> lock(mu);
      worker_ids.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(calls.load(), 0u) << "threads=" << threads;
    EXPECT_TRUE(worker_ids.empty()) << "threads=" << threads;
  }
}

TEST(ParallelForTest, SingleElementRunsInline) {
  // n == 1 short-circuits to a plain loop on the calling thread.
  const std::thread::id caller = std::this_thread::get_id();
  size_t calls = 0;
  ParallelFor(16, 1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    for (size_t n : {size_t{1}, size_t{2}, size_t{7}, size_t{100}}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      ParallelFor(threads, n, [&](size_t i) { hits[i].fetch_add(1); });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " n=" << n
                                     << " i=" << i;
      }
    }
  }
}

TEST(ParallelForTest, MoreThreadsThanWorkStillCoversRange) {
  std::vector<std::atomic<int>> hits(3);
  for (auto& h : hits) h.store(0);
  ParallelFor(32, 3, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelForTest, WorkerExceptionRethrownOnCaller) {
  EXPECT_THROW(
      ParallelFor(4, 100,
                  [&](size_t i) {
                    if (i == 42) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(ParallelForTest, IdleWorkerClaimsTheRestWhileOneIndexBlocks) {
  // Index 0 returns only once every other index has run. With claimed
  // blocks the second worker drains the range meanwhile; with one fixed
  // contiguous slice per worker, indices 1..n/2-1 would sit behind
  // index 0 on the same worker. The wait is bounded, so that schedule
  // fails here instead of hanging.
  constexpr size_t kN = 64;
  std::atomic<size_t> others_done{0};
  bool waited_for_all = false;
  ParallelFor(2, kN, [&](size_t i) {
    if (i != 0) {
      others_done.fetch_add(1);
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (others_done.load() < kN - 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    waited_for_all = others_done.load() == kN - 1;
  });
  EXPECT_TRUE(waited_for_all);
  EXPECT_EQ(others_done.load(), kN - 1);
}

TEST(ParallelForChunksTest, ChunkBoundariesAreFixedFractions) {
  for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
    for (size_t n : {size_t{1}, size_t{5}, size_t{7}, size_t{100}}) {
      const size_t chunks = ParallelChunkCount(threads, n);
      std::vector<std::pair<size_t, size_t>> ranges(chunks);
      std::atomic<size_t> calls{0};
      ParallelForChunks(threads, n, [&](size_t c, size_t begin, size_t end) {
        ranges[c] = {begin, end};
        calls.fetch_add(1);
      });
      ASSERT_EQ(calls.load(), chunks) << "threads=" << threads << " n=" << n;
      for (size_t c = 0; c < chunks; ++c) {
        EXPECT_EQ(ranges[c].first, c * n / chunks)
            << "threads=" << threads << " n=" << n << " c=" << c;
        EXPECT_EQ(ranges[c].second, (c + 1) * n / chunks)
            << "threads=" << threads << " n=" << n << " c=" << c;
      }
    }
  }
}

}  // namespace
}  // namespace divexp
