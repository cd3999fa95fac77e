// Minimal data-parallel helpers over std::thread workers, used by the
// miners, the divergence post-pass and the canonical sort. With
// num_threads <= 1 both degrade to a plain loop on the calling thread.
//
// ParallelFor schedules dynamically: workers claim blocks of indices
// from a shared atomic cursor, so a few expensive indices (FP-growth's
// first top-level conditional trees, a heavy ECLAT root) no longer pin
// one worker while the others idle. Use it when fn(i) writes only its
// own per-i slot, so the result cannot depend on which worker ran i.
//
// ParallelForChunks keeps a fixed contiguous partition, c·n/chunks, for
// reductions whose floating-point result must not depend on timing.
#ifndef DIVEXP_UTIL_PARALLEL_H_
#define DIVEXP_UTIL_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/failpoint.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace divexp {
namespace internal {

/// First-exception latch shared by the ParallelFor variants. `failed`
/// is the workers' cheap poll; the exception slot itself is
/// mutex-guarded so the capability analysis can verify the handoff
/// (the join() barrier would also order it, but a protocol the
/// compiler can check beats one it has to trust).
class ParallelErrorLatch {
 public:
  /// Records the current in-flight exception if this is the first
  /// failure; later failures are dropped.
  void Capture() EXCLUDES(mu_) {
    if (failed_.exchange(true, std::memory_order_relaxed)) return;
    MutexLock lock(mu_);
    error_ = std::current_exception();
  }

  /// Cheap poll for workers deciding whether to wind down early.
  bool failed() const {
    return failed_.load(std::memory_order_relaxed);
  }

  /// Rethrows the first captured exception, if any. Call after all
  /// workers have joined.
  void Rethrow() EXCLUDES(mu_) {
    std::exception_ptr error;
    {
      MutexLock lock(mu_);
      error = error_;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  Mutex mu_;
  std::exception_ptr error_ GUARDED_BY(mu_);
  std::atomic<bool> failed_{false};
};

}  // namespace internal

/// Invokes fn(i) for every i in [0, n) on up to `num_threads` workers.
/// Workers claim blocks of max(1, n / (workers·64)) consecutive indices
/// from a shared cursor until the range is exhausted, so the split
/// follows the cost of each index rather than its position. fn must be
/// safe to call concurrently for distinct i (typically writing to
/// per-i output slots).
///
/// Exception safety: if a worker's fn throws, the first exception is
/// captured and rethrown on the calling thread after all workers have
/// joined (an uncaught exception on a std::thread would otherwise call
/// std::terminate). Once an exception is pending, the remaining workers
/// skip their unstarted iterations and wind down early.
inline void ParallelFor(size_t num_threads, size_t n,
                        const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (num_threads <= 1 || n == 1) {
    // The worker-startup failpoint fires on the degraded path too, so a
    // fault schedule behaves the same at num_threads == 1.
    DIVEXP_FAILPOINT("parallel.worker");
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const size_t workers = std::min(num_threads, n);
  const size_t grain = std::max<size_t>(1, n / (workers * 64));
  std::atomic<size_t> cursor{0};
  internal::ParallelErrorLatch latch;
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([n, grain, &cursor, &fn, &latch] {
      try {
        DIVEXP_FAILPOINT("parallel.worker");
      } catch (...) {
        latch.Capture();
        return;
      }
      for (;;) {
        const size_t begin =
            cursor.fetch_add(grain, std::memory_order_relaxed);
        if (begin >= n) return;
        const size_t end = std::min(n, begin + grain);
        for (size_t i = begin; i < end; ++i) {
          if (latch.failed()) return;
          try {
            fn(i);
          } catch (...) {
            latch.Capture();
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  latch.Rethrow();
}

/// Number of contiguous chunks ParallelForChunks splits [0, n) into:
/// min(num_threads, n) (0 when n == 0). Exposed so callers can size
/// per-chunk accumulators before launching.
inline size_t ParallelChunkCount(size_t num_threads, size_t n) {
  if (n == 0) return 0;
  if (num_threads <= 1) return 1;
  return std::min(num_threads, n);
}

/// Invokes fn(chunk, begin, end) once per contiguous chunk of [0, n);
/// chunk c spans [c·n/chunks, (c+1)·n/chunks), a fixed partition that
/// does not depend on timing (unlike ParallelFor's claimed blocks).
/// Meant for reductions: each chunk fills its own accumulator slot and the
/// caller combines slots in chunk order, so the reduction order — and
/// therefore the floating-point result — is deterministic for a fixed
/// thread count. Same exception contract as ParallelFor.
inline void ParallelForChunks(
    size_t num_threads, size_t n,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  const size_t chunks = ParallelChunkCount(num_threads, n);
  if (chunks == 0) return;
  if (chunks == 1) {
    fn(0, 0, n);
    return;
  }
  internal::ParallelErrorLatch latch;
  std::vector<std::thread> threads;
  threads.reserve(chunks);
  for (size_t c = 0; c < chunks; ++c) {
    threads.emplace_back([c, chunks, n, &fn, &latch] {
      if (latch.failed()) return;
      try {
        fn(c, c * n / chunks, (c + 1) * n / chunks);
      } catch (...) {
        latch.Capture();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  latch.Rethrow();
}

}  // namespace divexp

#endif  // DIVEXP_UTIL_PARALLEL_H_
