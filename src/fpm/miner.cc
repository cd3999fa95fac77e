#include "fpm/miner.h"

#include <algorithm>
#include <cmath>

#include "fpm/apriori.h"
#include "fpm/eclat.h"
#include "fpm/fpgrowth.h"
#include "util/parallel.h"

namespace divexp {
namespace {

bool CanonicalLess(const MinedPattern& a, const MinedPattern& b) {
  return CanonicalCompare(ItemSpan(a.items), b.items) < 0;
}

// Below this many patterns per thread, SortPatterns sorts serially: a
// thread start and a merge cost more than they save.
constexpr size_t kMinPatternsPerSortThread = 1 << 14;

}  // namespace

const char* MinerKindName(MinerKind kind) {
  switch (kind) {
    case MinerKind::kFpGrowth:
      return "fpgrowth";
    case MinerKind::kApriori:
      return "apriori";
    case MinerKind::kEclat:
      return "eclat";
    case MinerKind::kAuto:
      return "auto";
  }
  return "unknown";
}

std::unique_ptr<FrequentPatternMiner> MakeMiner(MinerKind kind) {
  switch (kind) {
    case MinerKind::kFpGrowth:
      return std::make_unique<FpGrowthMiner>();
    case MinerKind::kApriori:
      return std::make_unique<AprioriMiner>();
    case MinerKind::kEclat:
      return std::make_unique<EclatMiner>();
    case MinerKind::kAuto:
      // kAuto must be resolved through fpm::ChooseMiningPlan first;
      // there is no "auto miner" object.
      return nullptr;
  }
  return nullptr;
}

uint64_t MinCount(double min_support, size_t num_rows) {
  const double raw = min_support * static_cast<double>(num_rows);
  uint64_t count = static_cast<uint64_t>(std::ceil(raw - 1e-9));
  return std::max<uint64_t>(count, 1);
}

void EnforcePatternBudget(RunGuard* guard,
                          std::vector<MinedPattern>* patterns) {
  if (guard == nullptr) return;
  const uint64_t budget = guard->limits().max_patterns;
  if (budget == 0) return;
  if (patterns->size() > budget + 1) {  // +1 for the empty itemset
    patterns->resize(budget + 1);
    guard->NotePatternBudgetBreach();
  }
}

void SortPatterns(std::vector<MinedPattern>* patterns, size_t num_threads) {
  const size_t n = patterns->size();
  const size_t runs = std::min(num_threads, n / kMinPatternsPerSortThread);
  if (runs <= 1) {
    std::sort(patterns->begin(), patterns->end(), CanonicalLess);
    return;
  }
  // Sort `runs` contiguous runs in parallel; bounds[r] is where run r
  // starts.
  std::vector<size_t> bounds(runs + 1);
  for (size_t r = 0; r <= runs; ++r) bounds[r] = r * n / runs;
  ParallelFor(num_threads, runs, [&](size_t r) {
    std::sort(patterns->begin() + bounds[r],
              patterns->begin() + bounds[r + 1], CanonicalLess);
  });

  // Merge adjacent runs pairwise, doubling the run width each round;
  // the merges within a round are independent.
  for (size_t width = 1; width < runs; width *= 2) {
    ParallelFor(num_threads, (runs + 2 * width - 1) / (2 * width),
                [&](size_t k) {
                  const size_t lo = 2 * k * width;
                  const size_t mid = std::min(lo + width, runs);
                  const size_t hi = std::min(lo + 2 * width, runs);
                  std::inplace_merge(patterns->begin() + bounds[lo],
                                     patterns->begin() + bounds[mid],
                                     patterns->begin() + bounds[hi],
                                     CanonicalLess);
                });
  }
}

}  // namespace divexp
