// Experiment PP — divergence post-pass A/B: the lattice-indexed,
// allocation-free ComputeGlobalItemDivergence against the pre-index
// reference path (one temporary itemset + one PatternTable::Find, a
// binary search over the canonical order, per (pattern, item)), plus
// the parallel pattern-table build, on the synthetic COMPAS-scale
// table. Emits BENCH_postpass.json.
//
// usage: bench_postpass [--dataset=compas] [--support=0.01]
//          [--threads=N] [--repeat=R] [--smoke] [--check-speedup=X]
//   --smoke          tiny-input CI mode: high support, and exit 1 if
//                    the indexed path is slower than the legacy path
//   --check-speedup  exit 1 if legacy/indexed(threads=N) < X
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/global_divergence.h"
#include "core/outcome.h"
#include "fpm/miner.h"
#include "util/string_util.h"

using namespace divexp;
using namespace divexp::bench;

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Minimum wall-clock of `repeat` runs of fn() — the usual
// noise-resistant microbenchmark estimator.
template <typename Fn>
double MinMillis(size_t repeat, const Fn& fn) {
  double best = 1e300;
  for (size_t r = 0; r < repeat; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, MillisSince(start));
  }
  return best;
}

void Record(const std::string& name, const std::string& dataset,
            double support, double wall_ms, uint64_t patterns) {
  BenchRecord record;
  record.name = name;
  record.dataset = dataset;
  record.min_support = support;
  record.wall_ms = wall_ms;
  record.patterns = patterns;
  UpsertBenchRecord(std::move(record));
}

}  // namespace

int main(int argc, char** argv) {
  std::string dataset = "compas";
  double support = 0.01;
  size_t threads = 0;
  size_t repeat = 5;
  bool smoke = false;
  double check_speedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--dataset=", 0) == 0) {
      dataset = arg.substr(10);
    } else if (arg.rfind("--support=", 0) == 0) {
      support = std::atof(arg.c_str() + 10);
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = static_cast<size_t>(std::atol(arg.c_str() + 10));
    } else if (arg.rfind("--repeat=", 0) == 0) {
      repeat = static_cast<size_t>(std::atol(arg.c_str() + 9));
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--check-speedup=", 0) == 0) {
      check_speedup = std::atof(arg.c_str() + 16);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (smoke) {
    // Tiny-input CI mode: keep the table small and the run quick.
    support = std::max(support, 0.2);
    repeat = std::max(repeat, size_t{7});
  }
  if (threads == 0) {
    threads = std::min<size_t>(
        8, std::max<unsigned>(1, std::thread::hardware_concurrency()));
  }

  const BenchmarkDataset ds = LoadDataset(dataset);
  const EncodedDataset encoded = Encode(ds);
  auto outcomes = ComputeOutcomes(Metric::kFalsePositiveRate,
                                  ds.predictions, ds.truth);
  if (!outcomes.ok()) {
    std::fprintf(stderr, "outcomes failed: %s\n",
                 outcomes.status().ToString().c_str());
    return 1;
  }
  auto db = TransactionDatabase::Create(encoded, std::move(*outcomes));
  if (!db.ok()) {
    std::fprintf(stderr, "transactions failed: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }
  MinerOptions mopts;
  mopts.min_support = support;
  auto mined = MakeMiner(MinerKind::kFpGrowth)->Mine(*db, mopts);
  if (!mined.ok()) {
    std::fprintf(stderr, "mining failed: %s\n",
                 mined.status().ToString().c_str());
    return 1;
  }
  const uint64_t patterns = mined->size() > 0 ? mined->size() - 1 : 0;
  std::printf("%s s=%s: %llu patterns, threads=%zu, repeat=%zu\n",
              dataset.c_str(), FormatDouble(support, 3).c_str(),
              static_cast<unsigned long long>(patterns), threads, repeat);

  // Table build (includes the lattice-index + stat pass), sequential
  // and parallel. Each repetition consumes a fresh copy of the mined
  // patterns, as PatternTable::Create does in production.
  PatternTable table;
  for (const size_t t : {size_t{1}, threads}) {
    const double ms = MinMillis(repeat, [&] {
      PatternTableOptions topts;
      topts.num_threads = t;
      auto built = PatternTable::Create(*mined, encoded.catalog,
                                        encoded.num_rows, nullptr, topts);
      if (!built.ok()) {
        std::fprintf(stderr, "table build failed: %s\n",
                     built.status().ToString().c_str());
        std::exit(1);
      }
      table = std::move(*built);
    });
    Record("postpass/create/indexed/t=" + std::to_string(t), dataset,
           support, ms, patterns);
    std::printf("  create (indexed, t=%zu): %s ms\n", t,
                FormatDouble(ms, 3).c_str());
    if (t == threads && t == 1) break;
  }

  // Global item divergence: legacy (temporary itemsets + table lookups,
  // sequential) vs lattice-indexed (sequential and parallel).
  std::vector<GlobalItemDivergence> legacy;
  const double legacy_ms = MinMillis(repeat, [&] {
    GlobalDivergenceOptions gopts;
    gopts.use_lattice_index = false;
    legacy = ComputeGlobalItemDivergence(table, gopts);
  });
  Record("postpass/global/legacy", dataset, support, legacy_ms, patterns);
  std::printf("  global divergence (legacy):        %s ms\n",
              FormatDouble(legacy_ms, 3).c_str());

  std::vector<GlobalItemDivergence> indexed;
  double indexed_best_ms = 1e300;
  for (const size_t t : {size_t{1}, threads}) {
    const uint64_t allocs_before = ItemsetAllocCount();
    const double ms = MinMillis(repeat, [&] {
      GlobalDivergenceOptions gopts;
      gopts.num_threads = t;
      indexed = ComputeGlobalItemDivergence(table, gopts);
    });
    if (ItemsetAllocCount() != allocs_before) {
      std::fprintf(stderr,
                   "FAIL: indexed global divergence materialized "
                   "itemsets on the hot path\n");
      return 1;
    }
    indexed_best_ms = std::min(indexed_best_ms, ms);
    Record("postpass/global/indexed/t=" + std::to_string(t), dataset,
           support, ms, patterns);
    std::printf("  global divergence (indexed, t=%zu): %s ms (%sx)\n", t,
                FormatDouble(ms, 3).c_str(),
                FormatDouble(ms > 0 ? legacy_ms / ms : 0.0, 2).c_str());
    // Differential check: the two paths must agree to 1e-12.
    double max_diff = 0.0;
    for (size_t i = 0; i < legacy.size(); ++i) {
      max_diff = std::max(
          max_diff, std::fabs(legacy[i].global - indexed[i].global));
    }
    if (max_diff > 1e-12) {
      std::fprintf(stderr, "FAIL: legacy/indexed diverge by %g\n",
                   max_diff);
      return 1;
    }
    if (t == threads && t == 1) break;
  }

  const double speedup =
      indexed_best_ms > 0 ? legacy_ms / indexed_best_ms : 0.0;
  std::printf("  best indexed speedup: %sx\n",
              FormatDouble(speedup, 2).c_str());
  WriteBenchJson("postpass_bench", "postpass");

  if (smoke && speedup < 1.0) {
    std::fprintf(stderr,
                 "FAIL: indexed post-pass slower than legacy "
                 "(%sx) on the smoke input\n",
                 FormatDouble(speedup, 2).c_str());
    return 1;
  }
  if (check_speedup > 0.0 && speedup < check_speedup) {
    std::fprintf(stderr, "FAIL: speedup %sx below required %sx\n",
                 FormatDouble(speedup, 2).c_str(),
                 FormatDouble(check_speedup, 2).c_str());
    return 1;
  }
  return 0;
}
