// The serving traffic mix: request pools drawn from a pattern table,
// the closed-loop socket clients, and the oracle check of sampled
// answers against core analyses on an independently mined table.
#ifndef PERFBENCH_HARNESS_LOAD_H_
#define PERFBENCH_HARNESS_LOAD_H_

#include <sys/types.h>

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/pattern.h"
#include "serve/query.h"
#include "serve/table_view.h"

namespace perfbench {

enum class Verb { kTopk, kBrowse, kShapley };

const char* VerbName(Verb verb);

struct Request {
  Verb verb = Verb::kTopk;
  std::string line;
  divexp::serve::TopKQuery topk;  ///< kTopk
  /// (attribute, value) pairs for kBrowse / kShapley.
  std::vector<std::pair<std::string, std::string>> items;
};

/// Zipf(s) over ranks 0..n-1 by inverse-CDF lookup.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Draw(std::mt19937_64* rng) const;

 private:
  std::vector<double> cdf_;
};

/// The request mix over one table: ~80% lookups (browse / shapley on
/// itemsets of length 2-6, Zipf over a seeded sample of the table's
/// rows) and ~20% scans (topk, Zipf over a fixed pool of
/// key/order/min_len/min_support parameterizations).
class RequestMix {
 public:
  RequestMix(const divexp::serve::TableView& view, uint64_t seed);

  /// Deterministic stream number `stream` of a run with `seed`; serving
  /// window w gives its client c stream w * clients + c.
  static std::mt19937_64 ClientRng(uint64_t seed, size_t stream);
  Request Draw(std::mt19937_64* rng) const;

 private:
  std::vector<Request> itemsets_;  ///< verb filled in at draw time
  std::vector<Request> topk_;
  ZipfSampler itemset_zipf_;
  ZipfSampler topk_zipf_;
};

struct Sample {
  Request request;
  std::string response;
};

struct LoadResult {
  std::vector<double> lookup_ms;
  std::vector<double> scan_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Completed requests per second of wall time, one per window.
  std::vector<double> window_qps;
  /// Every 16th request of each verb per client, up to a cap: the
  /// seeded sample the oracle check replays.
  std::vector<Sample> samples;

  /// Adds another window's requests, latencies, samples and time.
  void Append(LoadResult&& window);
};

/// One serving window against the daemon `daemon`: `clients`
/// closed-loop clients, one connection each, sending `requests`
/// requests between them (fewer if `max_seconds` passes). Client c
/// draws from stream `first_stream + c` and, when the daemon thread
/// serving it can be told apart, shares CPU `cpus[c]` with that thread
/// alone.
LoadResult RunClosedLoop(const std::string& socket_path, pid_t daemon,
                         const std::vector<int>& cpus,
                         const RequestMix& mix, uint64_t seed,
                         size_t first_stream, size_t clients,
                         uint64_t requests, double max_seconds);

/// Renders the daemon's expected response to a request from core
/// analyses on an independently mined table (PatternTable::TopK / Rank,
/// BuildLattice, ShapleyContributions), in the protocol's JSON form.
class Oracle {
 public:
  explicit Oracle(const divexp::PatternTable* table) : table_(table) {}
  std::string Response(const Request& request);

 private:
  const divexp::PatternTable* table_;
  /// Full rankings for the non-divergence keys, computed once per
  /// (key, order): PatternTable::TopK ranks by divergence only.
  std::vector<std::pair<std::pair<int, bool>, std::vector<size_t>>> ranks_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_LOAD_H_
