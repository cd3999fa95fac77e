// In-process replays of the CLI's work through each layer's public
// functions: the audit pipeline (tools/cli_run.cc's sequence) and the
// serving read path. With a SpanRecorder every layer call sits in a
// span; the same loaders without one build the untraced oracle table.
#ifndef PERFBENCH_HARNESS_REPLAY_H_
#define PERFBENCH_HARNESS_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/pattern.h"
#include "data/encoder.h"
#include "spans.h"
#include "util/status.h"

namespace perfbench {

/// Ordered (name, value, unit) records, printed as the result's metrics.
class MetricSet {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Writes the CLI's input CSV for `seed` (the columns
/// divexp-dump-dataset writes) from the named in-tree generator. With
/// `population_rows` == 0 the rows are the generator's own sample for
/// `seed`. Otherwise `seed` draws `sample_rows` rows from one fixed
/// population of `population_rows` rows (german only), generated with
/// the generator's default seed and discretized with that population's
/// quantile edges. Either way the predictions come from a forest
/// trained on the written rows.
divexp::Status WriteDatasetCsv(const std::string& dataset, uint64_t seed,
                               size_t population_rows, size_t sample_rows,
                               const std::string& path);

struct AuditInputs {
  divexp::EncodedDataset encoded;
  std::vector<int> predictions;
  std::vector<int> truths;
};

/// The CLI's load path: CSV -> labels -> complete rows -> quantile
/// discretization (3 bins) -> encoding.
divexp::Result<AuditInputs> LoadAuditInputs(const std::string& csv,
                                            SpanRecorder* rec);

/// The oracle table: the same CSV mined with ECLAT.
divexp::Result<divexp::PatternTable> MineOracle(const std::string& csv,
                                                double support,
                                                size_t threads);

struct AuditSpec {
  std::string csv;
  double support = 0.0;
  size_t threads = 1;
  std::string artifact_path;
};

/// Replays one `divexp --csv ... --shapley --global --corrective
/// --save-artifact` audit under spans and fills the data/fpm/core and
/// serve.write metrics. `*wall_ms` receives the replay's wall time and
/// `*coverage` the share of it inside top-level layer spans.
divexp::Status ReplayAudit(const AuditSpec& spec, SpanRecorder* rec,
                           MetricSet* metrics, double* wall_ms,
                           double* coverage);

/// Replays the serving mix in process against `artifact_path`: opens it
/// as the daemon does, then sends up to `max_requests` requests of the
/// first serving window's client streams (interleaved) through a
/// QueryService with the default cache for at most `seconds`, timing
/// each layer call.
divexp::Status ReplayServe(const std::string& artifact_path, uint64_t seed,
                           size_t clients, uint64_t max_requests,
                           double seconds, SpanRecorder* rec,
                           MetricSet* metrics);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_REPLAY_H_
