#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <random>

#include "core/corrective.h"
#include "core/explorer.h"
#include "core/global_divergence.h"
#include "core/report.h"
#include "core/shapley.h"
#include "data/csv.h"
#include "data/discretize.h"
#include "datasets/datasets.h"
#include "load.h"
#include "serve/artifact.h"
#include "serve/server.h"

namespace perfbench {
namespace {

using divexp::Result;
using divexp::Status;

// Mirrors tools/cli_run.cc's label extraction (numeric 0/1 column).
Result<std::vector<int>> ExtractLabels(const divexp::DataFrame& df,
                                       const std::string& column) {
  DIVEXP_ASSIGN_OR_RETURN(const divexp::Column* col, df.Find(column));
  if (col->type() != divexp::ColumnType::kInt &&
      col->type() != divexp::ColumnType::kDouble) {
    return Status::InvalidArgument("label column '" + column +
                                   "' must be numeric 0/1");
  }
  std::vector<int> labels;
  labels.reserve(col->size());
  for (size_t r = 0; r < col->size(); ++r) {
    const double v = col->IsMissing(r) ? -1.0 : col->Numeric(r);
    if (v != 0.0 && v != 1.0) {
      return Status::InvalidArgument("label column '" + column +
                                     "' must contain only 0/1");
    }
    labels.push_back(v == 1.0 ? 1 : 0);
  }
  return labels;
}

// Peak resident set of this process (VmHWM) in 1e6 bytes.
double VmHwmMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib * 1024.0 / 1e6;
}

// Resets VmHWM to the current resident set ("5" to clear_refs, Linux
// >= 4.0), so the next reading is the peak reached by the call in
// between rather than by anything earlier in the process.
void ResetVmHwm() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

const divexp::obs::StageStats* FindStage(
    const std::vector<divexp::obs::StageStats>& stages, const char* name) {
  for (const divexp::obs::StageStats& s : stages) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

bool IsOk(const std::string& response) {
  return response.rfind("{\"ok\":true", 0) == 0;
}

double Mean(double sum, size_t n) {
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

}  // namespace

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back(Entry{name, value, unit});
}

Status WriteDatasetCsv(const std::string& dataset, uint64_t seed,
                       size_t population_rows, size_t sample_rows,
                       const std::string& path) {
  divexp::BenchmarkDataset data;
  if (population_rows == 0) {
    DIVEXP_ASSIGN_OR_RETURN(data, divexp::MakeByName(dataset, seed));
  } else {
    if (dataset != "german") {
      return Status::InvalidArgument("no population generator for " +
                                     dataset);
    }
    divexp::SizeOptions options;
    options.num_rows = population_rows;
    DIVEXP_ASSIGN_OR_RETURN(data, divexp::MakeGerman(options));
    std::vector<size_t> rows(population_rows);
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
    std::mt19937_64 rng(seed);
    std::shuffle(rows.begin(), rows.end(), rng);
    rows.resize(std::min(sample_rows, rows.size()));
    std::sort(rows.begin(), rows.end());
    data.raw = data.raw.Take(rows);
    data.discretized = data.discretized.Take(rows);
    std::vector<int> truth;
    for (const size_t r : rows) truth.push_back(data.truth[r]);
    data.truth = std::move(truth);
  }
  DIVEXP_RETURN_NOT_OK(divexp::EnsurePredictions(&data));
  divexp::DataFrame frame = std::move(data.discretized);
  DIVEXP_RETURN_NOT_OK(frame.AddColumn(divexp::Column::MakeInt(
      "prediction",
      std::vector<int64_t>(data.predictions.begin(), data.predictions.end()))));
  DIVEXP_RETURN_NOT_OK(frame.AddColumn(divexp::Column::MakeInt(
      "label", std::vector<int64_t>(data.truth.begin(), data.truth.end()))));
  return divexp::WriteCsvFile(frame, path);
}

Result<AuditInputs> LoadAuditInputs(const std::string& csv,
                                    SpanRecorder* rec) {
  divexp::DataFrame df;
  {
    ScopedSpan span(rec, "data.csv");
    DIVEXP_ASSIGN_OR_RETURN(df, divexp::ReadCsvFile(csv));
  }
  AuditInputs in;
  {
    ScopedSpan span(rec, "cli.labels");
    DIVEXP_ASSIGN_OR_RETURN(in.predictions, ExtractLabels(df, "prediction"));
    DIVEXP_ASSIGN_OR_RETURN(in.truths, ExtractLabels(df, "label"));
    DIVEXP_RETURN_NOT_OK(df.DropColumn("prediction"));
    DIVEXP_RETURN_NOT_OK(df.DropColumn("label"));
    const std::vector<size_t> complete = df.CompleteRows();
    if (complete.size() != df.num_rows()) {
      df = df.Take(complete);
      std::vector<int> p, t;
      for (const size_t r : complete) {
        p.push_back(in.predictions[r]);
        t.push_back(in.truths[r]);
      }
      in.predictions = std::move(p);
      in.truths = std::move(t);
    }
  }
  divexp::DataFrame binned;
  {
    ScopedSpan span(rec, "data.discretize");
    DIVEXP_ASSIGN_OR_RETURN(
        binned, divexp::DiscretizeAll(df, divexp::BinStrategy::kQuantile, 3));
  }
  {
    ScopedSpan span(rec, "data.encode");
    DIVEXP_ASSIGN_OR_RETURN(in.encoded, divexp::EncodeDataFrame(binned));
  }
  {
    ScopedSpan span(rec, "data.free");
    df = divexp::DataFrame();
    binned = divexp::DataFrame();
  }
  return in;
}

Result<divexp::PatternTable> MineOracle(const std::string& csv,
                                        double support, size_t threads) {
  DIVEXP_ASSIGN_OR_RETURN(AuditInputs in, LoadAuditInputs(csv, nullptr));
  divexp::ExplorerOptions options;
  options.min_support = support;
  options.miner = divexp::MinerKind::kEclat;
  options.num_threads = threads;
  divexp::DivergenceExplorer explorer(options);
  return explorer.Explore(in.encoded, in.predictions, in.truths,
                          divexp::Metric::kFalsePositiveRate);
}

Status ReplayAudit(const AuditSpec& spec, SpanRecorder* rec,
                   MetricSet* metrics, double* wall_ms, double* coverage) {
  const int64_t begin_ns = rec->NowNs();
  std::optional<AuditInputs> in;
  {
    DIVEXP_ASSIGN_OR_RETURN(AuditInputs loaded,
                            LoadAuditInputs(spec.csv, rec));
    in.emplace(std::move(loaded));
  }

  // An external guard with no limits: the explorer then accounts the
  // memory it tracks (core.guard_peak_mb) without enforcing anything.
  divexp::RunGuard guard;
  divexp::ExplorerOptions options;
  options.min_support = spec.support;
  options.num_threads = spec.threads;
  options.guard = &guard;
  divexp::DivergenceExplorer explorer(options);
  std::optional<divexp::PatternTable> table;
  ResetVmHwm();
  const double explore_hwm0 = VmHwmMb();
  int explore_id = -1;
  {
    ScopedSpan span(rec, "core.explore");
    explore_id = span.id();
    DIVEXP_ASSIGN_OR_RETURN(
        divexp::PatternTable mined,
        explorer.Explore(in->encoded, in->predictions, in->truths,
                         divexp::Metric::kFalsePositiveRate));
    table.emplace(std::move(mined));
  }
  const double explore_hwm_delta = VmHwmMb() - explore_hwm0;
  const divexp::ExplorerRunStats& stats = explorer.last_run_stats();

  // The explorer's stage records carry durations but no start times;
  // lay them out back to back from the start of the explore span, with
  // the post-index pass at the start of the divergence stage it is part
  // of. What they do not cover is the span's self time.
  {
    const divexp::obs::StageStats* post =
        FindStage(stats.stages, divexp::obs::kStagePostIndex);
    int64_t t = rec->spans()[explore_id].start_ns;
    const int64_t end = rec->spans()[explore_id].end_ns;
    for (const divexp::obs::StageStats& s : stats.stages) {
      if (&s == post) continue;
      std::string name = s.name;
      if (name == divexp::obs::kStageTransactions) name = "fpm.transactions";
      if (name == divexp::obs::kStageMineBuild) name = "fpm.build";
      if (name == divexp::obs::kStageMineGrow) name = "fpm.grow";
      if (name == divexp::obs::kStageDivergence) name = "core.divergence";
      const int64_t stop =
          std::min(end, t + static_cast<int64_t>(s.wall_ms * 1e6));
      const int id = rec->Add(name, t, stop, explore_id);
      if (name == "core.divergence" && post != nullptr) {
        rec->Add("core.post_index", t,
                 std::min(stop, t + static_cast<int64_t>(post->wall_ms * 1e6)),
                 id);
      }
      t = stop;
    }
  }
  const auto stage_ms = [&](const char* name) {
    const divexp::obs::StageStats* s = FindStage(stats.stages, name);
    return s != nullptr ? s->wall_ms : 0.0;
  };

  const std::string label = "d_FPR";
  std::string out;
  std::vector<size_t> shown;
  {
    ScopedSpan span(rec, "core.topk");
    shown = table->TopK(10);
  }
  {
    ScopedSpan span(rec, "cli.format");
    out += std::to_string(table->size() - 1) + " frequent patterns\n";
    out += divexp::FormatPatternRows(*table, shown, label);
  }
  if (!shown.empty()) {
    std::vector<divexp::ItemContribution> contributions;
    {
      ScopedSpan span(rec, "core.shapley");
      DIVEXP_ASSIGN_OR_RETURN(
          contributions,
          divexp::ShapleyContributions(*table, table->row(shown[0]).items));
    }
    ScopedSpan span(rec, "cli.format");
    out += divexp::FormatContributions(*table, contributions);
  }
  {
    std::vector<divexp::GlobalItemDivergence> globals;
    {
      ScopedSpan span(rec, "core.global");
      divexp::GlobalDivergenceOptions gopts;
      gopts.num_threads = spec.threads;
      globals = divexp::ComputeGlobalItemDivergence(*table, gopts);
    }
    ScopedSpan span(rec, "cli.format");
    out += divexp::FormatGlobalDivergence(*table, globals, 10);
  }
  {
    std::vector<divexp::CorrectiveItem> corrective;
    {
      ScopedSpan span(rec, "core.corrective");
      divexp::CorrectiveOptions copts;
      copts.top_k = 10;
      corrective = divexp::FindCorrectiveItems(*table, copts);
    }
    ScopedSpan span(rec, "cli.format");
    out += divexp::FormatCorrectiveItems(*table, corrective, 10);
  }
  ResetVmHwm();
  const double write_hwm0 = VmHwmMb();
  {
    ScopedSpan span(rec, "serve.write");
    DIVEXP_RETURN_NOT_OK(
        divexp::serve::WritePatternTableArtifact(spec.artifact_path, *table));
  }
  const double write_hwm_delta = VmHwmMb() - write_hwm0;
  {
    ScopedSpan span(rec, "core.table_free");
    table.reset();
  }
  const double rows = static_cast<double>(in->encoded.num_rows);
  {
    ScopedSpan span(rec, "cli.teardown");
    in.reset();
    out.clear();
    out.shrink_to_fit();
  }
  const int64_t end_ns = rec->NowNs();
  *wall_ms = static_cast<double>(end_ns - begin_ns) / 1e6;
  *coverage = rec->TopLevelMs(begin_ns, end_ns) / *wall_ms;

  const double patterns = static_cast<double>(stats.patterns);
  const double grow_ms = stage_ms(divexp::obs::kStageMineGrow);
  const double explore_ms = rec->DurationMs(explore_id);
  metrics->Set("data.csv_ms", rec->TotalMs("data.csv"), "ms");
  metrics->Set("data.discretize_ms", rec->TotalMs("data.discretize"), "ms");
  metrics->Set("data.encode_ms", rec->TotalMs("data.encode"), "ms");
  metrics->Set("data.rows", rows, "count");
  metrics->Set("fpm.build_ms", stage_ms(divexp::obs::kStageMineBuild), "ms");
  metrics->Set("fpm.grow_ms", grow_ms, "ms");
  metrics->Set("fpm.patterns", patterns, "count");
  metrics->Set("fpm.patterns_per_s",
               grow_ms > 0.0 ? patterns / (grow_ms / 1e3) : 0.0, "1/s");
  metrics->Set("core.explore_ms", explore_ms, "ms");
  metrics->Set("core.divergence_ms", stage_ms(divexp::obs::kStageDivergence),
               "ms");
  metrics->Set("core.post_index_ms", stage_ms(divexp::obs::kStagePostIndex),
               "ms");
  metrics->Set("core.explore_unstaged_ms", rec->SelfMs(explore_id), "ms");
  metrics->Set("core.topk_ms", rec->TotalMs("core.topk"), "ms");
  metrics->Set("core.shapley_ms", rec->TotalMs("core.shapley"), "ms");
  metrics->Set("core.global_ms", rec->TotalMs("core.global"), "ms");
  metrics->Set("core.corrective_ms", rec->TotalMs("core.corrective"), "ms");
  metrics->Set("core.table_free_ms", rec->TotalMs("core.table_free"), "ms");
  metrics->Set("core.guard_peak_mb",
               static_cast<double>(stats.peak_memory_bytes) / 1e6, "MB");
  metrics->Set("core.explore_hwm_delta_mb", explore_hwm_delta, "MB");
  metrics->Set("serve.write_ms", rec->TotalMs("serve.write"), "ms");
  metrics->Set("serve.write_hwm_delta_mb", write_hwm_delta, "MB");
  metrics->Set("cli.glue_ms",
               rec->TotalMs("cli.labels") + rec->TotalMs("cli.format") +
                   rec->TotalMs("cli.teardown"),
               "ms");
  return Status::OK();
}

Status ReplayServe(const std::string& artifact_path, uint64_t seed,
                   size_t clients, uint64_t max_requests, double seconds,
                   SpanRecorder* rec, MetricSet* metrics) {
  // Open as the daemon does (header-tier validation); the median of a
  // few opens, keeping the last mapping.
  std::vector<double> open_ms;
  divexp::serve::ServingTable table;
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span(rec, "serve.open");
    DIVEXP_ASSIGN_OR_RETURN(divexp::serve::ServingTable opened,
                            divexp::serve::OpenServingTable(artifact_path));
    const int id = span.id();
    span.End();
    open_ms.push_back(rec->DurationMs(id));
    table = std::move(opened);
  }
  std::sort(open_ms.begin(), open_ms.end());

  divexp::serve::QueryService service(&table);  // default 64 MB cache
  const divexp::serve::QueryEngine& engine = service.engine();
  const RequestMix mix(table.view(), seed);
  std::vector<std::mt19937_64> rngs;
  for (size_t c = 0; c < clients; ++c) rngs.push_back(mix.ClientRng(seed, c));

  // Per class (0 = scan, 1 = lookup): handle-time sums of hits and
  // misses; per verb: engine-time sums.
  double hit_ms[2] = {0, 0}, miss_ms[2] = {0, 0};
  size_t hits[2] = {0, 0}, misses[2] = {0, 0};
  double engine_ms[3] = {0, 0, 0};
  size_t engine_calls[3] = {0, 0, 0};
  double protocol_ms = 0.0;
  uint64_t failed = 0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  for (uint64_t n = 0;
       n < max_requests && std::chrono::steady_clock::now() < deadline;
       ++n) {
    const Request request = mix.Draw(&rngs[n % clients]);
    const size_t cls = request.verb == Verb::kTopk ? 0 : 1;
    const uint64_t misses0 = service.cache().stats().misses;
    std::string response;
    int handle_id = -1;
    {
      ScopedSpan span(rec, "serve.handle");
      handle_id = span.id();
      response = service.HandleLine(request.line);
    }
    if (!IsOk(response)) ++failed;
    const double handle_ms = rec->DurationMs(handle_id);
    if (service.cache().stats().misses == misses0) {
      hit_ms[cls] += handle_ms;
      ++hits[cls];
      continue;
    }
    miss_ms[cls] += handle_ms;
    ++misses[cls];
    // The same query straight on the engine, outside the service: its
    // time against HandleLine's is the protocol share (parse,
    // canonicalize, cache, JSON rendering).
    const size_t v = static_cast<size_t>(request.verb);
    divexp::Itemset items;
    if (request.verb != Verb::kTopk) {
      DIVEXP_ASSIGN_OR_RETURN(items, engine.ParseItemset(request.items));
    }
    int engine_id = -1;
    {
      ScopedSpan span(rec,
                      std::string("serve.engine.") + VerbName(request.verb));
      engine_id = span.id();
      bool ok = true;
      if (request.verb == Verb::kTopk) {
        ok = engine.TopK(request.topk).ok();
      } else if (request.verb == Verb::kBrowse) {
        ok = engine.Browse(items).ok();
      } else {
        ok = engine.Shapley(items).ok();
      }
      if (!ok) ++failed;
    }
    const double e_ms = rec->DurationMs(engine_id);
    engine_ms[v] += e_ms;
    ++engine_calls[v];
    protocol_ms += handle_ms - e_ms;
  }
  double corrective_ms = 0.0;
  {
    ScopedSpan span(rec, "serve.engine.corrective");
    divexp::CorrectiveOptions copts;
    copts.top_k = 10;
    if (!engine.Corrective(copts).ok()) ++failed;
    const int id = span.id();
    span.End();
    corrective_ms = rec->DurationMs(id);
  }
  if (failed > 0) {
    return Status::Internal(std::to_string(failed) +
                            " in-process serve replay request(s) failed");
  }
  const divexp::serve::ResultCache::Stats cache = service.cache().stats();
  const size_t all_misses = misses[0] + misses[1];
  metrics->Set("serve.open_ms", open_ms[open_ms.size() / 2], "ms");
  metrics->Set("serve.engine_topk_ms",
               Mean(engine_ms[0], engine_calls[0]), "ms");
  metrics->Set("serve.scan_miss_ms", Mean(miss_ms[0], misses[0]), "ms");
  metrics->Set("serve.scan_hit_us", Mean(hit_ms[0], hits[0]) * 1e3, "us");
  metrics->Set("serve.engine_browse_ms",
               Mean(engine_ms[1], engine_calls[1]), "ms");
  metrics->Set("serve.engine_shapley_ms",
               Mean(engine_ms[2], engine_calls[2]), "ms");
  metrics->Set("serve.lookup_miss_ms", Mean(miss_ms[1], misses[1]), "ms");
  metrics->Set("serve.lookup_hit_us", Mean(hit_ms[1], hits[1]) * 1e3, "us");
  metrics->Set("serve.cache_hit_rate",
               cache.hits + cache.misses == 0
                   ? 0.0
                   : static_cast<double>(cache.hits) /
                         static_cast<double>(cache.hits + cache.misses),
               "ratio");
  metrics->Set("serve.cache_evictions", static_cast<double>(cache.evictions),
               "count");
  metrics->Set("serve.protocol_us", Mean(protocol_ms, all_misses) * 1e3,
               "us");
  metrics->Set("serve.engine_corrective_ms", corrective_ms, "ms");
  return Status::OK();
}

}  // namespace perfbench
