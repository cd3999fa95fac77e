// perfbench harness: one workload, one seed, one run.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     --divexp PATH --work-dir DIR [--support X]
//
// Timed e2e pass: the real entry points as child processes with
// tracing off, for about --seconds: `divexp --csv ...` audits, each
// followed by serving windows (`divexp serve --socket ...` over the
// artifact the audit just wrote, with closed-loop socket clients). With
// --trace 1 a traced in-process replay of the same work follows and
// per-layer metrics are printed instead of end-to-end ones. Outputs are
// checked against an ECLAT-mined oracle table after timing. The last
// stdout line is the result JSON. See perfbench/README.md.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "load.h"
#include "proc.h"
#include "replay.h"
#include "serve/artifact.h"
#include "spans.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Workload {
  const char* name;
  const char* dataset;
  /// > 0: the seed draws `sample_rows` rows from a fixed population of
  /// this many rows (see WriteDatasetCsv) instead of generating a fresh
  /// sample. German's pattern count hangs on its 1,000-row sample: over
  /// seeds 1-20, fresh samples spread 8% (interquartile range over
  /// median) and population draws 4%.
  size_t population_rows;
  size_t sample_rows;
  double support;
  size_t threads;
};

constexpr Workload kWorkloads[] = {
    {"german-audit", "german", 20000, 1000, 0.02, 2},
    {"adult-audit", "adult", 0, 0, 0.01, 1},
};

/// Set-up repetitions; setup_s is their median.
constexpr int kSetupReps = 5;
/// Requests per serving window. Each window starts a fresh daemon, so
/// its cache starts empty. A fixed count rather than a fixed time keeps
/// each class's cache-miss share the same on a fast and a slow commit
/// (see load.cc).
constexpr uint64_t kWindowRequests = 4000;
/// Serving windows after each audit: the latency percentiles pool every
/// window, so more of them spread the serving samples over more of the
/// run, and over more daemon starts.
constexpr int kWindowsPerAudit = 2;
/// Rounds (audit + windows) a run makes if the first ends within
/// --seconds, even when the second then ends well after it: on a slow or
/// busy host audit_s is then still a median of two.
constexpr size_t kMinRounds = 2;
/// Cap on a serving window or replay, to stay inside the run time limit.
constexpr double kMaxServeSeconds = 30.0;
constexpr size_t kClients = 2;
constexpr size_t kDaemonThreads = 2;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string divexp;
  std::string work_dir;
  double support = 0.0;  ///< > 0 overrides the workload's (ledger runs)
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (flag == "--divexp") {
      args->divexp = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--support") {
      args->support = std::strtod(value.c_str(), &end);
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (args->workload.empty() || args->seconds <= 0.0 || args->trace < 0 ||
      args->divexp.empty() || args->work_dir.empty() || args->support < 0.0 ||
      args->support > 1.0) {
    *error = "required: --workload --seed --seconds --trace 0|1 --divexp "
             "--work-dir";
    return false;
  }
  return true;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct AuditRun {
  std::string artifact;
  bool ok = false;
  double wall_s = 0.0;
  double maxrss_mb = 0.0;
  double artifact_mb = 0.0;
};

/// Removes the run's scratch directory (artifacts are 100+ MB) however
/// the run ends.
class WorkDir {
 public:
  explicit WorkDir(std::string path) : path_(std::move(path)) {
    std::error_code ec;
    fs::remove_all(path_, ec);
    fs::create_directories(path_);
  }
  ~WorkDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

  /// A fresh, empty subdirectory.
  std::string Fresh(const std::string& name) const {
    const std::string dir = path_ + "/" + name;
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir);
    return dir;
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

class Harness {
 public:
  Harness(const Args& args, const Workload& workload, Launcher* launcher)
      : args_(args),
        workload_(workload),
        launcher_(launcher),
        support_(args.support > 0.0 ? args.support : workload.support),
        work_(args.work_dir + "/" + workload.name + "-s" +
              std::to_string(args.seed) + "-p" + std::to_string(::getpid())),
        csv_(work_.path() + "/data.csv"),
        socket_(work_.path() + "/serve.sock") {}

  int Run();

 private:
  /// One `divexp` audit into `dir` (fresh and empty), with the
  /// workload's flags.
  AuditRun RunAudit(const std::string& dir) {
    AuditRun run;
    run.artifact = dir + "/table.dvt";
    char support[32];
    std::snprintf(support, sizeof(support), "%g", support_);
    const std::vector<std::string> argv = {
        args_.divexp, "--csv", csv_, "--support", support, "--threads",
        std::to_string(workload_.threads), "--shapley", "--global",
        "--corrective", "--save-artifact", run.artifact};
    std::string error;
    const ChildExit exit = launcher_->Run(argv, dir + "/stdout.txt",
                                          dir + "/stderr.txt", &run.wall_s,
                                          &error);
    run.ok = exit.ok;
    run.maxrss_mb = exit.maxrss_mb;
    std::error_code ec;
    const auto bytes = fs::file_size(run.artifact, ec);
    run.artifact_mb = ec ? 0.0 : static_cast<double>(bytes) / 1e6;
    std::cerr << "audit " << dir << ": " << run.wall_s << " s, "
              << run.maxrss_mb << " MB peak\n";
    if (!run.ok) {
      std::cerr << "audit failed (exit " << exit.exit_code << ", signal "
                << exit.term_signal << ") " << error << "; see " << dir
                << "/stderr.txt\n";
    }
    return run;
  }

  /// Serving window number `window`: a fresh daemon over `artifact`,
  /// kWindowRequests requests from the clients, then the daemon is
  /// stopped. The requests and their latencies go into `load`. False if
  /// the daemon did not start.
  bool ServeWindow(const std::string& artifact, const RequestMix& mix,
                   size_t window, LoadResult* load) {
    std::error_code ec;
    fs::remove(socket_, ec);
    std::string error;
    const std::vector<std::string> argv = {
        args_.divexp, "serve", "--table", artifact, "--socket", socket_,
        "--threads", std::to_string(kDaemonThreads)};
    const ServingCpus pin;
    Child daemon;
    if (!daemon.Start(argv, work_.path() + "/serve.out",
                      work_.path() + "/serve.err", true, &error)) {
      std::cerr << error << "\n";
      return false;
    }
    if (!WaitForSocket(socket_, 60.0)) {
      std::cerr << "daemon did not accept on " << socket_ << "\n";
      return false;
    }
    load->Append(RunClosedLoop(socket_, daemon.pid(), pin.cpus(), mix,
                               args_.seed, window * kClients, kClients,
                               kWindowRequests, kMaxServeSeconds));
    const ChildExit exit = daemon.Wait(30.0);
    if (!exit.ok) {
      std::cerr << "daemon exited with " << exit.exit_code << " / signal "
                << exit.term_signal << "\n";
      Count(false);
    }
    return true;
  }

  void Count(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  const Args& args_;
  const Workload& workload_;
  Launcher* const launcher_;
  const double support_;
  WorkDir work_;
  const std::string csv_;
  const std::string socket_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

int Harness::Run() {
  // --- Set-up, timed: the seeded dataset as CSV. Repeated, median.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const divexp::Status written =
        WriteDatasetCsv(workload_.dataset, args_.seed,
                        workload_.population_rows, workload_.sample_rows,
                        csv_);
    if (!written.ok()) {
      std::cerr << "dataset: " << written.ToString() << "\n";
      return 1;
    }
    setup_s.push_back(SecondsSince(t0));
  }
  // Read the CSV once so both commits start from a warm page cache.
  {
    std::ifstream in(csv_, std::ios::binary);
    std::ostringstream sink;
    sink << in.rdbuf();
  }

  // --- Timed e2e pass, tracing off: rounds of an audit, then serving
  // windows over the artifact it wrote, for about --seconds. Another
  // round starts if at least half of it fits, so a run overshoots by at
  // most half a round, or if fewer than kMinRounds have run and time is
  // left. Every audit of a run mines the same CSV, so the request mix is
  // drawn once, from the first artifact.
  std::vector<AuditRun> audits;
  std::unique_ptr<RequestMix> mix;
  LoadResult load;
  size_t windows = 0;
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    audits.push_back(
        RunAudit(work_.Fresh("audit" + std::to_string(audits.size()))));
    const AuditRun& audit = audits.back();
    Count(audit.ok);
    if (audit.ok && mix == nullptr) {
      auto opened = divexp::serve::OpenServingTable(audit.artifact);
      if (!opened.ok()) {
        std::cerr << "open " << audit.artifact << ": "
                  << opened.status().ToString() << "\n";
        return 1;
      }
      mix = std::make_unique<RequestMix>(opened.value().view(), args_.seed);
    }
    for (int w = 0; audit.ok && w < kWindowsPerAudit; ++w) {
      if (!ServeWindow(audit.artifact, *mix, windows++, &load)) return 1;
    }
    const double elapsed = SecondsSince(start);
    const double round = elapsed / static_cast<double>(audits.size());
    const bool fits = elapsed + round / 2 < args_.seconds;
    const bool too_few =
        audits.size() < kMinRounds && elapsed < args_.seconds;
    if (!fits && !too_few) break;
  }
  if (windows == 0) return 1;
  attempted_ += load.attempted;
  failed_ += load.failed;

  // --- Traced pass, in process, after the e2e pass.
  MetricSet layers;
  if (args_.trace == 1) {
    SpanRecorder rec;
    AuditSpec spec;
    spec.csv = csv_;
    spec.support = support_;
    spec.threads = workload_.threads;
    spec.artifact_path = work_.path() + "/traced.dvt";
    double wall_ms = 0.0;
    double coverage = 0.0;
    divexp::Status status =
        ReplayAudit(spec, &rec, &layers, &wall_ms, &coverage);
    if (status.ok()) {
      status = ReplayServe(spec.artifact_path, args_.seed, kClients,
                           kWindowRequests, kMaxServeSeconds, &rec,
                           &layers);
    }
    if (!status.ok()) {
      std::cerr << "traced pass: " << status.ToString() << "\n";
      return 1;
    }
    std::vector<double> untraced;
    for (const AuditRun& a : audits) untraced.push_back(a.wall_s * 1e3);
    layers.Set("trace.coverage", coverage, "ratio");
    layers.Set("trace.overhead_frac", wall_ms / Median(untraced) - 1.0,
               "ratio");
    // Kept after the run, beside the scratch directory.
    const fs::path trace_dir =
        fs::path(args_.work_dir).parent_path() / "traces";
    std::error_code ec;
    fs::create_directories(trace_dir, ec);
    const std::string trace_path =
        (trace_dir / (std::string(workload_.name) + "-s" +
                      std::to_string(args_.seed) + ".json"))
            .string();
    std::ofstream(trace_path) << rec.ChromeTraceJson() << "\n";
    std::cerr << "trace written to " << trace_path << "\n";
    fs::remove(spec.artifact_path, ec);
  }

  // --- Output checks against the ECLAT oracle, outside all timing.
  divexp::Result<divexp::PatternTable> oracle =
      MineOracle(csv_, support_, workload_.threads);
  if (!oracle.ok()) {
    std::cerr << "oracle: " << oracle.status().ToString() << "\n";
    return 1;
  }
  const uint64_t fingerprint = divexp::serve::TableFingerprint(oracle.value());
  for (const AuditRun& a : audits) {
    if (!a.ok) continue;
    auto full = divexp::serve::PatternTableArtifact::Open(
        a.artifact, divexp::serve::ArtifactValidation::kFull);
    if (!full.ok() || full.value()->fingerprint() != fingerprint) {
      std::cerr << "artifact check failed for " << a.artifact << ": "
                << (full.ok() ? "fingerprint differs from the oracle's"
                              : full.status().ToString())
                << "\n";
      ++failed_;
    }
  }
  Oracle expected(&oracle.value());
  size_t mismatches = 0;
  for (const Sample& s : load.samples) {
    if (s.response.rfind("{\"ok\":true", 0) != 0) continue;  // counted
    if (expected.Response(s.request) != s.response) {
      if (mismatches++ == 0) {
        std::cerr << "served answer differs from the oracle's for '"
                  << s.request.line << "'\n";
      }
      ++failed_;
    }
  }
  std::cerr << workload_.name << " seed " << args_.seed << ": "
            << audits.size() << " audit(s), " << load.attempted
            << " queries in " << windows << " window(s), " << load.samples.size() << " checked against "
            << "the oracle (" << mismatches << " mismatched)\n";

  // --- Result.
  MetricSet e2e;
  std::vector<double> audit_s, rss_mb, artifact_mb;
  for (const AuditRun& a : audits) {
    if (!a.ok) continue;
    audit_s.push_back(a.wall_s);
    rss_mb.push_back(a.maxrss_mb);
    artifact_mb.push_back(a.artifact_mb);
  }
  e2e.Set("setup_s", Median(setup_s), "s");
  e2e.Set("audit_s", Median(audit_s), "s");
  e2e.Set("peak_rss_mb", Median(rss_mb), "MB");
  e2e.Set("artifact_mb", Median(artifact_mb), "MB");
  e2e.Set("ok_frac",
          attempted_ == 0 ? 0.0
                          : 1.0 - static_cast<double>(failed_) /
                                      static_cast<double>(attempted_),
          "ratio");
  e2e.Set("lookup_p50_ms", Quantile(load.lookup_ms, 0.5), "ms");
  e2e.Set("lookup_p90_ms", Quantile(load.lookup_ms, 0.9), "ms");
  e2e.Set("scan_p50_ms", Quantile(load.scan_ms, 0.5), "ms");
  e2e.Set("scan_p90_ms", Quantile(load.scan_ms, 0.9), "ms");
  e2e.Set("serve_qps", Median(load.window_qps), "1/s");
  layers.Set("ops.attempted", static_cast<double>(attempted_), "count");
  layers.Set("ops.failed", static_cast<double>(failed_), "count");

  for (const MetricSet::Entry& e : e2e.entries()) {
    std::cerr << "  " << e.name << " = " << e.value << " " << e.unit << "\n";
  }
  const MetricSet& printed = args_.trace == 1 ? layers : e2e;
  std::string json = "{\"correct\": ";
  json += failed_ == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricSet::Entry& e : printed.entries()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    if (!first) json += ", ";
    first = false;
    json += "\"" + e.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            e.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string error;
  if (!perfbench::ParseArgs(argc, argv, &args, &error)) {
    std::cerr << "perfbench_harness: " << error << "\n";
    return 2;
  }
  for (const perfbench::Workload& w : perfbench::kWorkloads) {
    if (args.workload == w.name) {
      perfbench::Launcher launcher;
      if (!launcher.Start(&error)) {
        std::cerr << "perfbench_harness: " << error << "\n";
        return 1;
      }
      perfbench::Harness harness(args, w, &launcher);
      return harness.Run();
    }
  }
  std::cerr << "perfbench_harness: unknown workload " << args.workload
            << "\n";
  return 2;
}
