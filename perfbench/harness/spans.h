// In-memory span recorder for the traced pass. Spans are opened and
// closed from the benchmark's own code around calls into each layer's
// public functions; nothing inside the library is instrumented.
#ifndef PERFBENCH_HARNESS_SPANS_H_
#define PERFBENCH_HARNESS_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;  ///< since the recorder was created
  int64_t end_ns = 0;
  int parent = -1;       ///< index into spans(), -1 = top level
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  /// Opens a span under the innermost open one; returns its index.
  int Begin(const std::string& name);
  void End(int id);

  /// Records an already-finished span under `parent` (used to lay out
  /// the explorer's stage records inside its span).
  int Add(const std::string& name, int64_t start_ns, int64_t end_ns,
          int parent);

  const std::vector<Span>& spans() const { return spans_; }

  double DurationMs(int id) const;
  /// Duration minus the part of its interval that child spans cover.
  double SelfMs(int id) const;
  /// Sum of durations of every span called `name`.
  double TotalMs(const std::string& name) const;
  /// Sum of durations of the top-level spans in [from_ns, to_ns].
  double TopLevelMs(int64_t from_ns, int64_t to_ns) const;

  /// Chrome trace-event JSON ("X" complete events, microseconds), which
  /// chrome://tracing and Perfetto open directly. Each event carries its
  /// parent index and self time in "args".
  std::string ChromeTraceJson() const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder makes it a no-op, so one code path
/// serves both the traced replay and the untraced oracle.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name)
      : rec_(rec), id_(rec != nullptr ? rec->Begin(name) : -1) {}
  ~ScopedSpan() { End(); }
  int id() const { return id_; }
  void End() {
    if (id_ >= 0) rec_->End(id_);
    id_ = -1;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SPANS_H_
