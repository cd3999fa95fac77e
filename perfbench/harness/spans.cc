#include "spans.h"

#include <algorithm>
#include <utility>

#include "obs/json.h"

namespace perfbench {
namespace {

// Length of the union of [start, end) intervals.
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cur_start = 0;
  int64_t cur_end = -1;
  for (const auto& [s, e] : intervals) {
    if (s > cur_end) {
      if (cur_end > cur_start) covered += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (cur_end > cur_start) covered += cur_end - cur_start;
  return covered;
}

std::vector<std::vector<int>> ChildLists(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[spans[i].parent].push_back(static_cast<int>(i));
    }
  }
  return children;
}

double SelfMsWith(const std::vector<Span>& spans,
                  const std::vector<int>& children, int id) {
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (int c : children) {
    intervals.emplace_back(std::max(spans[c].start_ns, spans[id].start_ns),
                           std::min(spans[c].end_ns, spans[id].end_ns));
  }
  const int64_t total = spans[id].end_ns - spans[id].start_ns;
  return static_cast<double>(total - CoveredNs(std::move(intervals))) / 1e6;
}

}  // namespace

int SpanRecorder::Begin(const std::string& name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(
      Span{name, NowNs(), 0, open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  spans_[id].end_ns = NowNs();
  // Spans close in LIFO order; tolerate an out-of-order close by
  // dropping everything opened after `id` from the stack.
  const auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it, open_.end());
}

int SpanRecorder::Add(const std::string& name, int64_t start_ns,
                      int64_t end_ns, int parent) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, start_ns, end_ns, parent});
  return id;
}

double SpanRecorder::DurationMs(int id) const {
  return static_cast<double>(spans_[id].end_ns - spans_[id].start_ns) / 1e6;
}

double SpanRecorder::SelfMs(int id) const {
  std::vector<int> children;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent == id) children.push_back(static_cast<int>(i));
  }
  return SelfMsWith(spans_, children, id);
}

double SpanRecorder::TotalMs(const std::string& name) const {
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += DurationMs(static_cast<int>(i));
  }
  return total;
}

double SpanRecorder::TopLevelMs(int64_t from_ns, int64_t to_ns) const {
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (const Span& s : spans_) {
    if (s.parent >= 0 || s.end_ns < from_ns || s.start_ns > to_ns) continue;
    intervals.emplace_back(std::max(s.start_ns, from_ns),
                           std::min(s.end_ns, to_ns));
  }
  return static_cast<double>(CoveredNs(std::move(intervals))) / 1e6;
}

std::string SpanRecorder::ChromeTraceJson() const {
  const std::vector<std::vector<int>> children = ChildLists(spans_);
  divexp::obs::JsonWriter json;
  json.BeginObject().Key("displayTimeUnit").Value("ms");
  json.Key("traceEvents").BeginArray();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    json.BeginObject()
        .Key("name")
        .Value(s.name)
        .Key("cat")
        .Value(s.name.substr(0, s.name.find('.')))
        .Key("ph")
        .Value("X")
        .Key("ts")
        .Value(static_cast<double>(s.start_ns) / 1e3)
        .Key("dur")
        .Value(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        .Key("pid")
        .Value(static_cast<uint64_t>(1))
        .Key("tid")
        .Value(static_cast<uint64_t>(1))
        .Key("args")
        .BeginObject()
        .Key("id")
        .Value(static_cast<uint64_t>(i))
        .Key("parent")
        .Value(static_cast<int64_t>(s.parent))
        .Key("self_ms")
        .Value(SelfMsWith(spans_, children[i], static_cast<int>(i)))
        .EndObject()
        .EndObject();
  }
  json.EndArray().EndObject();
  return json.str();
}

}  // namespace perfbench
