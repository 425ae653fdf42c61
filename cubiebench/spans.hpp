#pragma once
// Cubie-Bench span recorder: in-memory spans (layer, name, start, end,
// parent, thread) around the public calls the benchmark makes into each
// cubie layer. Spans stay in memory while the benchmark runs and are
// written out once at the end, as Chrome trace_event JSON
// (chrome://tracing, Perfetto).
//
// A Scope always times its interval (untraced runs use the same code path
// for their own stopwatches); it records a span only when the log is
// enabled. Layer self time is a span's duration minus the time its child
// spans cover, summed per layer over the main thread's spans; the part of
// the traced wall no top-level span covers is reported as "unattributed".

#include "common/report.hpp"

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace cubiebench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class SpanLog {
 public:
  struct Span {
    std::string layer;
    std::string name;
    double start_s = 0.0;  // since the log's origin
    double end_s = -1.0;   // < 0 while open
    int parent = -1;       // index of the enclosing span on the same thread
    int tid = 0;           // 0 = the main thread
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }
  double now_s() const { return seconds_since(origin_); }

  // Open a span on thread `tid`, nested under that thread's innermost open
  // span. Returns its index, or -1 when the log is disabled.
  int open(int tid, std::string layer, std::string name) {
    if (!enabled_) return -1;
    const double t = now_s();
    std::lock_guard<std::mutex> lock(mu_);
    auto& stack = stacks_[tid];
    spans_.push_back(Span{std::move(layer), std::move(name), t, -1.0,
                          stack.empty() ? -1 : stack.back(), tid});
    stack.push_back(static_cast<int>(spans_.size()) - 1);
    return stack.back();
  }

  void close(int id) {
    if (id < 0) return;
    const double t = now_s();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_s = t;
    auto& stack = stacks_[spans_[static_cast<std::size_t>(id)].tid];
    if (!stack.empty() && stack.back() == id) stack.pop_back();
  }

  // Time on the main thread that belongs to no traced work (the untraced
  // reference iteration a traced run times for its overhead figure). It is
  // excluded from the traced wall.
  void exclude(double seconds) { excluded_s_ += seconds; }

  // Snapshot of every span (call once recording has finished).
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  struct Accounting {
    double wall_s = 0.0;           // traced wall (origin .. now - excluded)
    std::map<std::string, double> self_s;  // per layer, main thread only
    double unattributed_s = 0.0;   // wall not covered by a top-level span
    std::size_t spans = 0;
  };

  Accounting account() const {
    Accounting a;
    a.wall_s = now_s() - excluded_s_;
    const auto all = spans();
    a.spans = all.size();
    std::vector<double> child_s(all.size(), 0.0);
    for (const auto& s : all)
      if (s.parent >= 0 && s.end_s >= 0)
        child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    double top_s = 0.0;
    for (std::size_t i = 0; i < all.size(); ++i) {
      const auto& s = all[i];
      if (s.tid != 0 || s.end_s < 0) continue;
      const double dur = s.end_s - s.start_s;
      a.self_s[s.layer] += dur - child_s[i];
      if (s.parent < 0) top_s += dur;
    }
    a.unattributed_s = a.wall_s - top_s;
    return a;
  }

  // Chrome trace_event document: one complete ("X") event per span, the
  // layer as its category, `meta` under "metadata".
  cubie::report::Json chrome_trace(cubie::report::Json meta) const {
    using cubie::report::Json;
    Json events = Json::array();
    const auto all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
      const auto& s = all[i];
      if (s.end_s < 0) continue;
      Json e = Json::object();
      e["name"] = Json::string(s.name);
      e["cat"] = Json::string(s.layer);
      e["ph"] = Json::string("X");
      e["ts"] = Json::number(s.start_s * 1e6);
      e["dur"] = Json::number((s.end_s - s.start_s) * 1e6);
      e["pid"] = Json::number(1);
      e["tid"] = Json::number(s.tid);
      Json args = Json::object();
      args["id"] = Json::number(static_cast<double>(i));
      args["parent"] = Json::number(s.parent);
      e["args"] = std::move(args);
      events.push_back(std::move(e));
    }
    Json doc = Json::object();
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = Json::string("ms");
    doc["metadata"] = std::move(meta);
    return doc;
  }

 private:
  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  double excluded_s_ = 0.0;  // main thread only
  mutable std::mutex mu_;    // guards spans_ and stacks_
  std::vector<Span> spans_;
  std::map<int, std::vector<int>> stacks_;  // open spans per thread
};

// Times one interval and, when the log is enabled, records it as a span.
class Scope {
 public:
  Scope(SpanLog& log, std::string layer, std::string name, int tid = 0)
      : log_(log), id_(log.open(tid, std::move(layer), std::move(name))) {}
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  // End the interval (idempotent); returns its length in seconds.
  double stop() {
    if (!stopped_) {
      elapsed_s_ = seconds_since(t0_);
      log_.close(id_);
      stopped_ = true;
    }
    return elapsed_s_;
  }

 private:
  SpanLog& log_;
  const int id_;
  const Clock::time_point t0_ = Clock::now();
  bool stopped_ = false;
  double elapsed_s_ = 0.0;
};

}  // namespace cubiebench
