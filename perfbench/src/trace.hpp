// In-memory span recorder for the traced run.
//
// The benchmark wraps each call it makes into a valpipe module in a Scope;
// a span records the call's name, start, end, the span open around it
// (parent) and the id of the figure, program or session it served.  Spans
// stay in memory until the run ends, then go to a Chrome trace file.  With
// tracing off a Scope does nothing but test one flag.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  const char* name = "";  ///< "<layer>.<call>", a string literal
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 at top
  std::uint64_t op = 0;      ///< figure / program / session id
};

/// Single-threaded: every span of a run is opened and closed on the thread
/// that drives the workload.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  bool on() const { return on_; }
  void setOn(bool on) { on_ = on; }

  std::int32_t begin(const char* name, std::uint64_t op) {
    Span s;
    s.name = name;
    s.startNs = nowNs();
    s.parent = open_.empty() ? -1 : open_.back();
    s.op = op;
    spans_.push_back(s);
    const auto id = static_cast<std::int32_t>(spans_.size() - 1);
    open_.push_back(id);
    return id;
  }

  void end(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].endNs = nowNs();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: total duration in seconds.
  std::map<std::string, double> totals() const;
  /// Per layer (the name up to the first '.'): total self time in seconds,
  /// a span's duration less the part its child spans cover.
  std::map<std::string, double> layerSelf() const;

  /// Writes every span as a Chrome trace ("X" events, microseconds).
  bool writeChromeTrace(const std::string& path) const;

 private:
  std::int64_t toNs(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  std::int64_t nowNs() const { return toNs(Clock::now()); }

  Clock::time_point origin_;
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a no-op while the tracer is off.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::uint64_t op)
      : t_(t), id_(t.on() ? t.begin(name, op) : -1) {}
  ~Scope() {
    if (id_ >= 0) t_.end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::int32_t id_;
};

}  // namespace perfbench
