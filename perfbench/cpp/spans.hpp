// Benchmark-side spans: recorded around calls into the library's public
// API (never inside it), kept in memory, and written at the end as a
// Chrome trace plus a per-name self-time table.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";  // static storage
  double start_us = 0.0;  // since the recorder's origin
  double end_us = 0.0;
  std::int64_t parent = -1;  // index into the same recorder, -1 = root
  std::int64_t step = -1;    // simulation step, -1 = none
  bool derived = false;      // duration from a library getter, placed by us
};

/// One thread's spans. Not thread-safe: each recording thread owns one.
class SpanRecorder {
 public:
  SpanRecorder(Clock::time_point origin, int tid) : origin_(origin), tid_(tid) {}

  std::int64_t begin(const char* name, std::int64_t parent = -1,
                     std::int64_t step = -1) {
    spans_.push_back(Span{name, now_us(), 0.0, parent, step, false});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void end(std::int64_t id) { spans_[static_cast<std::size_t>(id)].end_us = now_us(); }

  /// A closed span with explicit bounds (derived phase spans, requests).
  std::int64_t add(const char* name, double start_us, double end_us,
                   std::int64_t parent, std::int64_t step, bool derived) {
    spans_.push_back(Span{name, start_us, end_us, parent, step, derived});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  double to_us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  double now_us() const { return to_us(Clock::now()); }

  const Span& span(std::int64_t id) const { return spans_[static_cast<std::size_t>(id)]; }
  const std::vector<Span>& spans() const { return spans_; }
  int tid() const { return tid_; }

 private:
  Clock::time_point origin_;
  int tid_;
  std::vector<Span> spans_;
};

struct SelfTimeRow {
  std::string name;
  std::size_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

/// Per-name totals: span time and self time (span time minus the part of
/// its interval its child spans cover). Sorted by self time, descending.
std::vector<SelfTimeRow> self_time_table(
    const std::vector<const SpanRecorder*>& recorders);

/// Writes every span as a Chrome trace-event ("X") record; returns false
/// when the file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanRecorder*>& recorders);

}  // namespace perfbench
