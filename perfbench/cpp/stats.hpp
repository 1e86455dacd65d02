// The benchmark's own arithmetic: percentiles, the tail-sample rule, the
// serve ladder's pass test and span self time. Pure functions, pinned by
// the self-tests in selftest.cpp.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Linear-interpolation quantile (q in [0, 1]) of an ascending sample;
/// 0 for an empty one.
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (rank - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

inline double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, q);
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Samples strictly above the q-quantile's rank in a sample of n.
inline std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const double rank = q * static_cast<double>(n - 1);
  return n - 1 - static_cast<std::size_t>(rank);
}

/// Sample i belongs to lane i % lanes; the median over lanes of each
/// lane's mean (lanes without samples are skipped; 0 when all are empty).
inline double median_of_lane_means(const std::vector<double>& samples, std::size_t lanes) {
  std::vector<double> sum(lanes, 0.0);
  std::vector<double> count(lanes, 0.0);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    sum[i % lanes] += samples[i];
    count[i % lanes] += 1.0;
  }
  std::vector<double> means;
  for (std::size_t l = 0; l < lanes; ++l) {
    if (count[l] > 0.0) means.push_back(sum[l] / count[l]);
  }
  return median(std::move(means));
}

/// Samples per latency window: the fewest that leave ten beyond a p99 (a
/// timing percentile is reported only with at least ten samples beyond it).
inline constexpr std::size_t kWindowSamples = 1000;

/// The q-quantile of each run of kWindowSamples consecutive samples (a
/// shorter tail is dropped). Reported as their median, one host hiccup
/// moves one window, not the figure; and only the window figures are kept,
/// not every sample.
inline std::vector<double> window_quantiles(const std::vector<double>& samples, double q) {
  std::vector<double> out;
  for (std::size_t at = 0; at + kWindowSamples <= samples.size(); at += kWindowSamples) {
    out.push_back(quantile(std::vector<double>(samples.begin() + static_cast<std::ptrdiff_t>(at),
                                               samples.begin() + static_cast<std::ptrdiff_t>(at + kWindowSamples)),
                           q));
  }
  return out;
}

/// One rung of the serve ladder as the open-loop client measured it,
/// accumulated over every time the rung ran.
struct RungStats {
  double offered_qps = 0.0;
  double seconds = 0.0;          // first send -> last answer, all executions
  std::size_t sent = 0;          // requests due in the rung
  std::size_t completed = 0;     // answered, prediction in range
  std::size_t failed = 0;        // rejected, unfinished or out of range
  std::size_t executions = 0;
  std::size_t growing_executions = 0;  // executions whose backlog grew
  /// Per window (see window_quantiles) of every execution: the p99 of the
  /// latency from scheduled send time, and for the reference rung its p50.
  std::vector<double> window_p99_us;
  std::vector<double> window_p50_us;
  double achieved_qps() const {
    return seconds > 0.0 ? static_cast<double>(completed) / seconds : 0.0;
  }
};

/// One execution's backlog series (requests sent and not yet answered,
/// sampled in send order) grows when the mean of its last quarter exceeds
/// 1.5x the second quarter's mean plus `slack` requests. The first quarter
/// is left out: there the queue fills from empty to its steady depth.
/// Series shorter than 8 samples never count as growing.
inline bool backlog_grows(const std::vector<double>& backlog, double slack) {
  const std::size_t n = backlog.size();
  if (n < 8) return false;
  const std::size_t quarter = n / 4;
  double head = 0.0, tail = 0.0;
  for (std::size_t i = 0; i < quarter; ++i) {
    head += backlog[quarter + i];
    tail += backlog[n - 1 - i];
  }
  head /= static_cast<double>(quarter);
  tail /= static_cast<double>(quarter);
  return tail > head * 1.5 + slack;
}

/// A rung passes when nothing failed, its p99 meets `p99_limit_us`, and
/// the backlog grew in at most half its executions (a single stall may
/// swell one execution's queue; a rung above saturation grows in every
/// one). Its p99 is the median of its window p99s, so a host stall moves
/// one window, not the verdict; a rung without a full window fails.
inline bool rung_passes(const RungStats& rung, double p99_limit_us) {
  if (rung.failed != 0 || rung.completed == 0 || rung.window_p99_us.empty()) return false;
  if (median(rung.window_p99_us) > p99_limit_us) return false;
  return rung.growing_executions * 2 <= rung.executions;
}

/// serve_max_qps: the achieved rate of the highest-offered passing rung
/// (rungs in ascending offered order); 0 when none passes.
inline double max_passing_qps(const std::vector<RungStats>& rungs,
                              double p99_limit_us) {
  double best = 0.0;
  for (const RungStats& rung : rungs) {
    if (rung_passes(rung, p99_limit_us)) best = rung.achieved_qps();
  }
  return best;
}

/// Self time of [start, end): its length minus the part the union of the
/// child intervals covers (children clipped to the parent).
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

inline double self_time(Interval parent, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double covered = 0.0;
  double cursor = parent.start;
  for (const Interval& c : children) {
    const double s = std::max(c.start, cursor);
    const double e = std::min(c.end, parent.end);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return (parent.end - parent.start) - covered;
}

}  // namespace perfbench
