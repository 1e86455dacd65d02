// Self-tests of the benchmark's own arithmetic and of the decorators'
// exact forwarding. Every run executes them first; `--self-test` runs
// only them.
#include "selftest.hpp"

#include <cmath>
#include <iostream>
#include <string>

#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct Checker {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void near(double got, double want, const std::string& what) {
    expect(std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want)),
           what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
  }
};

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // unsorted
  return v;
}

void percentiles(Checker& c) {
  c.near(median({3.0, 1.0, 2.0}), 2.0, "median of 3");
  c.near(median({4.0, 1.0, 2.0, 3.0}), 2.5, "median of 4 interpolates");
  c.near(quantile(ramp(101), 0.9), 91.0, "p90 of 1..101");
  // Ten samples beyond p99 need about a thousand samples.
  c.expect(samples_beyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  c.expect(samples_beyond(900, 0.99) == 9, "900 samples leave 9 beyond p99");
  c.near(quantile(ramp(1000), 0.99), 990.01, "p99 of 1..1000");
  c.expect(samples_beyond(20, 0.5) == 10, "20 samples leave 10 beyond p50");
  c.expect(samples_beyond(19, 0.5) == 9, "19 samples leave 9 beyond p50");
  c.expect(samples_beyond(kWindowSamples, 0.99) >= 10, "a window leaves ten samples beyond p99");
  // Lanes {1, 5}, {2, 6}, {3, 7}, {9}: means 3, 4, 5, 9.
  c.near(median_of_lane_means({1, 2, 3, 9, 5, 6, 7}, 4), 4.5, "median of lane means");
  c.near(median_of_lane_means({}, 4), 0.0, "no lanes with samples");
  const std::vector<double> windows = window_quantiles(ramp(2500), 0.99);
  c.expect(windows.size() == 2, "2500 samples make two full windows");
  if (windows.size() == 2) {
    c.near(windows[0], 2490.01, "p99 of the first window (2500..1501)");
    c.near(windows[1], 1490.01, "p99 of the second window (1500..501)");
  }
  c.near(window_quantiles(ramp(2500), 0.5).at(1), 1000.5, "p50 of the second window");
}

void self_times(Checker& c) {
  c.near(self_time({0, 100}, {}), 100.0, "self time without children");
  c.near(self_time({0, 100}, {{10, 30}, {20, 50}, {90, 120}}), 50.0,
         "overlapping and overrunning children");
  c.near(self_time({0, 100}, {{40, 60}, {0, 10}}), 70.0, "unordered children");
  c.near(self_time({0, 100}, {{-20, 200}}), 0.0, "a child covering the parent");
}

// A rung run four times for 0.5 s each, every window's p99 `p99_us`.
RungStats rung(double qps, double p99_us, std::size_t failed, std::size_t growing) {
  RungStats r;
  r.offered_qps = qps;
  r.seconds = 2.0;
  r.completed = static_cast<std::size_t>(qps * 2.0);
  r.sent = r.completed + failed;
  r.failed = failed;
  r.window_p99_us.assign(r.completed / kWindowSamples, p99_us);
  r.executions = 4;
  r.growing_executions = growing;
  return r;
}

void ladder(Checker& c) {
  c.expect(!backlog_grows({1, 2, 1, 2, 1, 2, 1, 2}, 8.0), "a flat backlog does not grow");
  c.expect(backlog_grows({0, 1, 2, 4, 8, 16, 32, 64}, 8.0), "a doubling backlog grows");
  c.expect(!backlog_grows({0, 50, 100}, 8.0), "three samples never count");
  c.expect(!backlog_grows({0, 0, 40, 40, 40, 40, 40, 40}, 8.0),
           "a queue filling in the first quarter does not grow");
  const double limit = 1000.0;
  c.expect(rung_passes(rung(1000, 100, 0, 0), limit), "a clean rung passes");
  c.expect(!rung_passes(rung(1000, 100, 1, 0), limit), "a failed request fails the rung");
  c.expect(!rung_passes(rung(1000, 2000, 0, 0), limit), "p99 over the limit fails");
  c.expect(rung_passes(rung(1000, 100, 0, 2), limit), "growth in half the executions passes");
  c.expect(!rung_passes(rung(1000, 100, 0, 3), limit), "growth in most executions fails");
  c.expect(!rung_passes(rung(100, 100, 0, 0), limit), "a rung without a full window fails");
  RungStats stalled = rung(2000, 100, 0, 0);
  stalled.window_p99_us[0] = 1e6;
  c.expect(rung_passes(stalled, limit), "one stalled window of four does not fail the rung");
  stalled.window_p99_us[1] = stalled.window_p99_us[2] = 1e6;
  c.expect(!rung_passes(stalled, limit), "most windows over the limit fail the rung");
  c.near(max_passing_qps({rung(1000, 100, 0, 0), rung(2000, 100, 0, 0), rung(4000, 5000, 0, 0)},
                         limit),
         2000.0, "max qps stops below the failing rung");
  c.near(max_passing_qps({rung(1000, 5000, 0, 0), rung(2000, 100, 0, 0)}, limit), 2000.0,
         "the highest passing rung wins");
  c.near(max_passing_qps({rung(1000, 5000, 0, 0)}, limit), 0.0, "no passing rung gives 0");
}

}  // namespace

std::vector<std::string> run_self_tests() {
  Checker c;
  percentiles(c);
  self_times(c);
  ladder(c);
  const std::string forward = check_decorators_forward();
  c.expect(forward.empty(), "decorator forwarding: " + forward);
  return c.failures;
}

}  // namespace perfbench
