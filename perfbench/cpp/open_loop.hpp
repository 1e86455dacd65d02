// The benchmark's open-loop serve client over EdgeServer::submit /
// ServeTicket. Requests go out on a fixed schedule whatever the server
// does (independent users); each one is timed from its scheduled send
// time, so a stall that delays later sends shows up in their latency, and
// the generator's own lateness (actual minus scheduled send) is reported
// separately. serve::LoadGenerator times from server enqueue instead,
// which hides queueing behind a stalled sender.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "serve/serving.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

struct LadderPlan {
  std::vector<double> rates;    // offered req/s, ascending
  std::vector<double> seconds;  // length of one execution of each rung
  /// Index of the rung whose latency is reported: its p50 and p99 as the
  /// medians of its windows' p50s and p99s (window_quantiles).
  std::size_t reference = 0;
  double p99_limit_us = 0.0;
};

class OpenLoopClient {
 public:
  /// `spans` (may be null) receives one span per rung execution and one
  /// per reference-rung request; only the client thread writes it while it runs.
  OpenLoopClient(middlefl::serve::ServingHub& hub,
              const middlefl::data::Dataset& samples, std::size_t num_classes,
              std::uint64_t seed, LadderPlan plan, SpanRecorder* spans);
  ~OpenLoopClient();
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  /// Runs the ladder once, rung by rung, on a background thread.
  /// running() turns false when it is done; stop() joins the thread.
  void start();
  bool running() const { return running_.load(); }
  void stop();

  const LadderPlan& plan() const { return plan_; }
  const std::vector<RungStats>& rungs() const { return rungs_; }
  /// Window p99s, over the reference rung's requests, of the generator's
  /// lateness (actual minus scheduled send time) and of the ticket's
  /// enqueue -> completion time.
  const std::vector<double>& generator_late_p99s() const { return late_p99s_; }
  const std::vector<double>& server_latency_p99s() const { return server_p99s_; }
  std::size_t attempted() const;
  std::size_t failed() const;
  /// Correctness findings (prediction out of range, an edge's model
  /// version going backwards, no model served); empty when clean.
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  struct Slot {
    bool live = false;
    double due_us = 0.0;     // since the rung's start
    double submit_us = 0.0;  // since the rung's start
    std::size_t edge = 0;
  };

  void run_rung(std::size_t index);

  middlefl::serve::ServingHub& hub_;
  const middlefl::data::Dataset& samples_;
  const std::size_t num_classes_;
  const std::uint64_t rng_key_;  // edge and sample draws: hash(key + n)
  std::uint64_t draws_ = 0;
  const LadderPlan plan_;
  SpanRecorder* spans_;
  std::vector<RungStats> rungs_;
  std::unique_ptr<middlefl::serve::ServeTicket[]> tickets_;  // the ring
  std::vector<Slot> slots_;
  // The running execution's latencies, and the reference rung's lateness
  // and server times.
  std::vector<double> execution_us_;
  std::vector<double> execution_late_us_;
  std::vector<double> execution_server_us_;
  std::vector<double> late_p99s_;
  std::vector<double> server_p99s_;
  std::vector<std::uint64_t> last_version_;  // per edge, in send order
  std::vector<std::string> errors_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::thread thread_;  // last: joined before the members above die
};

}  // namespace perfbench
