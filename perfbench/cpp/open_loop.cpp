#include "open_loop.hpp"

#include "parallel/rng.hpp"

namespace perfbench {

namespace {

// Tickets in flight at once; a slot still pending when its turn comes
// round is waited for, which then shows as generator lateness.
constexpr std::size_t kRing = 8192;
// Backlog samples: one per this many sends.
constexpr std::size_t kBacklogEvery = 16;
// Requests of slack before a backlog counts as growing.
constexpr double kBacklogSlack = 8.0;
// Findings kept verbatim; later ones are only counted.
constexpr std::size_t kMaxErrors = 8;

}  // namespace

OpenLoopClient::OpenLoopClient(middlefl::serve::ServingHub& hub,
                         const middlefl::data::Dataset& samples,
                         std::size_t num_classes, std::uint64_t seed,
                         LadderPlan plan, SpanRecorder* spans)
    : hub_(hub),
      samples_(samples),
      num_classes_(num_classes),
      rng_key_(middlefl::parallel::hash_combine(seed, 0x5e77e)),
      plan_(std::move(plan)),
      spans_(spans),
      rungs_(plan_.rates.size()),
      tickets_(std::make_unique<middlefl::serve::ServeTicket[]>(kRing)),
      slots_(kRing),
      last_version_(hub.num_edges(), 0) {
  for (std::size_t r = 0; r < rungs_.size(); ++r) rungs_[r].offered_qps = plan_.rates[r];
}

OpenLoopClient::~OpenLoopClient() { stop(); }

void OpenLoopClient::start() {
  stop_.store(false);
  running_.store(true);
  thread_ = std::thread([this] {
    for (std::size_t r = 0; r < plan_.rates.size(); ++r) {
      if (stop_.load(std::memory_order_relaxed)) break;
      run_rung(r);
    }
    running_.store(false);
  });
}

void OpenLoopClient::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

std::size_t OpenLoopClient::attempted() const {
  std::size_t n = 0;
  for (const RungStats& r : rungs_) n += r.sent;
  return n;
}

std::size_t OpenLoopClient::failed() const {
  std::size_t n = 0;
  for (const RungStats& r : rungs_) n += r.failed;
  return n;
}

void OpenLoopClient::run_rung(std::size_t index) {
  using middlefl::serve::ServeTicket;

  RungStats& rung = rungs_[index];
  const double period_us = 1e6 / plan_.rates[index];
  const double end_us = plan_.seconds[index] * 1e6;
  const std::size_t edges = hub_.num_edges();
  std::vector<double> backlog;
  double last_done_us = 0.0;  // latest completion, since the rung's start
  // Per-request latencies, lateness and spans are kept for the reference
  // rung only; the others keep counts and window p99s.
  const bool reference = index == plan_.reference;
  const Clock::time_point start = Clock::now();
  const double origin_us = spans_ != nullptr ? spans_->to_us(start) : 0.0;
  const std::int64_t rung_span =
      spans_ != nullptr ? spans_->begin("serve.rung") : -1;
  auto since_start = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - start).count();
  };

  auto harvest = [&](std::size_t s) {
    Slot& slot = slots_[s];
    ServeTicket& ticket = tickets_[s];
    ticket.wait();
    slot.live = false;
    const double late = slot.submit_us - slot.due_us;
    const double server = ticket.latency_us();
    const double latency = late + server;
    last_done_us = std::max(last_done_us, slot.due_us + latency);
    if (reference) {
      execution_late_us_.push_back(late);
      execution_server_us_.push_back(server);
    }
    const std::int32_t prediction = ticket.prediction();
    const std::uint64_t version = ticket.model_version();
    const bool in_range =
        prediction >= 0 && static_cast<std::size_t>(prediction) < num_classes_;
    if (in_range && version > 0) {
      ++rung.completed;
      execution_us_.push_back(latency);
    } else {
      ++rung.failed;
      if (errors_.size() < kMaxErrors) {
        errors_.push_back("serve: edge " + std::to_string(slot.edge) +
                          " answered class " + std::to_string(prediction) +
                          " with model version " + std::to_string(version));
      }
    }
    if (version < last_version_[slot.edge] && errors_.size() < kMaxErrors) {
      errors_.push_back("serve: edge " + std::to_string(slot.edge) +
                        " model version went back from " +
                        std::to_string(last_version_[slot.edge]) + " to " +
                        std::to_string(version));
    }
    last_version_[slot.edge] = std::max(last_version_[slot.edge], version);
    if (spans_ != nullptr && reference) {
      spans_->add("serve.request", origin_us + slot.due_us,
                  origin_us + slot.due_us + latency, rung_span, -1, false);
    }
  };

  std::size_t i = 0;
  for (;; ++i) {
    const double due = static_cast<double>(i) * period_us;
    if (due >= end_us || stop_.load(std::memory_order_relaxed)) break;
    const auto due_tp =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::micro>(due));
    // Spin rather than sleep: on a virtualized host a sleeping thread can
    // wake milliseconds late (p99), which would swamp the server's own
    // latency; the client owns one core for exactly this reason.
    while (Clock::now() < due_tp) {
    }
    const std::size_t s = i % kRing;
    if (slots_[s].live) harvest(s);

    const std::uint64_t draw = middlefl::parallel::splitmix64(rng_key_ + ++draws_);
    const std::size_t edge = static_cast<std::size_t>(draw % edges);
    const std::size_t sample = static_cast<std::size_t>((draw >> 20) % samples_.size());
    const Clock::time_point submit = Clock::now();
    ++rung.sent;
    if (!hub_.edge(edge).submit(samples_.features(sample), tickets_[s])) {
      ++rung.failed;
      if (reference) execution_late_us_.push_back(since_start(submit) - due);
      continue;
    }
    slots_[s] = Slot{true, due, since_start(submit), edge};
    if (i % kBacklogEvery == 0) {
      const auto st = hub_.stats();
      backlog.push_back(static_cast<double>(st.submitted - st.served));
    }
  }
  for (std::size_t j = i > kRing ? i - kRing : 0; j < i; ++j) {
    if (slots_[j % kRing].live) harvest(j % kRing);
  }
  if (spans_ != nullptr) spans_->end(rung_span);
  // The achieved rate is measured over the wall time from the first due
  // send to the last answer.
  rung.seconds += last_done_us / 1e6;
  ++rung.executions;
  const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(rung.window_p99_us, window_quantiles(execution_us_, 0.99));
  if (reference) {
    append(rung.window_p50_us, window_quantiles(execution_us_, 0.5));
    append(late_p99s_, window_quantiles(execution_late_us_, 0.99));
    append(server_p99s_, window_quantiles(execution_server_us_, 0.99));
  }
  execution_us_.clear();
  execution_late_us_.clear();
  execution_server_us_.clear();
  if (backlog_grows(backlog, kBacklogSlack)) ++rung.growing_executions;
}

}  // namespace perfbench
