// Timing and counting wrappers installed only in the traced run. Each one
// plugs into a seam core::Simulation or serve::ServingHub already accepts
// (MobilityModel, SelectionStrategy, Optimizer prototype, EdgeModelSink,
// StepObserver) and forwards every call unchanged, so a decorated run is
// bitwise identical to a bare one (pinned by the self-test and by the
// traced-vs-untraced hash gate).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/selection.hpp"
#include "core/serving_config.hpp"
#include "core/step_observer.hpp"
#include "mobility/mobility_model.hpp"
#include "optim/optimizer.hpp"

namespace perfbench {

namespace mf = middlefl;

/// Nanoseconds and calls accumulated across threads.
struct CallTally {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};

  void add(std::chrono::steady_clock::time_point since) {
    const auto d = std::chrono::steady_clock::now() - since;
    ns.fetch_add(static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(d).count()),
                 std::memory_order_relaxed);
    calls.fetch_add(1, std::memory_order_relaxed);
  }
  double us() const { return static_cast<double>(ns.load()) / 1000.0; }
};

class TimedMobility final : public mf::mobility::MobilityModel {
 public:
  explicit TimedMobility(std::unique_ptr<mf::mobility::MobilityModel> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  std::size_t num_devices() const override { return inner_->num_devices(); }
  std::size_t num_edges() const override { return inner_->num_edges(); }
  const std::vector<std::size_t>& assignment() const override {
    return inner_->assignment();
  }
  void advance() override {
    const auto t0 = std::chrono::steady_clock::now();
    inner_->advance();
    advance_.add(t0);
    if (const auto* m = inner_->movers()) movers_ += m->size();
  }
  const std::vector<std::size_t>* movers() const override { return inner_->movers(); }
  void set_pool(mf::parallel::ThreadPool* pool) override { inner_->set_pool(pool); }
  void reset() override { inner_->reset(); }
  std::size_t step() const override { return inner_->step(); }

  const CallTally& advance_tally() const { return advance_; }
  std::uint64_t movers_total() const { return movers_; }

 private:
  std::unique_ptr<mf::mobility::MobilityModel> inner_;
  CallTally advance_;
  std::uint64_t movers_ = 0;  // advance() is serial
};

class TimedSelection final : public mf::core::SelectionStrategy {
 public:
  TimedSelection(std::unique_ptr<mf::core::SelectionStrategy> inner,
                 std::shared_ptr<CallTally> tally)
      : inner_(std::move(inner)), tally_(std::move(tally)) {}

  std::string name() const override { return inner_->name(); }
  bool needs_params() const noexcept override { return inner_->needs_params(); }
  bool needs_metadata() const noexcept override { return inner_->needs_metadata(); }
  std::vector<std::size_t> select(
      std::span<const mf::core::Candidate> candidates,
      std::span<const float> cloud_params, std::size_t k,
      mf::parallel::Xoshiro256& rng,
      const mf::core::SelectionContext& context) const override {
    const auto t0 = std::chrono::steady_clock::now();
    auto ids = inner_->select(candidates, cloud_params, k, rng, context);
    tally_->add(t0);
    return ids;
  }
  std::vector<std::size_t> select_ids(std::span<const std::size_t> ids,
                                      std::size_t k,
                                      mf::parallel::Xoshiro256& rng) const override {
    const auto t0 = std::chrono::steady_clock::now();
    auto out = inner_->select_ids(ids, k, rng);
    tally_->add(t0);
    return out;
  }

 private:
  std::unique_ptr<mf::core::SelectionStrategy> inner_;
  std::shared_ptr<CallTally> tally_;
};

/// Optimizer prototype wrapper: every clone_config() stays wrapped and
/// shares the tally, so each pooled device runtime's step() is timed.
class TimedOptimizer final : public mf::optim::Optimizer {
 public:
  TimedOptimizer(std::unique_ptr<mf::optim::Optimizer> inner,
                 std::shared_ptr<CallTally> tally)
      : inner_(std::move(inner)), tally_(std::move(tally)) {}

  std::string name() const override { return inner_->name(); }
  void step(std::span<float> params, std::span<const float> grads) override {
    const auto t0 = std::chrono::steady_clock::now();
    inner_->step(params, grads);
    tally_->add(t0);
  }
  void reset() override { inner_->reset(); }
  double learning_rate() const noexcept override { return inner_->learning_rate(); }
  void set_learning_rate(double lr) noexcept override { inner_->set_learning_rate(lr); }
  std::unique_ptr<mf::optim::Optimizer> clone_config() const override {
    return std::make_unique<TimedOptimizer>(inner_->clone_config(), tally_);
  }
  void save_state(std::vector<float>& out) const override { inner_->save_state(out); }
  void load_state(std::span<const float> state) override { inner_->load_state(state); }

 private:
  std::unique_ptr<mf::optim::Optimizer> inner_;
  std::shared_ptr<CallTally> tally_;
};

/// Counts edge-model publications on their way to the serving hub.
class CountingSink final : public mf::core::EdgeModelSink {
 public:
  explicit CountingSink(mf::core::EdgeModelSink& inner) : inner_(inner) {}
  void on_edge_model(std::size_t edge, const mf::core::Snapshot& model) override {
    publishes_.fetch_add(1, std::memory_order_relaxed);
    inner_.on_edge_model(edge, model);
  }
  std::uint64_t publishes() const { return publishes_.load(); }

 private:
  mf::core::EdgeModelSink& inner_;
  std::atomic<std::uint64_t> publishes_{0};
};

/// Rebuilds counters from the step event stream; attached in every run
/// (events fire at serial points, a few virtual calls per step) so the
/// async and link-byte cross-checks run on untraced runs too.
class EventCounter final : public mf::core::StepObserver {
 public:
  std::uint64_t link_bytes[6] = {};
  std::uint64_t link_transfers[6] = {};
  std::uint64_t contributing_sum = 0;
  std::uint64_t cloud_syncs = 0;

  void on_transfers(mf::core::StepPhase, mf::transport::LinkKind kind,
                    const mf::transport::LinkStats& delta, std::size_t) override {
    const auto i = static_cast<std::size_t>(kind);
    link_bytes[i] += delta.bytes;
    link_transfers[i] += delta.transfers;
  }
  void on_cloud_sync(std::size_t, std::size_t contributing_edges) override {
    contributing_sum += contributing_edges;
    ++cloud_syncs;
  }
};

}  // namespace perfbench
