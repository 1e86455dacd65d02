#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bench_common.hpp"
#include "decorators.hpp"
#include "obs/metrics_registry.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/serving.hpp"
#include "open_loop.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

namespace mf = middlefl;
namespace core = middlefl::core;

// Both workloads train on the serial path. fig6_middle is dominated by
// local training; async_straggler is the one where the comm mailbox and
// staleness path and the transport latency queues and codecs do real
// work. Training on a 2-worker pool beside serving (serve_under_train) is
// not a workload: over ten runs on a shared 4-core VM its training rate
// spread 0.27 of its median, against 0.07-0.15 on the serial path.
struct Spec {
  bool async_cloud;          // async_straggler
  std::size_t horizon;       // steps per training episode
  std::size_t eval_every;
  double target;             // time-to-accuracy target
  std::size_t min_episodes;  // episodes the deterministic metrics use
};

Spec spec_for(const std::string& name) {
  if (name == "fig6_middle") return {false, 200, 10, 0.5, 24};
  if (name == "async_straggler") return {true, 250, 10, 0.5, 24};
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// Set-ups timed after every training episode of an untraced run (see
// setup_seconds).
constexpr std::size_t kSetupLanes = 4;

// The serve ladder: a reference rung at 8000 req/s, whose latency is
// reported (each 1 s execution holds eight 1000-sample p99 windows),
// then capacity rungs from 2^19 to 2^22 req/s, a factor 2^(1/8) apart,
// that bracket the saturation of the drains on a 2-worker pool shared with
// training (1.5-1.7M single-sample req/s on a 4-core x86 VM; the single
// client thread is near its own limit there). Below saturation the window
// p99 is about 3 ms (requests queue behind training tasks); past it, it
// climbs by several ms per rung as the sender falls behind. A rung passes
// at a median window p99 of 5 ms. Traced runs serve kServeCycles ladder
// cycles between training episodes (see run_pass).
constexpr std::size_t kServeCycles = 10;
// Workers of the pool serving runs on.
constexpr std::size_t kServePool = 2;
// Episode index (seeds) of the simulation trained while serving.
constexpr std::size_t kServeEpisode = 1000;

LadderPlan ladder() {
  LadderPlan plan;
  plan.rates = {8000.0};
  plan.seconds = {1.0};
  for (int step = 0; step <= 24; ++step) {
    plan.rates.push_back(std::ldexp(1.0, 19) * std::pow(2.0, step / 8.0));
    plan.seconds.push_back(0.01);
  }
  plan.reference = 0;
  plan.p99_limit_us = 5000.0;
  return plan;
}

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

std::uint64_t fnv1a(std::span<const float> values) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size_bytes(); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Inputs: everything generated before any simulation exists. The task's
// data, its partition over devices and the devices' home edges are a fixed
// benchmark dataset (seeded with kDataSeed, as MNIST is fixed in the
// paper); --seed drives every random choice of a run: model init,
// selection, batch sampling, mobility and the serve request stream. With
// the data varying too, the time-to-accuracy spread across seeds is the
// spread across datasets, wider than any bound worth having.
constexpr std::uint64_t kDataSeed = 42;

// The paper's Fig-6 fast-scale MIDDLE MNIST setup: 10 edges, 30 devices,
// K = 3, I = 10, T_c = 10, P = 0.5 home-ring.
std::unique_ptr<mf::bench::TaskSetup> build_inputs(const Spec& spec, std::uint64_t seed) {
  mf::bench::BenchOptions options;
  options.seed = kDataSeed;
  options.mobility = 0.5;
  options.cloud_interval = 10;
  auto in = std::make_unique<mf::bench::TaskSetup>(
      mf::bench::make_task_setup(mf::data::TaskKind::kMnist, options));
  core::SimulationConfig& cfg = in->sim_cfg;
  cfg.seed = seed;
  cfg.eval_edges = false;
  if (spec.async_cloud) {
    // bench/async_sync's async arm: a 1-step WAN uplink, top-k 0.1 on the
    // device broadcast, semi-async cloud sync with max_staleness 1.
    cfg.transport.wan_up.latency_steps = 1;
    cfg.transport.broadcast.compression.kind = mf::transport::CompressionKind::kTopK;
    cfg.transport.broadcast.compression.top_k_fraction = 0.1;
    cfg.comm.async_cloud = true;
    cfg.comm.max_staleness = 1;
  }
  return in;
}

// Handles into the traced run's decorators (all null/empty when bare).
struct Decor {
  std::shared_ptr<CallTally> select;
  std::shared_ptr<CallTally> optim;
  TimedMobility* mobility = nullptr;  // owned by the simulation
};

// Episodes shift the mobility and simulation seeds over the same data,
// exactly as bench::make_simulation's repeats do.
std::unique_ptr<core::Simulation> make_sim(const mf::bench::TaskSetup& in, std::size_t episode,
                                           std::size_t horizon,
                                           mf::parallel::ThreadPool* pool,
                                           Decor* decor) {
  auto markov = std::make_unique<mf::mobility::MarkovMobility>(
      in.initial_edges, in.num_edges, 0.5, in.sim_cfg.seed + 101 + 7919 * episode);
  markov->set_topology(mf::mobility::MoveTopology::kHomeRing, 0.5);
  std::unique_ptr<mf::mobility::MobilityModel> mobility = std::move(markov);
  core::SimulationConfig cfg = in.sim_cfg;
  cfg.seed = in.sim_cfg.seed + 104729 * episode;
  cfg.total_steps = horizon;
  cfg.parallel_devices = pool != nullptr;
  cfg.pool = pool;
  core::AlgorithmSpec algorithm = core::make_algorithm(core::Algorithm::kMiddle);
  const mf::optim::Optimizer* optimizer = in.optimizer.get();
  std::unique_ptr<mf::optim::Optimizer> timed_optimizer;
  if (decor != nullptr) {
    auto timed = std::make_unique<TimedMobility>(std::move(mobility));
    decor->mobility = timed.get();
    mobility = std::move(timed);
    algorithm.selection =
        std::make_unique<TimedSelection>(std::move(algorithm.selection), decor->select);
    timed_optimizer = std::make_unique<TimedOptimizer>(optimizer->clone_config(), decor->optim);
    optimizer = timed_optimizer.get();
  }
  return std::make_unique<core::Simulation>(cfg, in.model_spec, *optimizer, *in.train,
                                            in.partition, *in.test, std::move(mobility),
                                            std::move(algorithm));
}

// ---------------------------------------------------------------------------
// Per-layer accumulation (traced runs).

struct Layers {
  double phase_us[8] = {};  // StepPhaseUs field order
  double wall_us = 0.0;
  double sync_cloud_us = 0.0;
  std::size_t steps = 0;
  std::size_t syncs = 0;
  double eval_ms = 0.0;
  std::size_t evals = 0;
  double mobility_us = 0.0;
  double movers = 0.0;
  double select_us = 0.0;
  double select_calls = 0.0;
  double optim_us = 0.0;
  double optim_steps = 0.0;
  double cache_hits = 0.0;
  double cache_lookups = 0.0;
  double blends = 0.0;
  double link_bytes[6] = {};
  double transfers = 0.0;
  double dropped = 0.0;
  double reduces = 0.0;
  double async_published = 0.0;
  double async_applied = 0.0;
  double async_dropped_stale = 0.0;
  double device_broadcasts = 0.0;
  double materializations = 0.0;
  double resident_peak = 0.0;
  double delta_bytes_at_rest = 0.0;
};

void add_phases(Layers& layers, const core::Simulation::StepPhaseUs& p, double wall_us,
                bool synced) {
  const double v[8] = {p.mobility, p.membership, p.select, p.distribute,
                       p.local_train, p.upload, p.edge_aggregate, p.cloud_sync};
  for (int i = 0; i < 8; ++i) layers.phase_us[i] += v[i];
  layers.wall_us += wall_us;
  ++layers.steps;
  if (synced) {
    ++layers.syncs;
    layers.sync_cloud_us += p.cloud_sync;
  }
}

// Whole-episode counters, read from public getters once the episode ends.
void add_counters(Layers& layers, const core::Simulation& sim, const Decor& decor) {
  layers.mobility_us += decor.mobility->advance_tally().us();
  layers.select_us += decor.select->us();
  layers.select_calls += static_cast<double>(decor.select->calls.load());
  layers.optim_us += decor.optim->us();
  layers.optim_steps += static_cast<double>(decor.optim->calls.load());
  layers.movers += static_cast<double>(decor.mobility->movers_total());
  layers.cache_hits += static_cast<double>(sim.similarity_cache().hits());
  layers.cache_lookups += static_cast<double>(sim.similarity_cache().hits() +
                                              sim.similarity_cache().misses());
  layers.blends += static_cast<double>(sim.on_device_aggregations());
  for (const auto& link : sim.transport().bytes_by_link()) {
    layers.link_bytes[static_cast<std::size_t>(link.kind)] +=
        static_cast<double>(link.stats.bytes);
    layers.transfers += static_cast<double>(link.stats.transfers);
    layers.dropped += static_cast<double>(link.stats.dropped);
  }
  layers.reduces += static_cast<double>(sim.comm_reduce_counters().reduces);
  layers.async_published += static_cast<double>(sim.async_stats().published);
  layers.async_applied += static_cast<double>(sim.async_stats().applied);
  layers.async_dropped_stale += static_cast<double>(sim.async_stats().dropped_stale);
  layers.device_broadcasts += static_cast<double>(sim.comm_stats().device_broadcasts);
  layers.materializations += static_cast<double>(sim.fleet().materializations());
  layers.resident_peak =
      std::max(layers.resident_peak, static_cast<double>(sim.fleet().resident_peak()));
  layers.delta_bytes_at_rest = std::max(layers.delta_bytes_at_rest,
                                        static_cast<double>(sim.fleet().delta_bytes_at_rest()));
}

// ---------------------------------------------------------------------------
// One training episode.

struct Episode {
  std::vector<double> step_ms;  // steps where step() returned false
  std::vector<double> sync_ms;  // steps where it returned true
  double step_s = 0.0;          // summed step wall time
  std::size_t steps = 0;
  std::optional<std::size_t> target_step;
  std::vector<double> accuracy;  // at each evaluation (every eval_every)
  std::vector<double> eval_end_s;  // first step -> end of that evaluation
  double final_accuracy = 0.0;  // eval at the horizon
  std::uint64_t hash = 0;       // cloud parameters at the episode's end
};

struct Tracing {
  SpanRecorder* spans = nullptr;
  Layers* layers = nullptr;
};

// Runs `horizon` steps with an evaluation every eval_every.
Episode run_episode(core::Simulation& sim, const Spec& spec, const Tracing& tr) {
  Episode ep;
  const std::int64_t ep_span = tr.spans ? tr.spans->begin("episode") : -1;
  const Clock::time_point start = Clock::now();
  for (std::size_t t = 1; t <= spec.horizon; ++t) {
    const std::int64_t span =
        tr.spans ? tr.spans->begin("step", ep_span, static_cast<std::int64_t>(t)) : -1;
    const Clock::time_point t0 = Clock::now();
    const bool synced = sim.step();
    const Clock::time_point t1 = Clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    (synced ? ep.sync_ms : ep.step_ms).push_back(ms);
    ep.step_s += ms / 1000.0;
    ++ep.steps;
    if (tr.spans) {
      tr.spans->end(span);
      add_phases(*tr.layers, sim.last_step_phase_us(), ms * 1000.0, synced);
      // Phase durations come from last_step_phase_us(); they are laid end
      // to end from the step's start (their true placement inside the
      // step is not observable from outside the library).
      static const char* const kPhaseNames[8] = {
          "phase.mobility", "phase.membership", "phase.select", "phase.distribute",
          "phase.local_train", "phase.upload", "phase.edge_aggregate", "phase.cloud_sync"};
      const auto& p = sim.last_step_phase_us();
      const double v[8] = {p.mobility, p.membership, p.select, p.distribute,
                           p.local_train, p.upload, p.edge_aggregate, p.cloud_sync};
      double cursor = tr.spans->span(span).start_us;
      for (int i = 0; i < 8; ++i) {
        if (v[i] <= 0.0) continue;
        tr.spans->add(kPhaseNames[i], cursor, cursor + v[i], span,
                      static_cast<std::int64_t>(t), true);
        cursor += v[i];
      }
    }
    if (t % spec.eval_every == 0) {
      const std::int64_t es =
          tr.spans ? tr.spans->begin("eval", ep_span, static_cast<std::int64_t>(t)) : -1;
      const Clock::time_point e0 = Clock::now();
      const double accuracy = sim.evaluate_now().accuracy;
      if (tr.spans) {
        tr.spans->end(es);
        tr.layers->eval_ms += std::chrono::duration<double, std::milli>(Clock::now() - e0).count();
        ++tr.layers->evals;
      }
      ep.accuracy.push_back(accuracy);
      ep.eval_end_s.push_back(elapsed_s(start));
      if (!ep.target_step && accuracy >= spec.target) ep.target_step = t;
      if (t == spec.horizon) ep.final_accuracy = accuracy;
    }
  }
  ep.hash = fnv1a(sim.cloud_params());
  if (tr.spans) tr.spans->end(ep_span);
  return ep;
}

// Output checks every episode must pass; findings go to `errors`.
void check_episode(const core::Simulation& sim, const EventCounter& events, std::size_t index,
                   std::vector<std::string>& errors) {
  const std::string where = "episode " + std::to_string(index) + ": ";
  std::size_t summed = 0;
  for (const auto& link : sim.transport().bytes_by_link()) {
    summed += link.stats.bytes;
    const auto k = static_cast<std::size_t>(link.kind);
    if (events.link_bytes[k] != link.stats.bytes) {
      errors.push_back(where + "link " + mf::transport::to_string(link.kind) + " carried " +
                       std::to_string(link.stats.bytes) + " bytes but its events sum to " +
                       std::to_string(events.link_bytes[k]));
    }
  }
  if (summed != sim.transport().total_bytes()) {
    errors.push_back(where + "per-link bytes sum to " + std::to_string(summed) +
                     " but total_wire_bytes is " + std::to_string(sim.transport().total_bytes()));
  }
  if (sim.config().comm.async_cloud) {
    const auto& a = sim.async_stats();
    const auto wan = static_cast<std::size_t>(mf::transport::LinkKind::kWanUp);
    if (a.published != events.link_transfers[wan] || a.applied != events.contributing_sum ||
        a.applies != events.cloud_syncs) {
      errors.push_back(where + "async counters (published " + std::to_string(a.published) +
                       ", applied " + std::to_string(a.applied) + ", applies " +
                       std::to_string(a.applies) + ") disagree with the event stream (" +
                       std::to_string(events.link_transfers[wan]) + ", " +
                       std::to_string(events.contributing_sum) + ", " +
                       std::to_string(events.cloud_syncs) + ")");
    }
  }
}

// ---------------------------------------------------------------------------
// A whole pass: training episodes, with serving between them.

struct Pass {
  std::vector<Episode> episodes;
  std::unique_ptr<OpenLoopClient> client;  // when serving
  std::uint64_t sink_publishes = 0;      // traced: publications seen
  std::size_t serve_steps = 0;           // serve_sim steps while serving
  mf::serve::ServingHub::Stats hub_before;
  mf::serve::ServingHub::Stats hub_after;
};

struct Rig {
  Spec spec;
  std::uint64_t seed = 0;
  std::unique_ptr<mf::parallel::ThreadPool> serve_pool;
  std::unique_ptr<mf::bench::TaskSetup> inputs;
  std::unique_ptr<core::Simulation> first_sim;  // built by the timed setup
  std::unique_ptr<mf::serve::ServingHub> hub;
};

struct SetupTimes {
  std::vector<double> total_s, data_s, sim_s;
};

// One set-up for `rig`: builds inputs, a first simulation and the hub into
// the given slots (dropping what they held first), timing each part.
void timed_setup(const Rig& rig, std::unique_ptr<mf::bench::TaskSetup>& inputs,
                 std::unique_ptr<core::Simulation>& sim,
                 std::unique_ptr<mf::serve::ServingHub>& hub, SetupTimes& times,
                 SpanRecorder* spans) {
  hub.reset();
  sim.reset();
  inputs.reset();
  const std::int64_t s_all = spans ? spans->begin("setup") : -1;
  const Clock::time_point t0 = Clock::now();
  std::int64_t s = spans ? spans->begin("setup.data", s_all) : -1;
  inputs = build_inputs(rig.spec, rig.seed);
  if (spans) spans->end(s);
  const Clock::time_point t1 = Clock::now();
  s = spans ? spans->begin("setup.sim", s_all) : -1;
  sim = make_sim(*inputs, 0, rig.spec.horizon, nullptr, nullptr);
  if (spans) spans->end(s);
  const Clock::time_point t2 = Clock::now();
  s = spans ? spans->begin("setup.hub", s_all) : -1;
  hub = std::make_unique<mf::serve::ServingHub>(inputs->sim_cfg.serving, inputs->num_edges,
                                                inputs->model_spec, rig.serve_pool.get());
  if (spans) spans->end(s);
  const Clock::time_point t3 = Clock::now();
  if (spans) spans->end(s_all);
  times.total_s.push_back(std::chrono::duration<double>(t3 - t0).count());
  times.data_s.push_back(std::chrono::duration<double>(t1 - t0).count());
  times.sim_s.push_back(std::chrono::duration<double>(t2 - t1).count());
}

// One round of kSetupLanes set-ups between the episodes of an untraced
// pass, thrown away once timed.
void resample_setup(const Rig& rig, SetupTimes& times) {
  std::unique_ptr<mf::bench::TaskSetup> inputs;
  std::unique_ptr<core::Simulation> sim;
  std::unique_ptr<mf::serve::ServingHub> hub;
  for (std::size_t r = 0; r < kSetupLanes; ++r) {
    timed_setup(rig, inputs, sim, hub, times, nullptr);
  }
}

// setup_s from the rounds of resample_setup: lane i is the i-th set-up of
// every round, so each lane samples the whole run; the result is the
// median over lanes of each lane's mean. A shared x86 VM runs set-up
// (about 1.1 or 1.6 ms) at one of two speeds for seconds at a time: the
// median of single set-ups jumps between them with the share of fast
// spells in a run, while a lane's mean moves with that share smoothly.
double setup_seconds(const SetupTimes& rounds) {
  return median_of_lane_means(rounds.total_s, kSetupLanes);
}

// Runs episodes until `budget_s` has passed and at least `min_episodes`
// ran. With `replay` set, runs exactly as many episodes as that pass did.
// Traced passes install the decorators, obs bundle and spans. With `setup`
// set, set-up is repeated after every episode (see resample_setup).
// With `serve` set, serves between episodes (see below).
Pass run_pass(Rig& rig, double budget_s, std::size_t min_episodes, bool serve,
              const Pass* replay, SpanRecorder* spans, SpanRecorder* client_spans,
              Layers* layers, SetupTimes* setup, std::vector<std::string>& errors) {
  const Spec& spec = rig.spec;
  const bool traced = spans != nullptr;
  Pass pass;
  std::unique_ptr<CountingSink> sink;
  if (traced) sink = std::make_unique<CountingSink>(*rig.hub);
  core::EdgeModelSink* target =
      sink ? static_cast<core::EdgeModelSink*>(sink.get()) : rig.hub.get();
  if (serve) {
    pass.client = std::make_unique<OpenLoopClient>(*rig.hub, *rig.inputs->test,
                                                rig.inputs->model_spec.num_classes, rig.seed,
                                                ladder(), client_spans);
  }
  mf::obs::MetricsRegistry registry;
  mf::obs::Observability bundle;
  bundle.metrics = &registry;

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(budget_s));
  // Declared before the simulation it observes, so it outlives it.
  std::unique_ptr<EventCounter> events;
  std::unique_ptr<core::Simulation> sim;
  pass.hub_before = rig.hub->stats();

  // Serving: ladder cycles between training episodes, kServeCycles in
  // all, spread evenly over the pass so that they see the host's speed over
  // the whole run, not over one stretch of it. Each cycle runs while a
  // separate simulation trains on a 2-worker pool that the drains share, so
  // latency is dominated by queueing behind training work. Served from an
  // idle or 1-worker pool, p99 is the wake-up jitter of a virtualized host
  // instead: it swung 10 us - 25 ms from run to run.
  std::unique_ptr<core::Simulation> serve_sim;
  std::size_t cycles_done = 0;
  const auto serve_until = [&](std::size_t cycles) {
    if (!serve_sim) {
      serve_sim = make_sim(*rig.inputs, kServeEpisode, spec.horizon, rig.serve_pool.get(), nullptr);
      serve_sim->set_edge_model_sink(target);
    }
    for (; cycles_done < cycles; ++cycles_done) {
      pass.client->start();
      while (pass.client->running()) {
        serve_sim->step();
        ++pass.serve_steps;
      }
      pass.client->stop();
    }
  };
  for (std::size_t e = 0;; ++e) {
    if (replay) {
      if (e >= replay->episodes.size()) break;
    } else if (e >= min_episodes && Clock::now() >= deadline) {
      break;
    }
    Decor decor;
    if (traced) {
      decor.select = std::make_shared<CallTally>();
      decor.optim = std::make_shared<CallTally>();
    }
    sim.reset();
    // The timed setup's simulation is episode 0 of the first pass only.
    if (e == 0 && rig.first_sim && !traced) {
      sim = std::move(rig.first_sim);
    } else {
      sim = make_sim(*rig.inputs, e, spec.horizon, nullptr, traced ? &decor : nullptr);
    }
    events = std::make_unique<EventCounter>();
    sim->add_observer(events.get());
    if (traced) sim->set_observability(bundle);
    Episode ep = run_episode(*sim, spec, Tracing{spans, layers});
    check_episode(*sim, *events, e, errors);
    if (traced) add_counters(*layers, *sim, decor);
    pass.episodes.push_back(std::move(ep));
    if (setup) resample_setup(rig, *setup);
    if (serve) {
      const double share = std::min(1.0, elapsed_s(start) / std::max(budget_s, 1e-9));
      serve_until(static_cast<std::size_t>(share * static_cast<double>(kServeCycles)));
    }
  }
  if (serve) serve_until(kServeCycles);
  rig.hub->quiesce();
  if (serve_sim) serve_sim->set_edge_model_sink(nullptr);
  pass.hub_after = rig.hub->stats();
  if (sink) pass.sink_publishes = sink->publishes();
  if (pass.client) {
    for (const std::string& e : pass.client->errors()) errors.push_back(e);
  }
  return pass;
}

// ---------------------------------------------------------------------------
// Metrics.

// The first evaluation step at which the accuracy curve averaged over
// `episodes` meets the target; nullopt when it never does.
std::optional<std::size_t> average_crossing(const std::vector<Episode>& episodes,
                                            const Spec& spec) {
  if (episodes.empty()) return std::nullopt;
  const std::size_t evals = episodes.front().accuracy.size();
  const double n = static_cast<double>(episodes.size());
  for (std::size_t i = 0; i < evals; ++i) {
    double mean = 0.0;
    for (const Episode& ep : episodes) mean += ep.accuracy[i] / n;
    if (mean >= spec.target) return (i + 1) * spec.eval_every;
  }
  return std::nullopt;
}

double steps_per_sec(const Pass& pass) {
  double steps = 0.0, seconds = 0.0;
  for (const Episode& ep : pass.episodes) {
    steps += static_cast<double>(ep.steps);
    seconds += ep.step_s;
  }
  return seconds > 0.0 ? steps / seconds : 0.0;
}

void add_serve_notes(RunOutput& out, const OpenLoopClient& client) {
  const LadderPlan& plan = client.plan();
  for (const RungStats& rung : client.rungs()) {
    out.notes.push_back("serve rung " + std::to_string(rung.offered_qps) + " req/s: " +
                        std::to_string(rung.completed) + " ok, " + std::to_string(rung.failed) +
                        " failed, achieved " + std::to_string(rung.achieved_qps()) +
                        " req/s, window p99 median " + std::to_string(median(rung.window_p99_us)) +
                        " us over " + std::to_string(rung.window_p99_us.size()) +
                        " windows, backlog grew in " + std::to_string(rung.growing_executions) +
                        "/" + std::to_string(rung.executions) +
                        (rung_passes(rung, plan.p99_limit_us) ? " (pass)" : " (fail)"));
  }
}

void add_attempts(RunOutput& out, const Pass& pass) {
  out.attempted += pass.episodes.size();
  if (pass.client) {
    out.attempted += pass.client->attempted();
    out.failed += pass.client->failed();
  }
}

RunOutput run_untraced(Rig& rig, const Args& args) {
  RunOutput out;
  // The first set-up builds what the run uses; setup_s comes from the
  // rounds after every episode (the first one, cold, is left out).
  SetupTimes first_setup, setup;
  timed_setup(rig, rig.inputs, rig.first_sim, rig.hub, first_setup, nullptr);
  const Pass pass = run_pass(rig, args.seconds, rig.spec.min_episodes, false, nullptr, nullptr,
                             nullptr, nullptr, &setup, out.errors);
  const std::size_t n = std::min(rig.spec.min_episodes, pass.episodes.size());
  // Step-time medians are taken per episode (about a second each) and
  // averaged over the run's episodes. The host runs at one of two speeds
  // for seconds at a time; a median over the whole run jumps between them
  // with the share of fast spells, while the mean of per-episode medians
  // moves with that share smoothly.
  double step_ms = 0.0, sync_ms = 0.0;
  std::size_t step_samples = 0, sync_samples = 0;
  const double episodes = static_cast<double>(pass.episodes.size());
  for (const Episode& ep : pass.episodes) {
    step_ms += median(ep.step_ms) / episodes;
    sync_ms += median(ep.sync_ms) / episodes;
    step_samples += ep.step_ms.size();
    sync_samples += ep.sync_ms.size();
  }
  // Steps to accuracy are read off the accuracy curve averaged over the
  // first n episodes (the paper averages repeats the same way): a single
  // episode's crossing step varies too much from seed to seed. The time to
  // that step is then averaged over every episode of the run.
  const std::vector<Episode> first(pass.episodes.begin(), pass.episodes.begin() + n);
  const std::optional<std::size_t> crossing = average_crossing(first, rig.spec);
  double time_to_target = 0.0;
  if (crossing) {
    const std::size_t eval = *crossing / rig.spec.eval_every - 1;
    for (const Episode& ep : pass.episodes) time_to_target += ep.eval_end_s[eval] / episodes;
  } else {
    out.errors.push_back("the averaged accuracy curve missed the target " +
                         std::to_string(rig.spec.target));
    ++out.failed;
  }
  double final_acc = 0.0;
  for (const Episode& ep : first) final_acc += ep.final_accuracy / static_cast<double>(n);
  out.metrics = {
      {"setup_s", setup_seconds(setup), "s"},
      {"steps_per_sec", steps_per_sec(pass), "steps/s"},
      {"step_ms_p50", step_ms, "ms"},
      {"sync_step_ms_p50", sync_ms, "ms"},
      {"time_to_target_s", time_to_target, "s"},
      {"steps_to_target", static_cast<double>(crossing.value_or(0)), "steps"},
      {"final_accuracy", final_acc, "fraction"},
      {"peak_rss_mb", static_cast<double>(mf::bench::peak_rss_bytes()) / (1024.0 * 1024.0), "MiB"},
  };
  add_attempts(out, pass);
  std::size_t steps = 0;
  std::string targets;
  for (const Episode& ep : pass.episodes) {
    steps += ep.steps;
    targets += ' ';
    targets += ep.target_step ? std::to_string(*ep.target_step) : std::string("-");
  }
  out.notes.push_back("steps to target per episode:" + targets);
  out.notes.push_back("setup_s over " + std::to_string(setup.total_s.size()) +
                      " set-ups: p10 " + std::to_string(quantile(setup.total_s, 0.1)) +
                      " s, median " + std::to_string(median(setup.total_s)) + " s, p90 " +
                      std::to_string(quantile(setup.total_s, 0.9)) + " s; first set-up " +
                      std::to_string(first_setup.total_s.front()) + " s");
  out.notes.push_back(std::to_string(pass.episodes.size()) + " episodes, " +
                      std::to_string(steps) + " steps, " + std::to_string(step_samples) +
                      " non-sync and " + std::to_string(sync_samples) + " sync step samples");
  return out;
}

RunOutput run_traced(Rig& rig, const Args& args,
                     std::vector<std::unique_ptr<SpanRecorder>>& keep_alive) {
  RunOutput out;
  const Clock::time_point origin = Clock::now();
  keep_alive.push_back(std::make_unique<SpanRecorder>(origin, 1));
  keep_alive.push_back(std::make_unique<SpanRecorder>(origin, 2));
  SpanRecorder* spans = keep_alive[keep_alive.size() - 2].get();
  SpanRecorder* client_spans = keep_alive.back().get();
  out.spans = {spans, client_spans};

  SetupTimes setup;
  timed_setup(rig, rig.inputs, rig.first_sim, rig.hub, setup, spans);
  rig.first_sim.reset();  // the traced pass builds decorated simulations
  Layers layers;
  // Half the time traced; the other half replays the same episodes bare
  // (without serving) to gate the traced result and to price the tracing.
  const Pass traced = run_pass(rig, std::max(1.0, args.seconds / 2.0), 1, true, nullptr, spans,
                               client_spans, &layers, nullptr, out.errors);
  const Pass bare =
      run_pass(rig, 0.0, 0, false, &traced, nullptr, nullptr, nullptr, nullptr, out.errors);
  for (std::size_t e = 0; e < traced.episodes.size(); ++e) {
    if (traced.episodes[e].hash != bare.episodes[e].hash) {
      out.errors.push_back("episode " + std::to_string(e) +
                           ": traced cloud-parameter hash differs from the untraced run's");
    }
  }
  add_attempts(out, traced);
  add_attempts(out, bare);

  const double steps = static_cast<double>(std::max<std::size_t>(1, layers.steps));
  const double syncs = static_cast<double>(std::max<std::size_t>(1, layers.syncs));
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  double phase_sum = 0.0;
  for (int i = 0; i < 8; ++i) phase_sum += layers.phase_us[i];
  const OpenLoopClient& client = *traced.client;
  const auto hub_delta = [&](auto field) {
    return static_cast<double>(traced.hub_after.*field - traced.hub_before.*field);
  };
  using HubStats = mf::serve::ServingHub::Stats;

  std::vector<Metric>& m = out.metrics;
  m.push_back({"mobility.advance_us", layers.mobility_us / steps, "us"});
  m.push_back({"mobility.movers_per_step", layers.movers / steps, "count"});
  m.push_back({"membership.us_per_step", layers.phase_us[1] / steps, "us"});
  m.push_back({"select.us_per_step", layers.phase_us[2] / steps, "us"});
  m.push_back({"select.call_us", ratio(layers.select_us, layers.select_calls), "us"});
  m.push_back({"similarity_cache.hit_ratio", ratio(layers.cache_hits, layers.cache_lookups), "ratio"});
  m.push_back({"distribute.us_per_step", layers.phase_us[3] / steps, "us"});
  m.push_back({"distribute.blends_per_step", layers.blends / steps, "count"});
  m.push_back({"local_train.us_per_step", layers.phase_us[4] / steps, "us"});
  m.push_back({"optim.step_us_per_step", layers.optim_us / steps, "us"});
  // One optimizer step trains on one local batch.
  m.push_back({"local_train.samples_per_step",
               layers.optim_steps * static_cast<double>(rig.inputs->sim_cfg.batch_size) / steps, "count"});
  m.push_back({"upload.us_per_step", layers.phase_us[5] / steps, "us"});
  for (const auto kind : mf::transport::kAllLinkKinds) {
    if (kind == mf::transport::LinkKind::kCarry) continue;
    m.push_back({"transport." + mf::transport::to_string(kind) + ".bytes_per_step",
                 layers.link_bytes[static_cast<std::size_t>(kind)] / steps, "bytes"});
  }
  m.push_back({"transport.drop_ratio", ratio(layers.dropped, layers.transfers), "ratio"});
  m.push_back({"edge_aggregate.us_per_step", layers.phase_us[6] / steps, "us"});
  m.push_back({"comm.reduces_per_step", layers.reduces / steps, "count"});
  m.push_back({"comm.async_applied_ratio", ratio(layers.async_applied, layers.async_published), "ratio"});
  m.push_back({"comm.async_dropped_stale_per_sync", layers.async_dropped_stale / syncs, "count"});
  m.push_back({"cloud_sync.us_per_sync", layers.sync_cloud_us / syncs, "us"});
  m.push_back({"cloud_sync.device_broadcasts_per_sync", layers.device_broadcasts / syncs, "count"});
  m.push_back({"fleet.materializations_per_step", layers.materializations / steps, "count"});
  m.push_back({"fleet.resident_peak", layers.resident_peak, "count"});
  m.push_back({"fleet.delta_bytes_at_rest", layers.delta_bytes_at_rest, "bytes"});
  m.push_back({"eval.ms_per_eval", ratio(layers.eval_ms, static_cast<double>(layers.evals)), "ms"});
  // Serving is measured in the traced run only. Its latency and capacity
  // are not end-to-end metrics: drains run on a 2-worker pool, and over
  // ten runs on a shared 4-core VM the capacity spread 0.29 of its median
  // and the reference p50 0.18 (in slow spells even the 8000 req/s rung
  // missed the p99 limit), beyond any bound the benchmark may set.
  const RungStats& ref = client.rungs()[client.plan().reference];
  m.push_back({"serve.p50_us", median(ref.window_p50_us), "us"});
  m.push_back({"serve.p99_us", median(ref.window_p99_us), "us"});
  m.push_back({"serve.max_qps", max_passing_qps(client.rungs(), client.plan().p99_limit_us),
               "req/s"});
  m.push_back({"serve.server_latency_us_p99", median(client.server_latency_p99s()), "us"});
  m.push_back({"serve.generator_late_us_p99", median(client.generator_late_p99s()), "us"});
  m.push_back({"serve.batch_occupancy",
               ratio(hub_delta(&HubStats::served), hub_delta(&HubStats::batches)), "ratio"});
  m.push_back({"serve.publishes_per_step",
               ratio(static_cast<double>(traced.sink_publishes), static_cast<double>(traced.serve_steps)),
               "count"});
  m.push_back({"serve.reloads_per_publish",
               ratio(hub_delta(&HubStats::reloads), static_cast<double>(traced.sink_publishes)), "ratio"});
  // Coverage (phases over wall) is defined on the serial path, where the
  // phases do not overlap; training runs there on both workloads.
  m.push_back({"step.unattributed_us", (layers.wall_us - phase_sum) / steps, "us"});
  m.push_back({"step.coverage", ratio(phase_sum, layers.wall_us), "ratio"});
  m.push_back({"setup.data_s", setup.data_s.front(), "s"});
  m.push_back({"setup.sim_s", setup.sim_s.front(), "s"});
  m.push_back({"trace.overhead_ratio", ratio(steps_per_sec(traced), steps_per_sec(bare)), "ratio"});

  // Design shares: where the step wall time goes on this workload.
  const double wall = std::max(1.0, layers.wall_us);
  static const char* const kNames[8] = {"mobility", "membership", "select", "distribute",
                                        "local_train", "upload", "edge_aggregate", "cloud_sync"};
  std::string shares = "phase time over step wall time:";
  for (int i = 0; i < 8; ++i) {
    shares += std::string(" ") + kNames[i] + " " +
              std::to_string(100.0 * layers.phase_us[i] / wall).substr(0, 5) + "%";
  }
  out.notes.push_back(shares);
  add_serve_notes(out, client);
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig6_middle", "async_straggler"};
  return names;
}

std::string check_decorators_forward() {
  constexpr std::size_t kSteps = 20;
  std::string failures;
  const std::unique_ptr<mf::bench::TaskSetup> in = build_inputs(spec_for("fig6_middle"), 7);
  Decor decor;
  decor.select = std::make_shared<CallTally>();
  decor.optim = std::make_shared<CallTally>();
  auto bare = make_sim(*in, 1, kSteps, nullptr, nullptr);
  auto decorated = make_sim(*in, 1, kSteps, nullptr, &decor);
  for (std::size_t t = 0; t < kSteps; ++t) {
    bare->step();
    decorated->step();
  }
  if (fnv1a(bare->cloud_params()) != fnv1a(decorated->cloud_params())) {
    failures += "decorated cloud parameters differ from bare; ";
  }
  if (decor.select->calls.load() == 0 || decor.optim->calls.load() == 0 ||
      decor.mobility->advance_tally().calls.load() != kSteps) {
    failures += "decorators did not see the calls they wrap; ";
  }
  return failures;
}

RunOutput run_workload(const Args& args,
                       std::vector<std::unique_ptr<SpanRecorder>>& keep_alive) {
  Rig rig;
  rig.spec = spec_for(args.workload);
  rig.seed = args.seed;
  rig.serve_pool = std::make_unique<mf::parallel::ThreadPool>(kServePool);
  RunOutput out = args.trace ? run_traced(rig, args, keep_alive) : run_untraced(rig, args);
  out.pool_size = 1;
  out.serve_pool_size = kServePool;
  return out;
}

}  // namespace perfbench
