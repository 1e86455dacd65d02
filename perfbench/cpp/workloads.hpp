// The benchmark's workloads. Each builds its inputs from the seed alone,
// runs for the requested time, checks its outputs and returns named
// metrics: the end-to-end set from an untraced run, or the per-layer set
// from a traced run (which also re-runs the same work untraced to gate
// the traced result and to price the tracing).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // results and Chrome trace files; empty = none
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOutput {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Correctness findings; any entry makes the run incorrect.
  std::vector<std::string> errors;
  std::size_t pool_size = 0;        // training
  std::size_t serve_pool_size = 0;  // serving, and the training beside it
  /// Benchmark-side spans (traced runs), one recorder per thread.
  std::vector<const SpanRecorder*> spans;
  /// Human-readable notes for stderr and the results file.
  std::vector<std::string> notes;
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Self-test of the decorators' forwarding: a short fig6_middle episode,
/// bare and decorated, must end on the same cloud parameters. Returns an empty string on success, else what differed.
std::string check_decorators_forward();

/// Runs one workload; throws std::invalid_argument for an unknown name.
/// `keep_alive` owns the span recorders RunOutput::spans points at.
RunOutput run_workload(const Args& args,
                       std::vector<std::unique_ptr<SpanRecorder>>& keep_alive);

}  // namespace perfbench
