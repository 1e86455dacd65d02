// Output: the provenance block, the one-line result the benchmark ends
// with, the results file and the stderr tables.
#pragma once

#include <string>

#include "workloads.hpp"

namespace perfbench {

/// Facts only the launcher can see (the checkout may not be a git
/// repository; "unknown" then).
struct SourceInfo {
  std::string git_commit = "unknown";
  std::string git_dirty = "unknown";
  std::string source_hash = "unknown";  // digest of the built sources
};

/// One JSON object: commit and dirty flag, source digest, compiler and
/// version, build type and flags, active GEMM ISA tier, nproc, pool size,
/// workload, seed, seconds and trace flag.
std::string provenance_json(const Args& args, const RunOutput& out, const SourceInfo& source);

/// The benchmark's last stdout line: correct, attempted, failed, metrics.
std::string result_json(const RunOutput& out, bool correct);

/// Writes provenance, result, notes, findings and (traced) the self-time
/// table to `path`; returns false when it cannot.
bool write_results_file(const std::string& path, const std::string& provenance,
                        const std::string& result, const RunOutput& out);

/// Human-readable metrics, notes, findings and self-time table.
void print_summary(const Args& args, const RunOutput& out);

}  // namespace perfbench
