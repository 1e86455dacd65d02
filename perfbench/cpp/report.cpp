#include "report.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "tensor/cpu_features.hpp"

namespace perfbench {

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string self_time_json(const RunOutput& out) {
  std::string s = "[";
  bool first = true;
  for (const SelfTimeRow& row : self_time_table(out.spans)) {
    s += std::string(first ? "" : ", ") + "{\"name\": " + quoted(row.name) +
         ", \"count\": " + std::to_string(row.count) + ", \"total_us\": " + number(row.total_us) +
         ", \"self_us\": " + number(row.self_us) + "}";
    first = false;
  }
  return s + "]";
}

}  // namespace

std::string provenance_json(const Args& args, const RunOutput& out, const SourceInfo& source) {
  std::ostringstream s;
  s << "{\"provenance\": {"
    << "\"git_commit\": " << quoted(source.git_commit)
    << ", \"git_dirty\": " << quoted(source.git_dirty)
    << ", \"source_hash\": " << quoted(source.source_hash)
    << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
    << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
    << ", \"build_flags\": " << quoted(PERFBENCH_FLAGS)
    << ", \"gemm_isa\": "
    << quoted(middlefl::tensor::to_string(middlefl::tensor::active_isa()))
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"pool_size\": " << out.pool_size << ", \"serve_pool_size\": " << out.serve_pool_size
    << ", \"workload\": " << quoted(args.workload)
    << ", \"seed\": " << args.seed
    << ", \"seconds\": " << number(args.seconds)
    << ", \"trace\": " << (args.trace ? 1 : 0) << "}}";
  return s.str();
}

std::string result_json(const RunOutput& out, bool correct) {
  std::ostringstream s;
  s << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << out.attempted
    << ", \"failed\": " << out.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    s << (i == 0 ? "" : ", ") << quoted(m.name) << ": {\"value\": " << number(m.value)
      << ", \"unit\": " << quoted(m.unit) << "}";
  }
  s << "}}";
  return s.str();
}

bool write_results_file(const std::string& path, const std::string& provenance,
                        const std::string& result, const RunOutput& out) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"provenance_block\": " << provenance << ",\n \"result\": " << result
    << ",\n \"fail_ratio\": "
    << number(out.attempted > 0 ? static_cast<double>(out.failed) / static_cast<double>(out.attempted) : 1.0)
    << ",\n \"notes\": [";
  for (std::size_t i = 0; i < out.notes.size(); ++i) f << (i ? ", " : "") << quoted(out.notes[i]);
  f << "],\n \"errors\": [";
  for (std::size_t i = 0; i < out.errors.size(); ++i) f << (i ? ", " : "") << quoted(out.errors[i]);
  f << "],\n \"self_time\": " << self_time_json(out) << "}\n";
  return static_cast<bool>(f);
}

void print_summary(const Args& args, const RunOutput& out) {
  std::cerr << "perfbench " << args.workload << " seed " << args.seed
            << (args.trace ? " (traced)" : "") << "\n";
  for (const Metric& m : out.metrics) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-42s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::cerr << buf;
  }
  for (const std::string& note : out.notes) std::cerr << "  note: " << note << "\n";
  if (!out.spans.empty()) {
    std::cerr << "  self time by span (us):\n";
    for (const SelfTimeRow& row : self_time_table(out.spans)) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "    %-24s %9zu spans %14.1f total %14.1f self\n",
                    row.name.c_str(), row.count, row.total_us, row.self_us);
      std::cerr << buf;
    }
  }
  for (const std::string& e : out.errors) std::cerr << "  CHECK FAILED: " << e << "\n";
}

}  // namespace perfbench
