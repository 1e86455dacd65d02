// perfbench: the repository benchmark. Usually launched through
// perfbench/run.py, which builds this binary first:
//
//   perfbench --workload fig6_middle --seed 1 --seconds 15 --trace 0
//             [--out-dir DIR] [--git-commit SHA --git-dirty 0|1
//              --source-hash HEX]
//   perfbench --self-test
//
// stdout ends with one JSON line {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer ones
// with --trace 1. The line before it is the provenance block. The exit
// code is 0 only when every check passed.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "report.hpp"
#include "selftest.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--git-commit SHA] [--git-dirty 0|1] [--source-hash HEX]\n"
            << "       perfbench --self-test\nworkloads:";
  for (const std::string& name : workload_names()) std::cerr << " " << name;
  std::cerr << "\n";
  return 2;
}

int run(int argc, char** argv) {
  Args args;
  SourceInfo source;
  bool self_test_only = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      self_test_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else if (flag == "--git-commit") {
        source.git_commit = value;
      } else if (flag == "--git-dirty") {
        source.git_dirty = value;
      } else if (flag == "--source-hash") {
        source.source_hash = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value '" + value + "' for " + flag);
    }
  }

  const std::vector<std::string> failures = run_self_tests();
  for (const std::string& f : failures) std::cerr << "SELF-TEST FAILED: " << f << "\n";
  if (self_test_only) {
    std::cerr << (failures.empty() ? "self-tests passed\n" : "self-tests failed\n");
    return failures.empty() ? 0 : 1;
  }
  if (!failures.empty()) return 1;
  if (!have_workload) return usage("--workload is required");
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");

  std::vector<std::unique_ptr<SpanRecorder>> recorders;
  RunOutput out = run_workload(args, recorders);
  const bool correct = out.errors.empty() && out.failed == 0;
  print_summary(args, out);
  const std::string provenance = provenance_json(args, out, source);
  const std::string result = result_json(out, correct);
  if (!args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0");
    if (!write_results_file(stem + ".json", provenance, result, out)) {
      std::cerr << "perfbench: cannot write " << stem << ".json\n";
    }
    if (args.trace && !write_chrome_trace(stem + ".chrome.json", out.spans)) {
      std::cerr << "perfbench: cannot write " << stem << ".chrome.json\n";
    }
  }
  std::cout << provenance << "\n" << result << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
