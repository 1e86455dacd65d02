#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// Runs the self-tests; returns the failures (empty = all passed).
std::vector<std::string> run_self_tests();

}  // namespace perfbench
