// perfbench: the layered ABR benchmark.
//
//   perfbench --workload trace-sim|origin --seed N
//             --seconds S --trace 0|1 [--spans FILE]
//
// Prints a run-context JSON line, then the result JSON line (always last):
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// Exits 0 only when every output check passed.

#include <exception>
#include <iostream>
#include <string>

#include "util/checked_parse.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload trace-sim|origin"
               " --seed N --seconds S --trace 0|1 [--spans FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      if (!abr::util::parse_u64(value, number)) return usage("bad --seed");
      options.seed = number;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!abr::util::parse_finite_double(value, options.seconds) ||
          options.seconds <= 0.0) {
        return usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      options.trace = value == "1";
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (!have_seed) return usage("--seed is required");

  try {
    perfbench::Result result;
    if (options.workload == "trace-sim") {
      result = perfbench::run_trace_sim(options);
    } else if (options.workload == "origin") {
      result = perfbench::run_origin(options);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
    perfbench::print_result(options, result);
    return result.correct() ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 3;
  }
}
