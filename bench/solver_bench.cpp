// Deterministic solver performance harness (BENCH_solver.json).
//
// Measures the three hot paths of the MPC solver stack and verifies, in the
// same run, that every optimization is exactness preserving:
//
//   1. FastMPC table build, cold vs. neighbor-warm-started sweep
//      (node counts are deterministic; wall time is reported, not judged);
//   2. online MPC solves over a synthetic session, cold vs. shifted-tail
//      warm starts (node counts gated like the build's), with latency
//      percentiles;
//   3. table lookup, RLE binary search vs. decoded flat array.
//
// Exits non-zero if warm != cold anywhere, if the table-build node
// reduction falls below --min-reduction (default 3x, the PR's headline
// claim), or if deterministic metrics regress against --baseline.
//
// Usage:
//   solver_bench [--out FILE] [--baseline FILE] [--buffer-bins N]
//                [--throughput-bins N] [--horizon N] [--threads N]
//                [--chunks N] [--min-reduction X]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fastmpc_table.hpp"
#include "core/horizon_solver.hpp"
#include "media/manifest.hpp"
#include "qoe/qoe.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string out = "BENCH_solver.json";
  std::string baseline;
  std::size_t buffer_bins = 100;
  std::size_t throughput_bins = 100;
  std::size_t horizon = 5;
  std::size_t threads = 0;
  std::size_t chunks = 400;
  double min_reduction = 3.0;
};

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "solver_bench: missing value for " << flag << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--out") {
      options.out = next();
    } else if (flag == "--baseline") {
      options.baseline = next();
    } else if (flag == "--buffer-bins") {
      options.buffer_bins = std::stoul(next());
    } else if (flag == "--throughput-bins") {
      options.throughput_bins = std::stoul(next());
    } else if (flag == "--horizon") {
      options.horizon = std::stoul(next());
    } else if (flag == "--threads") {
      options.threads = std::stoul(next());
    } else if (flag == "--chunks") {
      options.chunks = std::stoul(next());
    } else if (flag == "--min-reduction") {
      options.min_reduction = std::stod(next());
    } else {
      std::cerr << "solver_bench: unknown flag " << flag << "\n";
      std::exit(2);
    }
  }
  return options;
}

struct Metric {
  const char* key;  ///< dot-separated path into the baseline document
  double value;
  double tolerance;  ///< allowed relative drift (decisions can shift with libm)
};

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  bool failed = false;

  const auto manifest = abr::media::VideoManifest::envivio_default();
  const auto qoe = abr::qoe::QoeModel(abr::media::QualityFunction::identity(),
                                      abr::qoe::QoeWeights::balanced());

  // --- 1. Table build: cold sweep vs. neighbor-warm-started sweep --------
  abr::core::FastMpcConfig config;
  config.buffer_bins = options.buffer_bins;
  config.throughput_bins = options.throughput_bins;
  config.horizon = options.horizon;
  config.threads = options.threads;

  abr::core::FastMpcConfig cold_config = config;
  cold_config.warm_start = false;
  abr::core::FastMpcConfig warm_config = config;
  warm_config.warm_start = true;
  warm_config.flat_lookup = true;

  abr::core::FastMpcBuildStats cold_stats;
  abr::core::FastMpcBuildStats warm_stats;
  const auto cold_table =
      abr::core::FastMpcTable::build(manifest, qoe, cold_config, &cold_stats);
  const auto warm_table =
      abr::core::FastMpcTable::build(manifest, qoe, warm_config, &warm_stats);

  const bool tables_equal = cold_table == warm_table;
  const double build_reduction =
      static_cast<double>(cold_stats.total_nodes_expanded) /
      static_cast<double>(warm_stats.total_nodes_expanded);
  if (!tables_equal) {
    std::cerr << "solver_bench: FAIL warm-built table differs from cold\n";
    failed = true;
  }
  if (build_reduction < options.min_reduction) {
    std::cerr << "solver_bench: FAIL table-build node reduction "
              << build_reduction << "x < required " << options.min_reduction
              << "x\n";
    failed = true;
  }

  // --- 2. Online solves: cold vs. shifted-tail warm starts ----------------
  // A deterministic synthetic session: a bounded random-walk forecast over a
  // long CBR video with the paper's ladder. Each chunk is solved cold and
  // warm (previous plan's tail); decisions must agree chunk for chunk.
  const auto video = abr::media::VideoManifest::cbr(
      options.chunks + options.horizon, manifest.chunk_duration_s(),
      manifest.bitrates_kbps());
  abr::core::HorizonSolver solver(video, qoe);
  abr::core::HorizonSolver::Workspace cold_ws;
  abr::core::HorizonSolver::Workspace warm_ws;

  abr::util::Rng rng(20150817);  // the paper's publication date
  double throughput = 2000.0;
  std::vector<double> forecast(options.horizon);
  std::vector<std::size_t> previous_plan;
  abr::util::Cdf cold_latency_us;
  abr::util::Cdf warm_latency_us;
  std::size_t online_cold_nodes = 0;
  std::size_t online_warm_nodes = 0;
  bool online_match = true;
  double buffer_s = 8.0;
  std::size_t prev_level = 0;
  bool has_prev = false;

  for (std::size_t chunk = 0; chunk < options.chunks; ++chunk) {
    throughput = std::min(6000.0,
                          std::max(150.0, throughput * rng.uniform(0.8, 1.25)));
    for (double& c : forecast) c = throughput;

    abr::core::HorizonProblem problem;
    problem.buffer_s = buffer_s;
    problem.prev_level = prev_level;
    problem.has_prev = has_prev;
    problem.predicted_kbps = forecast;
    problem.first_chunk = chunk;
    problem.buffer_capacity_s = 30.0;

    const auto cold_start = Clock::now();
    const auto cold = solver.solve(problem, cold_ws);
    cold_latency_us.add(seconds_since(cold_start) * 1e6);
    online_cold_nodes += cold.nodes_expanded;

    abr::core::HorizonProblem warm_problem = problem;
    if (!previous_plan.empty()) {
      warm_problem.warm_hint =
          std::span<const std::size_t>(previous_plan).subspan(1);
    }
    const auto warm_start = Clock::now();
    auto warm = solver.solve(warm_problem, warm_ws);
    warm_latency_us.add(seconds_since(warm_start) * 1e6);
    online_warm_nodes += warm.nodes_expanded;

    if (cold.levels != warm.levels || cold.objective != warm.objective) {
      online_match = false;
    }

    // Advance the session with the chosen decision's buffer dynamics.
    const std::size_t decision = warm.levels.front();
    const double download_s =
        video.chunk_kilobits(chunk, decision) / throughput;
    buffer_s = std::min(std::max(buffer_s - download_s, 0.0) +
                            video.chunk_duration_s(),
                        30.0);
    prev_level = decision;
    has_prev = true;
    previous_plan = std::move(warm.levels);
  }
  if (!online_match) {
    std::cerr << "solver_bench: FAIL warm online solve diverged from cold\n";
    failed = true;
  }
  const double online_reduction = static_cast<double>(online_cold_nodes) /
                                  static_cast<double>(online_warm_nodes);

  // --- 3. Lookup: RLE binary search vs. decoded flat array ----------------
  // Fixed query grid; the checksum both defeats dead-code elimination and
  // pins the decision surface for baseline comparison.
  const std::size_t levels = manifest.level_count();
  constexpr std::size_t kBufferSteps = 128;
  constexpr std::size_t kThroughputSteps = 128;
  constexpr std::size_t kLookupReps = 4;
  std::uint64_t rle_checksum = 0;
  std::uint64_t flat_checksum = 0;
  const std::size_t lookup_ops =
      kLookupReps * kBufferSteps * levels * kThroughputSteps;

  auto lookup_pass = [&](const abr::core::FastMpcTable& table,
                         std::uint64_t* checksum) {
    const auto start = Clock::now();
    for (std::size_t rep = 0; rep < kLookupReps; ++rep) {
      for (std::size_t bi = 0; bi < kBufferSteps; ++bi) {
        const double buffer = 30.0 * static_cast<double>(bi) / kBufferSteps;
        for (std::size_t prev = 0; prev < levels; ++prev) {
          for (std::size_t ci = 0; ci < kThroughputSteps; ++ci) {
            const double kbps =
                50.0 + 9950.0 * static_cast<double>(ci) / kThroughputSteps;
            *checksum += table.lookup(buffer, prev, kbps);
          }
        }
      }
    }
    return seconds_since(start) * 1e9 / static_cast<double>(lookup_ops);
  };
  const double rle_ns = lookup_pass(cold_table, &rle_checksum);
  const double flat_ns = lookup_pass(warm_table, &flat_checksum);
  if (rle_checksum != flat_checksum) {
    std::cerr << "solver_bench: FAIL flat lookup diverged from RLE lookup\n";
    failed = true;
  }

  // --- Report -------------------------------------------------------------
  using abr::util::json_number;
  std::ostringstream json;
  json << "{\n";
  json << "  \"config\": {\"buffer_bins\": " << options.buffer_bins
       << ", \"throughput_bins\": " << options.throughput_bins
       << ", \"horizon\": " << options.horizon << ", \"levels\": " << levels
       << ", \"chunks\": " << options.chunks << "},\n";
  json << "  \"table_build\": {\n";
  json << "    \"cells\": " << cold_table.cell_count() << ",\n";
  json << "    \"cold_nodes\": " << cold_stats.total_nodes_expanded << ",\n";
  json << "    \"warm_nodes\": " << warm_stats.total_nodes_expanded << ",\n";
  json << "    \"node_reduction\": " << json_number(build_reduction) << ",\n";
  json << "    \"cold_wall_s\": " << json_number(cold_stats.wall_seconds)
       << ",\n";
  json << "    \"warm_wall_s\": " << json_number(warm_stats.wall_seconds)
       << ",\n";
  json << "    \"run_count\": " << warm_table.run_count() << ",\n";
  json << "    \"rle_binary_bytes\": " << warm_table.rle_binary_bytes()
       << ",\n";
  json << "    \"flat_bytes\": " << warm_table.full_table_bytes() << ",\n";
  json << "    \"tables_equal\": " << (tables_equal ? "true" : "false")
       << "\n  },\n";
  json << "  \"online_solve\": {\n";
  json << "    \"solves\": " << options.chunks << ",\n";
  json << "    \"cold_nodes\": " << online_cold_nodes << ",\n";
  json << "    \"warm_nodes\": " << online_warm_nodes << ",\n";
  json << "    \"node_reduction\": " << json_number(online_reduction) << ",\n";
  json << "    \"cold_p50_us\": "
       << json_number(cold_latency_us.percentile(50.0)) << ",\n";
  json << "    \"cold_p99_us\": "
       << json_number(cold_latency_us.percentile(99.0)) << ",\n";
  json << "    \"warm_p50_us\": "
       << json_number(warm_latency_us.percentile(50.0)) << ",\n";
  json << "    \"warm_p99_us\": "
       << json_number(warm_latency_us.percentile(99.0)) << ",\n";
  json << "    \"decisions_match\": " << (online_match ? "true" : "false")
       << "\n  },\n";
  json << "  \"lookup\": {\n";
  json << "    \"ops\": " << lookup_ops << ",\n";
  json << "    \"rle_ns_per_op\": " << json_number(rle_ns) << ",\n";
  json << "    \"flat_ns_per_op\": " << json_number(flat_ns) << ",\n";
  json << "    \"checksum\": " << rle_checksum << ",\n";
  json << "    \"decisions_match\": "
       << (rle_checksum == flat_checksum ? "true" : "false") << "\n  }\n";
  json << "}\n";

  std::ofstream out(options.out);
  out << json.str();
  if (!out) {
    std::cerr << "solver_bench: cannot write " << options.out << "\n";
    return 2;
  }
  std::cout << json.str();

  // --- Baseline gate: deterministic metrics only --------------------------
  if (!options.baseline.empty()) {
    std::ifstream in(options.baseline);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    abr::util::Json baseline;
    std::string error;
    if (!in || !abr::util::parse_json(buffer.str(), baseline, error)) {
      std::cerr << "solver_bench: cannot read baseline " << options.baseline
                << " " << error << "\n";
      return 2;
    }

    const Metric metrics[] = {
        {"table_build.cells", static_cast<double>(cold_table.cell_count()),
         0.0},
        {"table_build.cold_nodes",
         static_cast<double>(cold_stats.total_nodes_expanded), 0.02},
        {"table_build.warm_nodes",
         static_cast<double>(warm_stats.total_nodes_expanded), 0.02},
        {"table_build.run_count", static_cast<double>(warm_table.run_count()),
         0.02},
        {"table_build.rle_binary_bytes",
         static_cast<double>(warm_table.rle_binary_bytes()), 0.02},
        {"online_solve.cold_nodes", static_cast<double>(online_cold_nodes),
         0.02},
        {"online_solve.warm_nodes", static_cast<double>(online_warm_nodes),
         0.02},
        {"lookup.checksum", static_cast<double>(rle_checksum), 0.02},
    };
    for (const Metric& metric : metrics) {
      const abr::util::Json& found = baseline.get(metric.key);
      if (found.kind != abr::util::Json::Kind::kNumber) {
        std::cerr << "solver_bench: baseline missing " << metric.key << "\n";
        failed = true;
        continue;
      }
      const double expected = found.number;
      const double drift = std::abs(metric.value - expected);
      if (drift > metric.tolerance * expected) {
        std::cerr << "solver_bench: FAIL " << metric.key << " = "
                  << metric.value << " drifted from baseline " << expected
                  << " (tolerance " << metric.tolerance * 100.0 << "%)\n";
        failed = true;
      }
    }
  }

  if (failed) return 1;
  std::cout << "solver_bench: OK (" << build_reduction
            << "x table-build node reduction, " << online_reduction
            << "x online)\n";
  return 0;
}
