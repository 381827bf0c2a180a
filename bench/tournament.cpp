// Scenario-matrix tournament: every registered controller x trace family x
// delivery scenario, ranked by QoE. Produces BENCH_tournament.json (byte
// identical across runs of the same build) plus a text table, then runs the
// DP-vs-BnB solver cross-check and, when --baseline is given, gates each
// cell's decisions and rebuffer ratio against the committed baseline.
//
// Usage:
//   tournament [--smoke] [--out FILE] [--baseline FILE] [--traces N]
//              [--duration D] [--seed S] [--threads N]
//
// --smoke runs the reduced CI matrix (2 traces per cell, FCC+HSDPA); the
// default is the full EXPERIMENTS.md matrix. Exit status is non-zero on any
// cross-check violation, baseline regression, or cell failure.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/dp_solver.hpp"
#include "core/horizon_solver.hpp"
#include "media/manifest.hpp"
#include "qoe/qoe.hpp"
#include "testing/scenario_matrix.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

struct Options {
  bool smoke = false;
  std::string out = "BENCH_tournament.json";
  std::string baseline;
  std::size_t traces = 0;     // 0 = keep the matrix default
  double duration_s = 0.0;    // 0 = keep the matrix default
  std::uint64_t seed = 0;     // 0 = keep the matrix default
  std::size_t threads = 0;
};

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "tournament: %s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--out") {
      options.out = next("--out");
    } else if (arg == "--baseline") {
      options.baseline = next("--baseline");
    } else if (arg == "--traces") {
      options.traces = std::strtoull(next("--traces").c_str(), nullptr, 10);
    } else if (arg == "--duration") {
      options.duration_s = std::strtod(next("--duration").c_str(), nullptr);
    } else if (arg == "--seed") {
      options.seed = std::strtoull(next("--seed").c_str(), nullptr, 10);
    } else if (arg == "--threads") {
      options.threads = std::strtoull(next("--threads").c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "tournament: unknown option %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return options;
}

/// Exercises the value-iteration backend against branch-and-bound over a
/// seeded grid of randomized horizon problems. Every solve must land within
/// the documented discretization tolerance of the exact optimum.
abr::core::DpHorizonSolver::CrossCheckStats run_cross_check(
    const abr::media::VideoManifest& manifest, const abr::qoe::QoeModel& qoe,
    double* max_bound_out) {
  abr::core::DpSolverConfig config;
  config.cross_check = true;
  abr::core::DpHorizonSolver solver(manifest, qoe, config);

  const std::uint64_t cross_check_seed = 0xd1ce;
  abr::util::Rng rng(cross_check_seed);
  const std::size_t levels = manifest.level_count();
  double max_bound = 0.0;
  for (int i = 0; i < 200; ++i) {
    std::vector<double> forecast(5);
    double kbps = rng.uniform(200.0, 5000.0);
    for (double& f : forecast) {
      kbps = std::min(6000.0, std::max(150.0, kbps * rng.uniform(0.6, 1.5)));
      f = kbps;
    }
    abr::core::HorizonProblem problem;
    problem.buffer_s = rng.uniform(0.0, 30.0);
    problem.prev_level = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(levels) - 1));
    problem.has_prev = rng.uniform() < 0.8;
    problem.predicted_kbps = forecast;
    problem.first_chunk = static_cast<std::size_t>(rng.uniform_int(0, 40));
    problem.buffer_capacity_s = 30.0;
    max_bound = std::max(max_bound, solver.tolerance_bound(problem));
    solver.solve(problem);
  }
  *max_bound_out = max_bound;
  return solver.cross_check_stats();
}

/// Gates each current cell against the committed baseline: a cell fails
/// when its decision_hash (over every chunk's index, level and skipped
/// flag) differs from the baseline's, i.e. any decision moved, or when its
/// rebuffer ratio exceeds baseline + max(0.02, 50% relative). Cells absent
/// from the baseline (new algorithms) are reported, not gated.
int gate_against_baseline(const std::string& baseline_path,
                          const std::vector<abr::testing::CellResult>& cells) {
  std::ifstream in(baseline_path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  abr::util::Json baseline;
  std::string error;
  if (!in || !abr::util::parse_json(buffer.str(), baseline, error)) {
    std::fprintf(stderr, "tournament: cannot read baseline %s %s\n",
                 baseline_path.c_str(), error.c_str());
    return 1;
  }
  const std::vector<abr::util::Json>& baseline_cells =
      baseline.get("report.cells").items;

  int failures = 0;
  std::size_t skipped = 0;
  for (const auto& cell : cells) {
    // A baseline cell is identified by its algorithm/family/scenario.
    const auto match = std::find_if(
        baseline_cells.begin(), baseline_cells.end(),
        [&cell](const abr::util::Json& candidate) {
          return candidate.get("algorithm").text == cell.algorithm &&
                 candidate.get("family").text == cell.family &&
                 candidate.get("scenario").text == cell.scenario;
        });
    if (match == baseline_cells.end()) {
      ++skipped;
      continue;
    }
    char hash[17];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(cell.decision_hash));
    const abr::util::Json& expected_hash = match->get("decision_hash");
    if (expected_hash.kind != abr::util::Json::Kind::kString ||
        expected_hash.text != hash) {
      std::fprintf(stderr, "FAIL %s/%s/%s decision_hash %s differs from "
                   "baseline %s\n", cell.algorithm.c_str(),
                   cell.family.c_str(), cell.scenario.c_str(), hash,
                   expected_hash.text.c_str());
      ++failures;
    }
    const abr::util::Json& ratio = match->get("rebuffer_ratio");
    if (ratio.kind != abr::util::Json::Kind::kNumber) {
      std::fprintf(stderr, "tournament: baseline cell %s/%s/%s lacks "
                   "rebuffer_ratio\n", cell.algorithm.c_str(),
                   cell.family.c_str(), cell.scenario.c_str());
      ++failures;
      continue;
    }
    const double expected = ratio.number;
    const double allowance = std::max(0.02, 0.5 * expected);
    if (cell.rebuffer_ratio > expected + allowance) {
      std::fprintf(stderr,
                   "FAIL %s/%s/%s rebuffer_ratio %.4f exceeds baseline %.4f "
                   "(+%.4f allowed)\n",
                   cell.algorithm.c_str(), cell.family.c_str(),
                   cell.scenario.c_str(), cell.rebuffer_ratio, expected,
                   allowance);
      ++failures;
    }
  }
  if (skipped > 0) {
    std::fprintf(stderr, "tournament: %zu cells not in baseline (skipped)\n",
                 skipped);
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);

  abr::testing::MatrixConfig config = options.smoke
                                          ? abr::testing::MatrixConfig::smoke()
                                          : abr::testing::MatrixConfig::full();
  config.threads = options.threads;
  for (auto& family : config.families) {
    if (options.traces > 0) family.count = options.traces;
    if (options.duration_s > 0.0) family.duration_s = options.duration_s;
    if (options.seed > 0) family.seed = options.seed;
  }

  const auto start = std::chrono::steady_clock::now();
  abr::testing::TournamentReport report;
  try {
    report = abr::testing::run_tournament(config);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "tournament: cell failure: %s\n", error.what());
    return 1;
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const abr::media::VideoManifest manifest =
      abr::media::VideoManifest::envivio_default();
  const abr::qoe::QoeModel qoe(abr::media::QualityFunction::identity(),
                               abr::qoe::preset_weights(config.preference));
  double max_bound = 0.0;
  const auto stats = run_cross_check(manifest, qoe, &max_bound);

  std::string json = "{\n  \"bench\": \"tournament\",\n  \"mode\": \"";
  json += options.smoke ? "smoke" : "full";
  json += "\",\n  \"dp_cross_check\": {\"solves\": ";
  json += std::to_string(stats.solves);
  json += ", \"violations\": ";
  json += std::to_string(stats.violations);
  json += ", \"first_decision_matches\": ";
  json += std::to_string(stats.first_decision_matches);
  json += ", \"max_gap\": ";
  json += abr::util::json_number(stats.max_gap);
  json += ", \"max_tolerance_bound\": ";
  json += abr::util::json_number(max_bound);
  json += "},\n  \"report\": ";
  json += report.to_json();
  if (!json.empty() && json.back() == '\n') json.pop_back();
  json += "\n}\n";

  std::fputs(report.to_table().c_str(), stdout);
  std::printf("dp cross-check: %zu solves, %zu violations, %zu/%zu first "
              "decisions match, max gap %.6g (bound %.6g)\n",
              stats.solves, stats.violations, stats.first_decision_matches,
              stats.solves, stats.max_gap, max_bound);

  std::ofstream out(options.out);
  out << json;
  out.close();
  std::fprintf(stderr, "tournament: wall %.1fs, report written to %s\n",
               wall_s, options.out.c_str());

  int failures = 0;
  if (stats.violations != 0) {
    std::fprintf(stderr, "FAIL dp cross-check: %zu violations (max gap %.6g, "
                 "bound %.6g)\n", stats.violations, stats.max_gap, max_bound);
    ++failures;
  }
  if (!options.baseline.empty()) {
    failures += gate_against_baseline(options.baseline, report.cells);
  }
  if (failures > 0) {
    std::fprintf(stderr, "tournament: FAIL (%d)\n", failures);
    return 1;
  }
  std::printf("tournament: OK (%zu cells)\n", report.cells.size());
  return 0;
}
