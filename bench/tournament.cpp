// Scenario-matrix tournament: every registered controller x trace family x
// delivery scenario, ranked by QoE. Produces BENCH_tournament.json (byte
// identical across runs of the same build and across --threads values)
// plus a text table and, when --baseline is given, gates each cell's
// decisions and rebuffer ratio against the committed baseline.
//
// Usage:
//   tournament [--smoke] [--out FILE] [--baseline FILE] [--traces N]
//              [--duration D] [--seed S] [--threads N]
//
// --smoke runs the reduced CI matrix (2 traces per cell, FCC+HSDPA); the
// default is the full EXPERIMENTS.md matrix. Exit status is non-zero on any
// baseline regression, baseline cell the run no longer produces, or cell
// failure.

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

#include "testing/scenario_matrix.hpp"
#include "util/json.hpp"

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

/// Gates each current cell against the committed baseline: a cell fails
/// when its decision_hash (over every chunk's index, level and skipped
/// flag) differs from the baseline's, i.e. any decision moved, or when its
/// rebuffer ratio exceeds baseline + max(0.02, 50% relative). A baseline
/// cell the run no longer produces (a dropped algorithm, family or
/// scenario) fails too. Cells absent from the baseline (new algorithms)
/// are reported, not gated.
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
  for (const abr::util::Json& expected : baseline_cells) {
    const std::string& algorithm = expected.get("algorithm").text;
    const std::string& family = expected.get("family").text;
    const std::string& scenario = expected.get("scenario").text;
    const auto same_cell = [&](const abr::testing::CellResult& cell) {
      return cell.algorithm == algorithm && cell.family == family &&
             cell.scenario == scenario;
    };
    if (std::none_of(cells.begin(), cells.end(), same_cell)) {
      std::fprintf(stderr, "FAIL %s/%s/%s in baseline but not in this run\n",
                   algorithm.c_str(), family.c_str(), scenario.c_str());
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

  std::string json = "{\n  \"bench\": \"tournament\",\n  \"mode\": \"";
  json += options.smoke ? "smoke" : "full";
  json += "\",\n  \"report\": ";
  json += report.to_json();
  if (!json.empty() && json.back() == '\n') json.pop_back();
  json += "\n}\n";

  std::fputs(report.to_table().c_str(), stdout);

  std::ofstream out(options.out);
  out << json;
  out.close();
  std::fprintf(stderr, "tournament: wall %.1fs, report written to %s\n",
               wall_s, options.out.c_str());

  const int failures =
      options.baseline.empty()
          ? 0
          : gate_against_baseline(options.baseline, report.cells);
  if (failures > 0) {
    std::fprintf(stderr, "tournament: FAIL (%d)\n", failures);
    return 1;
  }
  std::printf("tournament: OK (%zu cells)\n", report.cells.size());
  return 0;
}
