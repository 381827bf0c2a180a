#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/algorithms.hpp"
#include "qoe/qoe.hpp"
#include "testing/fault_plan.hpp"
#include "testing/outage_script.hpp"
#include "trace/generators.hpp"

namespace abr::testing {

/// Delivery condition applied to every session of a tournament cell.
enum class ScenarioKind {
  kClean,       ///< plain TraceChunkSource (Eq. 2 virtual time)
  kFaultStorm,  ///< FaultPlan injected through FaultySource
  kOutage,      ///< OutageScript origin kills through SimulatedOriginSource
  kRangeChaos,  ///< the fault storm with sub-chunk abort/resume enabled
};

const char* scenario_kind_name(ScenarioKind kind);

/// One column of the scenario axis. The per-session fault-plan seed is
/// derived from `faults.seed` and the trace index, so every cell is a pure
/// function of the matrix configuration.
struct Scenario {
  ScenarioKind kind = ScenarioKind::kClean;
  std::string name = "clean";
  FaultPlan faults;            ///< used when kind == kFaultStorm
  OutageScript outages;        ///< used when kind == kOutage
  std::size_t origins = 2;     ///< used when kind == kOutage
  std::uint64_t origin_seed = 0x5eedULL;  ///< breaker/backoff jitter seed

  static Scenario clean();
  /// The default storm: every fault kind at a few percent per attempt.
  static Scenario fault_storm(std::uint64_t seed);
  /// Origin 0 down during [down_s, up_s) with a failover pool of `origins`.
  static Scenario outage(double down_s, double up_s, std::size_t origins = 2);
  /// The same storm as fault_storm(seed), but sessions run with the
  /// sub-chunk abort policy enabled: in-flight transfers that project a
  /// stall are aborted mid-body and resumed at a lower rung (HTTP Range
  /// semantics). Same seed => directly comparable against "faults" cells.
  static Scenario range_chaos(std::uint64_t seed);
};

/// One row group of the trace axis: a seeded synthetic dataset family.
struct TraceFamily {
  trace::DatasetKind kind = trace::DatasetKind::kFcc;
  std::size_t count = 4;       ///< traces (= sessions) per cell
  double duration_s = 320.0;
  std::uint64_t seed = 20150817;
};

/// The full tournament specification. Everything that affects results lives
/// here, and every field is deterministic — two run_tournament calls with
/// equal configs produce byte-identical reports.
struct MatrixConfig {
  /// Competing policies; empty means core::registered_algorithms().
  std::vector<core::Algorithm> algorithms;
  std::vector<TraceFamily> families;
  std::vector<Scenario> scenarios;
  qoe::QoePreference preference = qoe::QoePreference::kBalanced;
  double buffer_capacity_s = 30.0;
  std::size_t mpc_horizon = 5;
  /// Worker threads for the cell sweep (util::parallel_for); 0 = hardware
  /// concurrency. Thread count never changes results, only wall time.
  std::size_t threads = 0;

  /// The CI matrix: every registered algorithm x {fcc, hsdpa} x all three
  /// scenario kinds, 2 traces per cell.
  static MatrixConfig smoke();
  /// The EXPERIMENTS.md matrix: all three trace families, more traces.
  static MatrixConfig full();
};

/// Aggregates of one (algorithm, family, scenario) cell over its sessions.
/// Only deterministic quantities: solver effort is counted in
/// branch-and-bound search nodes, never wall time, so the JSON report is
/// byte-identical across runs and machines of the same build.
struct CellResult {
  std::string algorithm;
  std::string family;
  std::string scenario;
  std::size_t sessions = 0;
  double mean_qoe = 0.0;
  double mean_bitrate_kbps = 0.0;
  double mean_rebuffer_s = 0.0;
  /// Total rebuffer time / total video duration across the cell's sessions.
  double rebuffer_ratio = 0.0;
  double mean_switches = 0.0;
  std::size_t degraded_chunks = 0;
  std::size_t skipped_chunks = 0;
  std::size_t total_attempts = 0;
  std::size_t decide_calls = 0;
  std::size_t solver_nodes = 0;
  /// FNV-1a over every (chunk index, level, skipped) decision of the cell —
  /// pins the entire decision surface in one number.
  std::uint64_t decision_hash = 0;
  /// Sub-chunk delivery attribution; populated (and emitted in the JSON)
  /// only for abort-enabled scenarios so that pre-existing baseline cell
  /// lines stay byte-identical.
  bool abort_enabled = false;
  std::size_t aborted_chunks = 0;
  std::size_t partial_chunks = 0;
  double wasted_kilobits = 0.0;
};

/// Per-algorithm aggregate across every cell (all algorithms see identical
/// traces and scenarios, so straight means are comparable).
struct AlgorithmRank {
  std::string algorithm;
  std::size_t sessions = 0;
  double mean_qoe = 0.0;
  double mean_rebuffer_ratio = 0.0;
  double mean_bitrate_kbps = 0.0;
  double mean_switches = 0.0;
  std::size_t solver_nodes = 0;
};

struct TournamentReport {
  /// Enumeration order: algorithm-major, then family, then scenario.
  std::vector<CellResult> cells;
  /// Sorted by mean QoE descending (ties by name for determinism).
  std::vector<AlgorithmRank> ranking;

  /// Deterministic JSON document (util::json_number rendering): the
  /// BENCH_tournament.json payload. Byte-identical across runs.
  std::string to_json() const;
  /// Ranked text table (the tools/abrreport idiom) for terminals and docs.
  std::string to_table() const;
};

/// Runs the whole matrix, cells in parallel, sessions within a cell
/// sequential. Throws if the config has no algorithms after defaulting, no
/// families, or no scenarios; exceptions from any cell propagate.
TournamentReport run_tournament(const MatrixConfig& config);

}  // namespace abr::testing
