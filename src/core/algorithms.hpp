#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/fastmpc_table.hpp"
#include "media/manifest.hpp"
#include "predict/predictor.hpp"
#include "qoe/qoe.hpp"
#include "sim/controller.hpp"

namespace abr::core {

/// Every bitrate controller the repo can instantiate: the algorithms
/// compared in Section 7 of the paper plus later additions.
enum class Algorithm {
  kRateBased,    ///< RB: max bitrate under the harmonic-mean prediction
  kBufferBased,  ///< BB: Huang et al. reservoir/cushion rate map
  kFastMpc,      ///< FastMPC: offline table, horizon 5, 100x100 bins
  kRobustMpc,    ///< RobustMPC: online MPC on the error-deflated forecast
  kMpc,          ///< basic MPC: online solve on the point forecast
  kMpcOpt,       ///< MPC-OPT: basic MPC fed perfect 5-chunk predictions
  kDashJs,       ///< original dash.js rule-based logic
  kFestive,      ///< FESTIVE with alpha = 12
  kBola,         ///< BOLA: buffer-level Lyapunov control (Spiteri et al.)
};

/// Number of Algorithm enumerators. make_algorithm, algorithm_name, and the
/// registry tests all enumerate [0, kAlgorithmCount); a static_assert in
/// algorithms.cpp trips when the enum grows without this constant (and
/// therefore the registry) following, so a new policy cannot silently skip
/// factory or test coverage.
inline constexpr std::size_t kAlgorithmCount = 9;

const char* algorithm_name(Algorithm algorithm);

/// All algorithms in the order the paper's figures list them (the Fig. 8-10
/// comparison set only — stable across repo growth).
std::vector<Algorithm> all_algorithms();

/// Every registered algorithm, in enum order. The tournament and the
/// registry tests iterate this, not a hand-maintained list.
std::vector<Algorithm> registered_algorithms();

/// A ready-to-run (controller, predictor) pair configured exactly as in
/// Section 7.1.2. Owns both objects; reusable across sessions (the player
/// resets the controller each run).
struct AlgorithmInstance {
  std::unique_ptr<sim::BitrateController> controller;
  std::unique_ptr<predict::ThroughputPredictor> predictor;
};

/// Knobs that experiments sweep.
struct AlgorithmOptions {
  /// Must match SessionConfig::buffer_capacity_s.
  double buffer_capacity_s = 30.0;
  /// MPC-family look-ahead horizon.
  std::size_t mpc_horizon = 5;
  /// Harmonic-mean window (paper: past 5 chunks).
  std::size_t predictor_window = 5;
  /// Shared FastMPC table; built on demand (and cached by the caller) if
  /// null when kFastMpc is requested.
  std::shared_ptr<const FastMpcTable> fastmpc_table;
  /// Seed for stochastic predictors (none of the defaults need it, but
  /// custom predictors may).
  std::uint64_t seed = 1;
};

/// Instantiates `algorithm` against a manifest and QoE model with the
/// paper's configuration. The manifest and QoE model must outlive the
/// returned instance.
AlgorithmInstance make_algorithm(Algorithm algorithm,
                                 const media::VideoManifest& manifest,
                                 const qoe::QoeModel& qoe,
                                 const AlgorithmOptions& options = {});

/// Builds (or reuses) the default FastMPC table for a manifest/QoE pair:
/// 100 buffer bins, 100 throughput bins, horizon 5.
std::shared_ptr<const FastMpcTable> default_fastmpc_table(
    const media::VideoManifest& manifest, const qoe::QoeModel& qoe,
    double buffer_capacity_s);

}  // namespace abr::core
