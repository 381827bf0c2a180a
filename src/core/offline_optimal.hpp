#pragma once

#include <vector>

#include "media/manifest.hpp"
#include "qoe/qoe.hpp"
#include "sim/player.hpp"
#include "trace/throughput_trace.hpp"

namespace abr::core {

/// Parameters of the offline QoE(OPT) computation (Section 7.1.2): the
/// maximum QoE achievable with perfect knowledge of the entire throughput
/// trace.
struct PlannerConfig {
  /// Beam width: non-dominated states kept per chunk step. 1024 is within
  /// measurement noise of exhaustive search on the paper's workload (see
  /// tests/offline_optimal_test.cpp); raise it for tighter bounds.
  std::size_t beam_width = 1024;

  /// State-dedup quantization. Two states matching in quantized (time,
  /// buffer) and previous level are merged keeping the higher value.
  double time_quant_s = 0.25;
  double buffer_quant_s = 0.25;

  /// The paper's footnote 6 relaxes the offline optimum to a continuous
  /// bitrate range [Rmin, Rmax] to keep it tractable in CPLEX; we
  /// approximate the same relaxation with a fine geometric ladder.
  bool continuous_relaxation = true;
  std::size_t relaxation_levels = 15;
};

/// The plan found: per-chunk bitrates and the resulting QoE.
struct PlanResult {
  std::vector<double> bitrates_kbps;  ///< per chunk
  double qoe = 0.0;
  double startup_delay_s = 0.0;
  double total_rebuffer_s = 0.0;
};

/// Computes QoE(OPT): offline QoE maximization over the whole video with
/// the full trace known (problem QOE_MAX of Fig. 3). A beam search over
/// (time, buffer, previous level) states with dominance dedup replaces the
/// paper's CPLEX solve; plan_exhaustive() provides ground truth for small
/// instances and the test suite verifies the beam matches it.
///
/// Both searches step sim::Playback, the player's own Eq. (3)-(4) dynamics
/// (startup policy, Bmax wait, the late fixed-delay rule), and score each
/// chunk with one Eq. (5) step, so a plan played through PlayerSession
/// reports the planner's startup delay and rebuffering, and its value is a
/// true upper bound for any online controller run under the same
/// SessionConfig.
class OfflineOptimalPlanner {
 public:
  /// All referents must outlive the planner. Throws std::invalid_argument
  /// for a session config sim::Playback rejects, or a bad PlannerConfig.
  OfflineOptimalPlanner(const media::VideoManifest& manifest,
                        const qoe::QoeModel& qoe,
                        const sim::SessionConfig& session,
                        PlannerConfig config = {});

  /// Beam-search plan over the full video.
  PlanResult plan(const trace::ThroughputTrace& trace) const;

  /// Exact enumeration over ladder^K; only feasible for small K * levels
  /// (guarded: throws std::invalid_argument if the space exceeds ~10^7).
  PlanResult plan_exhaustive(const trace::ThroughputTrace& trace) const;

  /// The ladder the planner actually optimizes over (the manifest's, or the
  /// fine relaxation ladder).
  const std::vector<double>& planning_ladder_kbps() const { return ladder_; }

 private:
  /// A partial plan's end state (offline_optimal.cpp).
  struct Node;

  /// Plays `chunk` at `level` after `from` and adds its Eq. (5) step: the
  /// one transition both searches take.
  Node step(const trace::ThroughputTrace& trace, const Node& from,
            std::size_t chunk, std::size_t level) const;

  double chunk_kilobits(std::size_t chunk, std::size_t level) const;

  const media::VideoManifest* manifest_;
  const qoe::QoeModel* qoe_;
  sim::SessionConfig session_;
  PlannerConfig config_;
  std::vector<double> ladder_;
  std::vector<double> ladder_quality_;
  std::vector<double> complexity_;  ///< per-chunk VBR size factor
};

/// n-QoE(A) = QoE(A) / QoE(OPT) (Section 7.1.2). Guards against a
/// non-positive optimum (degenerate traces) by returning 0.
double normalized_qoe(double qoe, double optimal_qoe);

}  // namespace abr::core
