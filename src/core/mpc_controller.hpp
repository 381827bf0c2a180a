#pragma once

#include <optional>
#include <vector>

#include "core/horizon_solver.hpp"
#include "obs/metrics.hpp"
#include "predict/error_tracker.hpp"
#include "sim/controller.hpp"

namespace abr::core {

/// Configuration for the MPC family (Section 4 of the paper).
struct MpcConfig {
  /// Look-ahead horizon N, chunks. The paper uses 5 (Section 7.1.2) and
  /// sweeps 2-9 in Fig. 12b.
  std::size_t horizon = 5;

  /// RobustMPC (Section 4.3): feed the solver the throughput lower bound
  /// C_hat / (1 + err) instead of the point forecast, where err is the
  /// maximum absolute percentage prediction error over the last
  /// `error_window` chunks. By Theorem 1 this is exactly the max-min robust
  /// optimum.
  bool robust = false;
  std::size_t error_window = 5;

  /// Must match the player's SessionConfig::buffer_capacity_s; the solver
  /// models the Eq. (4) buffer-full clamp.
  double buffer_capacity_s = 30.0;
};

/// Model predictive control bitrate adaptation (Algorithm 1 of the paper):
/// at every chunk boundary, solve QOE_MAX_STEADY over the next N chunks
/// using the predictor's forecast and apply the first decision.
///
/// With config.robust, implements RobustMPC: the forecast is deflated by the
/// recently observed worst-case prediction error before solving. Theorem 1
/// proves this equals optimizing worst-case QoE over the forecast interval,
/// and test MpcTheorem1 verifies it against an explicit max-min evaluation.
///
/// Each solve is warm-started with the previous chunk's solution shifted by
/// one (the tail of the old plan is a strong incumbent for the new horizon)
/// and reuses a solver workspace, so the per-decision hot path neither
/// allocates nor searches from scratch. Warm starting is exactness
/// preserving — decisions are bit-identical to cold solves (see
/// HorizonSolver) — which the golden decision logs pin.
class MpcController final : public sim::BitrateController {
 public:
  /// The model and manifest must outlive the controller.
  MpcController(const media::VideoManifest& manifest, const qoe::QoeModel& qoe,
                MpcConfig config);

  std::size_t decide(const sim::AbrState& state,
                     const media::VideoManifest& manifest) override;
  std::size_t prediction_horizon() const override { return config_.horizon; }
  void reset() override;
  std::string name() const override;
  const sim::DecisionTelemetry* last_decision() const override {
    return &telemetry_;
  }

  /// The effective forecast used for the last decision after any robustness
  /// deflation (observability for tests and logging).
  double last_effective_forecast_kbps() const { return last_effective_kbps_; }

  const MpcConfig& config() const { return config_; }

 private:
  HorizonSolver solver_;
  MpcConfig config_;
  /// Per-decision horizon-solve latency, labeled algorithm="MPC" or
  /// "RobustMPC" — the Table 1 / §5 overhead claim as a live metric.
  obs::Histogram* solve_histogram_;
  predict::PredictionErrorTracker error_tracker_;
  std::optional<double> pending_prediction_;  ///< forecast for the in-flight chunk
  std::size_t history_seen_ = 0;
  double last_effective_kbps_ = 0.0;
  /// Reused solver scratch + the previous solution's level plan (next
  /// solve's warm-start hint). Both cleared by reset().
  HorizonSolver::Workspace workspace_;
  std::vector<std::size_t> previous_plan_;
  std::vector<double> forecast_;  ///< reused per-decision forecast buffer
  sim::DecisionTelemetry telemetry_;  ///< refreshed by each decide()
};

}  // namespace abr::core
