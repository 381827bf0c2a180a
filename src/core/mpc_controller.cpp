#include "core/mpc_controller.hpp"

#include <algorithm>
#include <cassert>
#include <span>
#include <vector>

#include "obs/names.hpp"
#include "obs/span.hpp"

namespace abr::core {

namespace {

const char* mpc_variant_name(const MpcConfig& config) {
  return config.robust ? "RobustMPC" : "MPC";
}

}  // namespace

MpcController::MpcController(const media::VideoManifest& manifest,
                             const qoe::QoeModel& qoe, MpcConfig config)
    : solver_(manifest, qoe),
      config_(config),
      solve_histogram_(&obs::MetricsRegistry::global().histogram(
          obs::kSolveLatencyUs,
          obs::solve_algorithm_label(mpc_variant_name(config)))),
      error_tracker_(config.error_window) {
  assert(config.horizon >= 1);
}

void MpcController::reset() {
  error_tracker_.reset();
  pending_prediction_.reset();
  history_seen_ = 0;
  last_effective_kbps_ = 0.0;
  previous_plan_.clear();
  telemetry_ = sim::DecisionTelemetry{};
}

std::string MpcController::name() const { return mpc_variant_name(config_); }

std::size_t MpcController::decide(const sim::AbrState& state,
                                  const media::VideoManifest& manifest) {
  // Close the loop on the previous forecast: the newest history entry is the
  // measured throughput of the chunk we predicted last time.
  if (pending_prediction_.has_value() &&
      state.throughput_history_kbps.size() > history_seen_) {
    error_tracker_.record(*pending_prediction_,
                          state.throughput_history_kbps.back());
    history_seen_ = state.throughput_history_kbps.size();
  }

  // No forecast yet (first chunk): start at the lowest level, as real
  // players do.
  if (state.prediction_kbps.empty() || state.prediction_kbps.front() <= 0.0) {
    pending_prediction_.reset();
    last_effective_kbps_ = 0.0;
    previous_plan_.clear();
    telemetry_ = sim::DecisionTelemetry{};  // cold start is a rule decision
    telemetry_.error_window = error_tracker_.max_abs_error();
    return 0;
  }

  const std::size_t horizon =
      std::min(config_.horizon, state.prediction_kbps.size());
  forecast_.assign(state.prediction_kbps.begin(),
                   state.prediction_kbps.begin() +
                       static_cast<std::ptrdiff_t>(horizon));
  if (config_.robust) {
    for (double& c : forecast_) c = error_tracker_.lower_bound(c);
  }
  last_effective_kbps_ = forecast_.front();

  HorizonProblem problem;
  problem.buffer_s = state.buffer_s;
  problem.prev_level = state.prev_level;
  problem.has_prev = state.has_prev;
  problem.predicted_kbps = forecast_;
  problem.first_chunk = state.chunk_index;
  problem.buffer_capacity_s = config_.buffer_capacity_s;
  // Warm start with the tail of the previous chunk's plan: its first level
  // was applied, so levels [1..] are a strong incumbent for this horizon.
  // Exactness preserving — an empty or stale hint cannot change the result.
  if (!previous_plan_.empty()) {
    problem.warm_hint = std::span<const std::size_t>(previous_plan_)
                            .subspan(1);
  }

  HorizonSolution solution;
  {
    obs::LatencyTimer timer(solve_histogram_);
    solution = solver_.solve(problem, workspace_);
  }
  (void)manifest;

  // Remember the *raw* forecast for the chunk we are about to download so
  // the error tracker compares like with like (Section 7.1.2 defines err on
  // the predictor's output, not the deflated bound).
  pending_prediction_ = state.prediction_kbps.front();
  telemetry_.nodes_expanded = solution.nodes_expanded;
  telemetry_.warm_start = !problem.warm_hint.empty();
  telemetry_.path = "online";
  telemetry_.effective_forecast_kbps = last_effective_kbps_;
  telemetry_.error_window = error_tracker_.max_abs_error();
  const std::size_t decision = solution.levels.front();
  previous_plan_ = std::move(solution.levels);
  return decision;
}

}  // namespace abr::core
