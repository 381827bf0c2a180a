#include "testing/solver_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace abr::testing {

core::HorizonSolution exhaustive_reference(
    const media::VideoManifest& manifest, const qoe::QoeModel& qoe,
    const core::HorizonProblem& problem) {
  const qoe::QoeWeights& w = qoe.weights();
  const std::size_t levels = manifest.level_count();
  const std::size_t horizon =
      std::min(problem.predicted_kbps.size(),
               manifest.chunk_count() - problem.first_chunk);

  // The forecasts HorizonSolver::solve rejects: a plan scored from an
  // infinite download time, or from steps whose worst magnitudes (the best
  // |quality| and the largest switch, plus mu_event and mu times the longest
  // download) do not sum to a finite total, has no well-defined objective.
  double step_scale = 0.0;
  double max_switch = 0.0;
  for (std::size_t level = 0; level < levels; ++level) {
    const double q = qoe.quality(manifest.bitrate_kbps(level));
    step_scale = std::max(step_scale, std::abs(q));
    for (std::size_t prev = 0; prev < levels; ++prev) {
      const double p = qoe.quality(manifest.bitrate_kbps(prev));
      max_switch = std::max(max_switch, w.lambda * std::abs(q - p));
    }
  }
  step_scale += max_switch;
  double worst_total = 0.0;
  for (std::size_t depth = 0; depth < horizon; ++depth) {
    const double forecast = problem.predicted_kbps[depth];
    if (!(forecast > 0.0)) {
      throw std::invalid_argument("HorizonProblem: non-positive forecast");
    }
    const std::size_t chunk = problem.first_chunk + depth;
    double longest = 0.0;
    for (std::size_t level = 0; level < levels; ++level) {
      const double download_s =
          manifest.chunk_kilobits(chunk, level) / forecast;
      if (!std::isfinite(download_s)) {
        throw std::invalid_argument(
            "HorizonProblem: forecast makes a download time infinite");
      }
      longest = std::max(longest, download_s);
    }
    worst_total += step_scale + w.mu_event + w.mu * longest;
  }
  if (!std::isfinite(worst_total)) {
    throw std::invalid_argument(
        "HorizonProblem: forecast makes the rebuffer penalty overflow");
  }

  core::HorizonSolution best;
  best.objective = -std::numeric_limits<double>::infinity();
  std::vector<std::size_t> current(horizon);

  auto recurse = [&](auto&& self, std::size_t depth, double buffer,
                     std::size_t prev, bool has_prev, double value) -> void {
    if (depth == horizon) {
      if (value > best.objective) {
        best.objective = value;
        best.levels = current;
      }
      return;
    }
    for (std::size_t i = 0; i < levels; ++i) {
      const std::size_t level = levels - 1 - i;
      const double download_s =
          manifest.chunk_kilobits(problem.first_chunk + depth, level) /
          problem.predicted_kbps[depth];
      const double rebuffer = std::max(0.0, download_s - buffer);
      const double next_buffer =
          std::min(std::max(buffer - download_s, 0.0) +
                       manifest.chunk_duration_s(),
                   problem.buffer_capacity_s);
      double step_value =
          qoe.quality(manifest.bitrate_kbps(level)) - w.mu * rebuffer -
          (rebuffer > 0.0 ? w.mu_event : 0.0);
      if (has_prev) {
        step_value -= w.lambda *
                      std::abs(qoe.quality(manifest.bitrate_kbps(level)) -
                               qoe.quality(manifest.bitrate_kbps(prev)));
      }
      current[depth] = level;
      self(self, depth + 1, next_buffer, level, true, value + step_value);
    }
  };
  recurse(recurse, 0, problem.buffer_s, problem.prev_level, problem.has_prev,
          0.0);
  return best;
}

}  // namespace abr::testing
