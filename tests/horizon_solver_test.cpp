#include "core/horizon_solver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "test_helpers.hpp"
#include "testing/solver_oracle.hpp"
#include "util/rng.hpp"

namespace abr::core {
namespace {

/// Straight-line reference: enumerate every sequence and evaluate the
/// objective with no pruning. Must agree with HorizonSolver exactly.
double brute_force_objective(const media::VideoManifest& manifest,
                             const qoe::QoeModel& qoe,
                             const HorizonProblem& problem) {
  const std::size_t horizon =
      std::min(problem.predicted_kbps.size(),
               manifest.chunk_count() - problem.first_chunk);
  const qoe::QoeWeights& w = qoe.weights();
  double best = -std::numeric_limits<double>::infinity();

  auto recurse = [&](auto&& self, std::size_t depth, double buffer,
                     std::size_t prev, bool has_prev, double value) -> void {
    if (depth == horizon) {
      best = std::max(best, value);
      return;
    }
    for (std::size_t level = 0; level < manifest.level_count(); ++level) {
      const double download =
          manifest.chunk_kilobits(problem.first_chunk + depth, level) /
          problem.predicted_kbps[depth];
      const double rebuffer = std::max(0.0, download - buffer);
      const double next_buffer =
          std::min(std::max(buffer - download, 0.0) +
                       manifest.chunk_duration_s(),
                   problem.buffer_capacity_s);
      double step = qoe.quality(manifest.bitrate_kbps(level)) - w.mu * rebuffer;
      if (has_prev) {
        step -= w.lambda * std::abs(qoe.quality(manifest.bitrate_kbps(level)) -
                                    qoe.quality(manifest.bitrate_kbps(prev)));
      }
      self(self, depth + 1, next_buffer, level, true, value + step);
    }
  };
  recurse(recurse, 0, problem.buffer_s, problem.prev_level, problem.has_prev,
          0.0);
  return best;
}

TEST(HorizonSolver, AmpleThroughputPicksTopBitrate) {
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  HorizonSolver solver(manifest, qoe);

  const std::vector<double> forecast(5, 50000.0);
  HorizonProblem problem;
  problem.buffer_s = 20.0;
  problem.prev_level = 2;
  problem.has_prev = true;
  problem.predicted_kbps = forecast;
  const HorizonSolution solution = solver.solve(problem);
  for (const std::size_t level : solution.levels) {
    EXPECT_EQ(level, manifest.level_count() - 1);
  }
}

TEST(HorizonSolver, StarvedLinkPicksBottomBitrate) {
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  HorizonSolver solver(manifest, qoe);

  const std::vector<double> forecast(5, 100.0);  // below the lowest level
  HorizonProblem problem;
  problem.buffer_s = 0.5;
  problem.prev_level = 0;
  problem.has_prev = true;
  problem.predicted_kbps = forecast;
  const HorizonSolution solution = solver.solve(problem);
  for (const std::size_t level : solution.levels) {
    EXPECT_EQ(level, 0u);
  }
}

TEST(HorizonSolver, SmoothnessSuppressesOneChunkSpikes) {
  // Throughput allows the top level for exactly one middle chunk; with the
  // balanced lambda the optimal plan should not bounce up and back.
  const auto manifest = media::VideoManifest::cbr(10, 4.0, {300.0, 3000.0});
  const auto qoe = qoe::QoeModel(media::QualityFunction::identity(),
                                 qoe::QoeWeights{2.0, 3000.0, 3000.0});
  HorizonSolver solver(manifest, qoe);
  const std::vector<double> forecast = {400.0, 4000.0, 400.0};
  HorizonProblem problem;
  problem.buffer_s = 10.0;
  problem.prev_level = 0;
  problem.has_prev = true;
  problem.predicted_kbps = forecast;
  const HorizonSolution solution = solver.solve(problem);
  // Up-and-down would gain 2700 quality once but pay 2 * 2 * 2700 smoothing.
  EXPECT_EQ(solution.levels, (std::vector<std::size_t>{0, 0, 0}));
}

TEST(HorizonSolver, ObjectiveMatchesManualComputation) {
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  HorizonSolver solver(manifest, qoe);
  // One-step horizon from ample buffer: objective = q(top) (no penalties).
  const std::vector<double> forecast = {10000.0};
  HorizonProblem problem;
  problem.buffer_s = 30.0;
  problem.prev_level = 2;
  problem.has_prev = true;
  problem.predicted_kbps = forecast;
  const HorizonSolution solution = solver.solve(problem);
  EXPECT_NEAR(solution.objective, 1500.0, 1e-9);
}

TEST(HorizonSolver, HorizonTruncatesAtVideoEnd) {
  const auto manifest = testing::small_manifest();  // 8 chunks
  const auto qoe = testing::balanced_qoe();
  HorizonSolver solver(manifest, qoe);
  const std::vector<double> forecast(5, 1000.0);
  HorizonProblem problem;
  problem.buffer_s = 10.0;
  problem.prev_level = 0;
  problem.has_prev = true;
  problem.predicted_kbps = forecast;
  problem.first_chunk = 6;  // only chunks 6 and 7 remain
  const HorizonSolution solution = solver.solve(problem);
  EXPECT_EQ(solution.levels.size(), 2u);
}

TEST(HorizonSolver, RejectsInvalidProblems) {
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  HorizonSolver solver(manifest, qoe);

  HorizonProblem out_of_range;
  const std::vector<double> forecast(3, 1000.0);
  out_of_range.predicted_kbps = forecast;
  out_of_range.first_chunk = 100;
  EXPECT_THROW(solver.solve(out_of_range), std::invalid_argument);

  HorizonProblem empty;
  EXPECT_THROW(solver.solve(empty), std::invalid_argument);

  HorizonProblem bad_forecast;
  const std::vector<double> zero(3, 0.0);
  bad_forecast.predicted_kbps = zero;
  EXPECT_THROW(solver.solve(bad_forecast), std::invalid_argument);
}

/// A denormal forecast passes the > 0 check but makes every download time
/// overflow to +inf: with mu = 0 each step would score q - 0 * inf = NaN,
/// with mu > 0 every plan would score -inf. Both the solver (cold, warm,
/// with and without a Workspace) and the exhaustive reference reject it.
TEST(HorizonSolver, RejectsForecastsWhoseDownloadTimesOverflow) {
  const auto manifest = media::VideoManifest::envivio_default();
  // Download times that overflow (denormal forecasts, any mu), then finite
  // ones whose rebuffer penalty does (mu = 3000 only): mu times one top-rung
  // download at 1e-303 kbps, and the sum over the five chunks at 5e-301
  // kbps, where each chunk's own penalty is still finite.
  ASSERT_TRUE(std::isfinite(3000.0 * manifest.chunk_kilobits(0, 4) / 5e-301));
  const std::vector<std::pair<double, std::vector<double>>> cases = {
      {0.0, {5e-324, 1e-320}}, {3000.0, {5e-324, 1e-320, 1e-303, 5e-301}}};
  for (const auto& [mu, forecasts] : cases) {
    qoe::QoeWeights weights = qoe::QoeWeights::balanced();
    weights.mu = mu;
    weights.mu_startup = mu;
    const qoe::QoeModel qoe(media::QualityFunction::identity(), weights);
    const HorizonSolver solver(manifest, qoe);
    HorizonSolver::Workspace workspace;
    for (const double kbps : forecasts) {
      const std::vector<double> forecast(5, kbps);
      HorizonProblem problem;
      problem.buffer_s = 10.0;
      problem.prev_level = 2;
      problem.has_prev = true;
      problem.predicted_kbps = forecast;
      EXPECT_THROW(solver.solve(problem), std::invalid_argument)
          << "mu " << mu << " forecast " << kbps;
      EXPECT_THROW(solver.solve(problem, workspace), std::invalid_argument);
      EXPECT_THROW(testing::exhaustive_reference(manifest, qoe, problem),
                   std::invalid_argument);

      const std::vector<std::size_t> hint(5, 0);
      problem.warm_hint = hint;
      EXPECT_THROW(solver.solve(problem), std::invalid_argument)
          << "warm, mu " << mu << " forecast " << kbps;
      EXPECT_THROW(solver.solve(problem, workspace), std::invalid_argument);
    }
  }
  // With mu = 0 the same slow forecasts score finitely and are accepted.
  const qoe::QoeModel no_stall_penalty(media::QualityFunction::identity(),
                                       qoe::QoeWeights{1.0, 0.0, 0.0});
  const HorizonSolver solver(manifest, no_stall_penalty);
  const std::vector<double> forecast(5, 1e-303);
  HorizonProblem problem;
  problem.buffer_s = 10.0;
  problem.prev_level = 2;
  problem.has_prev = true;
  problem.predicted_kbps = forecast;
  const HorizonSolution solution = solver.solve(problem);
  EXPECT_TRUE(std::isfinite(solution.objective));
  EXPECT_EQ(solution.levels,
            testing::exhaustive_reference(manifest, no_stall_penalty, problem)
                .levels);
}

TEST(HorizonSolver, MatchesBruteForceOnRandomInstances) {
  util::Rng rng(71);
  const auto qoe = testing::balanced_qoe();
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t levels = static_cast<std::size_t>(rng.uniform_int(2, 5));
    const auto ladder = media::VideoManifest::geometric_ladder(
        rng.uniform(200.0, 500.0), rng.uniform(1500.0, 4000.0), levels);
    const auto manifest = media::VideoManifest::cbr(12, 4.0, ladder);
    HorizonSolver solver(manifest, qoe);

    const std::size_t horizon = static_cast<std::size_t>(rng.uniform_int(1, 5));
    std::vector<double> forecast(horizon);
    for (double& c : forecast) c = rng.uniform(100.0, 5000.0);

    HorizonProblem problem;
    problem.buffer_s = rng.uniform(0.0, 30.0);
    problem.prev_level = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(levels) - 1));
    problem.has_prev = rng.uniform() < 0.9;
    problem.predicted_kbps = forecast;
    problem.first_chunk = static_cast<std::size_t>(rng.uniform_int(0, 7));

    const HorizonSolution solution = solver.solve(problem);
    const double reference = brute_force_objective(manifest, qoe, problem);
    ASSERT_NEAR(solution.objective, reference, 1e-9)
        << "trial " << trial << " levels " << levels << " horizon " << horizon;
  }
}

TEST(HorizonSolver, MatchesBruteForceOnVbrVideo) {
  util::Rng rng(72);
  const auto qoe = testing::balanced_qoe();
  for (int trial = 0; trial < 20; ++trial) {
    util::Rng vbr_rng = rng.split();
    const auto manifest = media::VideoManifest::vbr(
        10, 4.0, {300.0, 750.0, 1500.0}, 0.35, vbr_rng);
    HorizonSolver solver(manifest, qoe);
    std::vector<double> forecast(4);
    for (double& c : forecast) c = rng.uniform(200.0, 3000.0);
    HorizonProblem problem;
    problem.buffer_s = rng.uniform(0.0, 25.0);
    problem.prev_level = 1;
    problem.has_prev = true;
    problem.predicted_kbps = forecast;
    problem.first_chunk = static_cast<std::size_t>(rng.uniform_int(0, 5));
    ASSERT_NEAR(solver.solve(problem).objective,
                brute_force_objective(manifest, qoe, problem), 1e-9);
  }
}

TEST(HorizonSolver, EventPenaltyDiscouragesStalls) {
  // With a large per-event penalty (footnote 3), the solver should prefer
  // one long stall to several short ones of equal total duration — and more
  // simply, avoid marginally-stalling bitrates it would otherwise pick.
  const auto manifest = media::VideoManifest::cbr(10, 4.0, {300.0, 600.0});
  qoe::QoeWeights duration_only = qoe::QoeWeights::balanced();
  duration_only.mu = 100.0;  // mild duration penalty so quality can win
  qoe::QoeWeights with_events = duration_only;
  with_events.mu_event = 5000.0;

  const qoe::QoeModel duration_model(media::QualityFunction::identity(),
                                     duration_only);
  const qoe::QoeModel event_model(media::QualityFunction::identity(),
                                  with_events);

  // 600 kbps chunks over a 500 kbps forecast stall ~0.8 s each from a small
  // buffer; at mu=100 the 300-quality gain wins, but the event penalty
  // flips it.
  HorizonProblem problem;
  problem.buffer_s = 4.0;
  problem.prev_level = 1;
  problem.has_prev = true;
  const std::vector<double> forecast(3, 500.0);
  problem.predicted_kbps = forecast;

  HorizonSolver duration_solver(manifest, duration_model);
  HorizonSolver event_solver(manifest, event_model);
  const auto aggressive = duration_solver.solve(problem);
  const auto cautious = event_solver.solve(problem);
  EXPECT_EQ(aggressive.levels.front(), 1u);
  EXPECT_EQ(cautious.levels.front(), 0u);
}

TEST(HorizonSolver, PruningReducesNodeCount) {
  const auto manifest =
      media::VideoManifest::cbr(20, 4.0,
                                media::VideoManifest::geometric_ladder(
                                    300.0, 3000.0, 8));
  const auto qoe = testing::balanced_qoe();
  HorizonSolver solver(manifest, qoe);
  const std::vector<double> forecast(7, 1200.0);
  HorizonProblem problem;
  problem.buffer_s = 15.0;
  problem.prev_level = 3;
  problem.has_prev = true;
  problem.predicted_kbps = forecast;
  const HorizonSolution solution = solver.solve(problem);
  // Full enumeration would expand 8 + 8^2 + ... + 8^7 ~= 2.4M nodes.
  EXPECT_LT(solution.nodes_expanded, 200000u);
  EXPECT_GT(solution.nodes_expanded, 0u);
}

}  // namespace
}  // namespace abr::core
