#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/horizon_solver.hpp"
#include "test_helpers.hpp"
#include "testing/solver_oracle.hpp"
#include "util/rng.hpp"

namespace abr::core {
namespace {

media::VideoManifest random_manifest(util::Rng& rng) {
  const std::size_t levels = static_cast<std::size_t>(rng.uniform_int(2, 6));
  const auto ladder = media::VideoManifest::geometric_ladder(
      rng.uniform(200.0, 500.0), rng.uniform(1500.0, 4000.0), levels);
  if (rng.uniform() < 0.5) {
    return media::VideoManifest::cbr(12, 4.0, ladder);
  }
  util::Rng vbr_rng = rng.split();
  return media::VideoManifest::vbr(12, 4.0, ladder, 0.3, vbr_rng);
}

HorizonProblem random_problem(util::Rng& rng, std::size_t levels,
                              const std::vector<double>& forecast) {
  HorizonProblem problem;
  problem.buffer_s = rng.uniform(0.0, 30.0);
  problem.prev_level = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(levels) - 1));
  problem.has_prev = rng.uniform() < 0.9;
  problem.predicted_kbps = forecast;
  problem.first_chunk = static_cast<std::size_t>(rng.uniform_int(0, 6));
  return problem;
}

/// The core exactness property of the PR: for ANY warm-start hint — empty,
/// optimal, garbage, or truncated — the workspace solver returns levels and
/// objective bit-identical to the exhaustive reference (and hence to the
/// cold solve). This is what lets warm starting sit on the golden-log path.
TEST(SolverWarmStart, AnyHintIsBitIdenticalToExhaustiveReference) {
  util::Rng rng(91);
  const auto qoe = testing::balanced_qoe();
  HorizonSolver::Workspace workspace;

  for (int trial = 0; trial < 60; ++trial) {
    const auto manifest = random_manifest(rng);
    const std::size_t levels = manifest.level_count();
    HorizonSolver solver(manifest, qoe);

    const std::size_t horizon =
        static_cast<std::size_t>(rng.uniform_int(1, 5));
    std::vector<double> forecast(horizon);
    for (double& c : forecast) c = rng.uniform(100.0, 5000.0);
    const HorizonProblem base = random_problem(rng, levels, forecast);

    const HorizonSolution reference =
        testing::exhaustive_reference(manifest, qoe, base);
    const HorizonSolution cold = solver.solve(base, workspace);
    ASSERT_EQ(cold.levels, reference.levels) << "trial " << trial;
    ASSERT_EQ(cold.objective, reference.objective) << "trial " << trial;

    // Hint variants: the cold optimum, its shifted tail (the online MPC
    // hint), pure noise, and a truncated prefix (padded by the solver).
    std::vector<std::vector<std::size_t>> hints;
    hints.push_back(cold.levels);
    if (cold.levels.size() > 1) {
      hints.emplace_back(cold.levels.begin() + 1, cold.levels.end());
    }
    std::vector<std::size_t> noise(horizon);
    for (std::size_t& level : noise) {
      level = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(levels) - 1));
    }
    hints.push_back(noise);
    hints.emplace_back(1, noise.front());

    for (std::size_t h = 0; h < hints.size(); ++h) {
      HorizonProblem warm = base;
      warm.warm_hint = hints[h];
      const HorizonSolution solution = solver.solve(warm, workspace);
      ASSERT_EQ(solution.levels, reference.levels)
          << "trial " << trial << " hint " << h;
      ASSERT_EQ(solution.objective, reference.objective)
          << "trial " << trial << " hint " << h;
    }
  }
}

/// The same exactness property over the shapes that stress the
/// switch-aware bound: every quality family (`saturating` with a flat top
/// and `piecewise` with a flat middle give rungs of equal quality, i.e.
/// exact ties; `log` goes negative below its reference), lambda = 0, the
/// avoid-instability weights and a per-event rebuffer charge, horizons 1-7
/// on 2-4 rung ladders (tail horizons included), buffers exactly empty and
/// exactly full, forecasts below the lowest rung and above the top rung,
/// CBR and VBR. An inadmissible bound prunes an optimum and shows up here
/// as a level or objective mismatch.
TEST(SolverWarmStart, SwitchAwareBoundIsExactAcrossFamiliesAndEdges) {
  util::Rng rng(94);
  HorizonSolver::Workspace workspace;
  const qoe::QoeWeights weight_sets[] = {
      qoe::QoeWeights::balanced(),
      {0.0, 3000.0, 3000.0},
      qoe::QoeWeights::avoid_instability(),
      {1.0, 3000.0, 3000.0, 500.0},
  };

  for (int trial = 0; trial < 2400; ++trial) {
    const std::size_t levels = static_cast<std::size_t>(rng.uniform_int(2, 4));
    const auto ladder = media::VideoManifest::geometric_ladder(
        rng.uniform(200.0, 500.0), rng.uniform(1500.0, 4000.0), levels);
    const double lo = ladder.front();
    const double hi = ladder.back();
    const double chunk_s = rng.uniform() < 0.5 ? 2.0 : 4.0;
    util::Rng vbr_rng = rng.split();
    const auto manifest =
        rng.uniform() < 0.5
            ? media::VideoManifest::cbr(12, chunk_s, ladder)
            : media::VideoManifest::vbr(12, chunk_s, ladder, 0.3, vbr_rng);

    media::QualityFunction quality = media::QualityFunction::identity();
    switch (trial % 4) {
      case 1:
        quality = media::QualityFunction::logarithmic(
            rng.uniform(0.5, 1.5) * lo, 1000.0);
        break;
      case 2:
        quality =
            media::QualityFunction::device_saturating(rng.uniform(lo, hi), 0.0);
        break;
      case 3:
        quality = media::QualityFunction::piecewise(
            {{0.5 * lo, 1.0}, {lo, 4.0}, {0.5 * (lo + hi), 4.0}, {hi, 9.0}});
        break;
      default:
        break;
    }
    const qoe::QoeModel qoe(quality, weight_sets[(trial / 4) % 4]);
    HorizonSolver solver(manifest, qoe);

    const std::size_t horizon =
        static_cast<std::size_t>(rng.uniform_int(1, 7));
    std::vector<double> forecast(horizon);
    const int forecast_kind = static_cast<int>(rng.uniform_int(0, 2));
    for (double& c : forecast) {
      if (forecast_kind == 0) {
        c = rng.uniform(0.1, 0.95) * lo;  // below the lowest rung
      } else if (forecast_kind == 1) {
        c = rng.uniform(1.05, 3.0) * hi;  // above the top rung
      } else {
        c = rng.uniform(0.3 * lo, 2.0 * hi);
      }
    }

    HorizonProblem base;
    base.buffer_capacity_s =
        rng.uniform() < 0.5 ? 30.0 : rng.uniform(8.0, 30.0);
    switch (static_cast<int>(rng.uniform_int(0, 2))) {
      case 0:
        base.buffer_s = 0.0;
        break;
      case 1:
        base.buffer_s = base.buffer_capacity_s;
        break;
      default:
        base.buffer_s = rng.uniform(0.0, base.buffer_capacity_s);
        break;
    }
    base.prev_level = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(levels) - 1));
    base.has_prev = rng.uniform() < 0.9;
    base.predicted_kbps = forecast;
    base.first_chunk = static_cast<std::size_t>(rng.uniform_int(0, 8));

    const HorizonSolution reference =
        testing::exhaustive_reference(manifest, qoe, base);
    const HorizonSolution cold = solver.solve(base, workspace);
    ASSERT_EQ(cold.levels, reference.levels) << "trial " << trial;
    ASSERT_EQ(cold.objective, reference.objective) << "trial " << trial;

    // Every hint variant: the cold optimum, its shifted tail, noise, a
    // truncated prefix, and the all-top and all-bottom sequences.
    const std::size_t solved = cold.levels.size();
    std::vector<std::vector<std::size_t>> hints;
    hints.push_back(cold.levels);
    if (solved > 1) {
      hints.emplace_back(cold.levels.begin() + 1, cold.levels.end());
    }
    std::vector<std::size_t> noise(solved);
    for (std::size_t& level : noise) {
      level = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(levels) - 1));
    }
    hints.push_back(noise);
    hints.emplace_back(1, noise.front());
    hints.emplace_back(solved, levels - 1);
    hints.emplace_back(solved, 0);

    for (std::size_t h = 0; h < hints.size(); ++h) {
      HorizonProblem warm = base;
      warm.warm_hint = hints[h];
      const HorizonSolution solution = solver.solve(warm, workspace);
      ASSERT_EQ(solution.levels, reference.levels)
          << "trial " << trial << " hint " << h;
      ASSERT_EQ(solution.objective, reference.objective)
          << "trial " << trial << " hint " << h;
    }
  }
}

/// The throughput cap binds where rebuffering is forced: small buffers,
/// forecasts near or below the ladder, and large mu. Against the exhaustive
/// reference, cold and under every hint, on the shapes where a wrong cap
/// would show: buffer capacities below one chunk duration (the Bmax clamp
/// binds after every append), VBR sizes scaled per (chunk, level) so a
/// chunk's longest download need not be its top rung's, flat (RobustMPC)
/// and varying forecasts, and mu from 30 to 30 000 with and without a
/// per-event rebuffer penalty.
TEST(SolverWarmStart, ThroughputCapIsExactWhereItBinds) {
  util::Rng rng(95);
  HorizonSolver::Workspace workspace;
  const qoe::QoeWeights weight_sets[] = {
      qoe::QoeWeights::balanced(),
      {1.0, 30.0, 30.0},
      {0.5, 30000.0, 30000.0},
      {1.0, 3000.0, 3000.0, 500.0},
  };

  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t levels = static_cast<std::size_t>(rng.uniform_int(2, 4));
    const auto ladder = media::VideoManifest::geometric_ladder(
        rng.uniform(200.0, 500.0), rng.uniform(1500.0, 4000.0), levels);
    const double lo = ladder.front();
    const double hi = ladder.back();
    const double chunk_s = rng.uniform() < 0.5 ? 2.0 : 4.0;
    std::vector<std::vector<double>> sizes(12);
    const bool vbr = rng.uniform() < 0.5;
    for (std::vector<double>& row : sizes) {
      for (const double kbps : ladder) {
        row.push_back(chunk_s * kbps * (vbr ? rng.uniform(0.25, 4.0) : 1.0));
      }
    }
    const auto manifest =
        media::VideoManifest::from_sizes(chunk_s, ladder, std::move(sizes));
    const qoe::QoeModel qoe(
        trial % 2 == 0
            ? media::QualityFunction::identity()
            : media::QualityFunction::logarithmic(rng.uniform(0.5, 1.5) * lo,
                                                  1000.0),
        weight_sets[(trial / 2) % 4]);
    HorizonSolver solver(manifest, qoe);

    const std::size_t horizon =
        static_cast<std::size_t>(rng.uniform_int(1, 6));
    std::vector<double> forecast(horizon, rng.uniform(0.3 * lo, 1.5 * hi));
    if (rng.uniform() < 0.5) {
      for (double& c : forecast) c = rng.uniform(0.3 * lo, 1.5 * hi);
    }

    HorizonProblem base;
    switch (static_cast<int>(rng.uniform_int(0, 2))) {
      case 0:
        base.buffer_capacity_s = rng.uniform(0.1, 1.0) * chunk_s;
        break;
      case 1:
        base.buffer_capacity_s = rng.uniform(1.0, 3.0) * chunk_s;
        break;
      default:
        base.buffer_capacity_s = 30.0;
        break;
    }
    base.buffer_s = rng.uniform() < 0.3
                        ? 0.0
                        : rng.uniform(0.0, base.buffer_capacity_s);
    base.prev_level = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(levels) - 1));
    base.has_prev = rng.uniform() < 0.9;
    base.predicted_kbps = forecast;
    base.first_chunk = static_cast<std::size_t>(rng.uniform_int(0, 8));

    const HorizonSolution reference =
        testing::exhaustive_reference(manifest, qoe, base);
    const HorizonSolution cold = solver.solve(base, workspace);
    ASSERT_EQ(cold.levels, reference.levels) << "trial " << trial;
    ASSERT_EQ(cold.objective, reference.objective) << "trial " << trial;

    std::vector<std::size_t> noise(cold.levels.size());
    for (std::size_t& level : noise) {
      level = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(levels) - 1));
    }
    const std::vector<std::vector<std::size_t>> hints = {
        cold.levels, noise, std::vector<std::size_t>(1, levels - 1),
        std::vector<std::size_t>(1, 0)};
    for (std::size_t h = 0; h < hints.size(); ++h) {
      HorizonProblem warm = base;
      warm.warm_hint = hints[h];
      const HorizonSolution solution = solver.solve(warm, workspace);
      ASSERT_EQ(solution.levels, reference.levels)
          << "trial " << trial << " hint " << h;
      ASSERT_EQ(solution.objective, reference.objective)
          << "trial " << trial << " hint " << h;
    }
  }
}

/// The switch-aware cap line applies on a CBR ladder under a flat forecast
/// C < mu * L, where every remaining chunk earns the same relaxed reward.
/// Against the exhaustive reference, cold and under four hints, across the
/// four quality families (`saturating` and `piecewise` with flat runs give
/// rungs of equal quality), lambda in {0, 0.5, 1, 3, 4} (lambda >= the
/// remaining chunks skips the line), mu from 30 to 30 000 with and without
/// mu_event, buffers empty and full, capacities below one chunk, C just
/// below, at, just above and well above mu * L, and horizons 1-7 on 2-5
/// rungs. One trial in eight takes a VBR ladder and one in eight a forecast
/// that rises after its first entry: the line must not apply there.
TEST(SolverWarmStart, SwitchAwareCapLineIsExactOnFlatForecasts) {
  util::Rng rng(96);
  HorizonSolver::Workspace workspace;
  const double lambdas[] = {0.0, 0.5, 1.0, 3.0, 4.0};

  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t levels = static_cast<std::size_t>(rng.uniform_int(2, 5));
    const auto ladder = media::VideoManifest::geometric_ladder(
        rng.uniform(200.0, 500.0), rng.uniform(1500.0, 4000.0), levels);
    const double lo = ladder.front();
    const double hi = ladder.back();
    const double chunk_s = rng.uniform() < 0.5 ? 2.0 : 4.0;
    // VBR: every chunk after the first scaled down on its own, so a line
    // taken from one chunk's sizes would undercount the others' rewards.
    const bool vbr = trial % 8 == 5;
    std::vector<std::vector<double>> sizes(12);
    for (std::size_t chunk = 0; chunk < sizes.size(); ++chunk) {
      for (const double kbps : ladder) {
        const double scale = vbr && chunk > 0 ? rng.uniform(0.25, 1.0) : 1.0;
        sizes[chunk].push_back(chunk_s * kbps * scale);
      }
    }
    const auto manifest =
        media::VideoManifest::from_sizes(chunk_s, ladder, std::move(sizes));

    media::QualityFunction quality = media::QualityFunction::identity();
    switch (trial % 4) {
      case 1:
        quality = media::QualityFunction::logarithmic(
            rng.uniform(0.5, 1.5) * lo, 1000.0);
        break;
      case 2:
        quality = media::QualityFunction::device_saturating(
            rng.uniform(lo, hi), rng.uniform() < 0.5 ? 0.0 : 0.5);
        break;
      case 3:
        quality = media::QualityFunction::piecewise(
            {{lo, 300.0}, {0.5 * (lo + hi), 300.0}, {hi, 2700.0}});
        break;
      default:
        break;
    }
    qoe::QoeWeights weights;
    weights.lambda = lambdas[(trial / 4) % 5];
    weights.mu = 30.0 * std::pow(1000.0, rng.uniform());
    weights.mu_startup = weights.mu;
    weights.mu_event = (trial / 20) % 2 == 1 ? rng.uniform(0.0, 2000.0) : 0.0;
    const qoe::QoeModel qoe(quality, weights);
    HorizonSolver solver(manifest, qoe);

    const std::size_t horizon =
        static_cast<std::size_t>(rng.uniform_int(1, 7));
    const double knee = weights.mu * chunk_s;  // C = mu * L
    double flat = 0.0;
    switch (static_cast<int>(rng.uniform_int(0, 4))) {
      case 0:
        flat = std::nextafter(knee, 0.0);
        break;
      case 1:
        flat = knee;
        break;
      case 2:
        flat = std::nextafter(knee, 2.0 * knee);
        break;
      case 3:
        flat = rng.uniform(1.0, 3.0) * knee;
        break;
      default:
        flat = rng.uniform(0.3 * lo, 1.5 * hi);
        break;
    }
    std::vector<double> forecast(horizon, flat);
    if (trial % 8 == 3) {
      // Rising after the first entry: a line taken from the first forecast
      // would undercount every later chunk's reward.
      for (std::size_t i = 1; i < horizon; ++i) {
        forecast[i] *= rng.uniform(1.0, 3.0);
      }
    }

    HorizonProblem base;
    switch (static_cast<int>(rng.uniform_int(0, 2))) {
      case 0:
        base.buffer_capacity_s = rng.uniform(0.1, 1.0) * chunk_s;
        break;
      case 1:
        base.buffer_capacity_s = rng.uniform(1.0, 3.0) * chunk_s;
        break;
      default:
        base.buffer_capacity_s = 30.0;
        break;
    }
    switch (static_cast<int>(rng.uniform_int(0, 2))) {
      case 0:
        base.buffer_s = 0.0;
        break;
      case 1:
        base.buffer_s = base.buffer_capacity_s;
        break;
      default:
        base.buffer_s = rng.uniform(0.0, base.buffer_capacity_s);
        break;
    }
    base.prev_level = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(levels) - 1));
    base.has_prev = rng.uniform() < 0.9;
    base.predicted_kbps = forecast;
    base.first_chunk = static_cast<std::size_t>(rng.uniform_int(0, 8));

    const HorizonSolution reference =
        testing::exhaustive_reference(manifest, qoe, base);
    const HorizonSolution cold = solver.solve(base, workspace);
    ASSERT_EQ(cold.levels, reference.levels) << "trial " << trial;
    ASSERT_EQ(cold.objective, reference.objective) << "trial " << trial;

    std::vector<std::size_t> noise(cold.levels.size());
    for (std::size_t& level : noise) {
      level = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(levels) - 1));
    }
    const std::vector<std::vector<std::size_t>> hints = {
        cold.levels, noise, std::vector<std::size_t>(1, levels - 1),
        std::vector<std::size_t>(1, 0)};
    for (std::size_t h = 0; h < hints.size(); ++h) {
      HorizonProblem warm = base;
      warm.warm_hint = hints[h];
      const HorizonSolution solution = solver.solve(warm, workspace);
      ASSERT_EQ(solution.levels, reference.levels)
          << "trial " << trial << " hint " << h;
      ASSERT_EQ(solution.objective, reference.objective)
          << "trial " << trial << " hint " << h;
    }
  }
}

TEST(SolverWarmStart, OptimalHintNeverExpandsMoreNodes) {
  util::Rng rng(92);
  const auto qoe = testing::balanced_qoe();
  HorizonSolver::Workspace workspace;
  std::size_t cold_total = 0;
  std::size_t warm_total = 0;

  for (int trial = 0; trial < 40; ++trial) {
    const auto manifest = random_manifest(rng);
    HorizonSolver solver(manifest, qoe);
    std::vector<double> forecast(5);
    for (double& c : forecast) c = rng.uniform(100.0, 5000.0);
    const HorizonProblem base =
        random_problem(rng, manifest.level_count(), forecast);

    const HorizonSolution cold = solver.solve(base, workspace);
    HorizonProblem warm = base;
    warm.warm_hint = cold.levels;
    const HorizonSolution seeded = solver.solve(warm, workspace);

    ASSERT_EQ(seeded.levels, cold.levels) << "trial " << trial;
    ASSERT_LE(seeded.nodes_expanded, cold.nodes_expanded) << "trial " << trial;
    cold_total += cold.nodes_expanded;
    warm_total += seeded.nodes_expanded;
  }
  // The hint's value prunes from the first node: across the suite the
  // savings must be real, not incidental. (On these small random instances
  // the cold first incumbent is already strong; the big collapse shows up
  // in the chained table sweep, measured by solver_bench.)
  EXPECT_LT(warm_total * 4, cold_total * 3);
}

TEST(SolverWarmStart, WorkspaceReuseMatchesFreshWorkspace) {
  // One workspace reused across solvers, ladders, and horizon sizes must
  // behave exactly like a fresh workspace per solve (stale precomputed
  // arrays would show up as differing solutions).
  util::Rng rng(93);
  const auto qoe = testing::balanced_qoe();
  HorizonSolver::Workspace reused;

  for (int trial = 0; trial < 30; ++trial) {
    const auto manifest = random_manifest(rng);
    HorizonSolver solver(manifest, qoe);
    const std::size_t horizon =
        static_cast<std::size_t>(rng.uniform_int(1, 6));
    std::vector<double> forecast(horizon);
    for (double& c : forecast) c = rng.uniform(100.0, 5000.0);
    const HorizonProblem problem =
        random_problem(rng, manifest.level_count(), forecast);

    HorizonSolver::Workspace fresh;
    const HorizonSolution a = solver.solve(problem, reused);
    const HorizonSolution b = solver.solve(problem, fresh);
    ASSERT_EQ(a.levels, b.levels) << "trial " << trial;
    ASSERT_EQ(a.objective, b.objective) << "trial " << trial;
    ASSERT_EQ(a.nodes_expanded, b.nodes_expanded) << "trial " << trial;
  }
}

TEST(SolverWarmStart, OutOfRangeHintThrows) {
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  HorizonSolver solver(manifest, qoe);

  const std::vector<double> forecast(3, 1000.0);
  HorizonProblem problem;
  problem.buffer_s = 10.0;
  problem.predicted_kbps = forecast;
  const std::vector<std::size_t> bad_hint = {manifest.level_count()};
  problem.warm_hint = bad_hint;
  EXPECT_THROW(solver.solve(problem), std::invalid_argument);
}

}  // namespace
}  // namespace abr::core
