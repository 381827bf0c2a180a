#include "core/offline_optimal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/algorithms.hpp"
#include "test_helpers.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"

namespace abr::core {
namespace {

PlannerConfig discrete_config() {
  PlannerConfig config;
  config.continuous_relaxation = false;
  return config;
}

TEST(OfflineOptimalPlanner, ValidatesConfig) {
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  PlannerConfig zero_beam;
  zero_beam.beam_width = 0;
  EXPECT_THROW(OfflineOptimalPlanner(manifest, qoe, {}, zero_beam),
               std::invalid_argument);
  PlannerConfig one_level;
  one_level.relaxation_levels = 1;
  EXPECT_THROW(OfflineOptimalPlanner(manifest, qoe, {}, one_level),
               std::invalid_argument);
}

TEST(OfflineOptimalPlanner, ConstantFastLinkPlansTopBitrate) {
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  const auto trace = trace::ThroughputTrace::constant(50000.0, 1000.0);
  const OfflineOptimalPlanner planner(manifest, qoe, {}, discrete_config());
  const PlanResult plan = planner.plan(trace);
  ASSERT_EQ(plan.bitrates_kbps.size(), 8u);
  // With a 50 Mbps link even the first chunk downloads almost instantly:
  // everything at the top level, negligible startup.
  for (std::size_t k = 1; k < plan.bitrates_kbps.size(); ++k) {
    EXPECT_DOUBLE_EQ(plan.bitrates_kbps[k], 1500.0);
  }
  EXPECT_DOUBLE_EQ(plan.total_rebuffer_s, 0.0);
  EXPECT_LT(plan.startup_delay_s, 0.2);
}

TEST(OfflineOptimalPlanner, StarvedLinkPlansBottomBitrate) {
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  const auto trace = trace::ThroughputTrace::constant(100.0, 10000.0);
  const OfflineOptimalPlanner planner(manifest, qoe, {}, discrete_config());
  const PlanResult plan = planner.plan(trace);
  for (const double bitrate : plan.bitrates_kbps) {
    EXPECT_DOUBLE_EQ(bitrate, 300.0);
  }
}

TEST(OfflineOptimalPlanner, BeamMatchesExhaustiveOnSmallInstances) {
  util::Rng rng(81);
  const auto qoe = testing::balanced_qoe();
  const auto manifest = media::VideoManifest::cbr(6, 4.0, {300.0, 900.0, 2000.0});
  for (int trial = 0; trial < 15; ++trial) {
    util::Rng trace_rng = rng.split();
    const auto trace = trace::HsdpaLikeConfig{}.generate(trace_rng, 120.0);
    const OfflineOptimalPlanner planner(manifest, qoe, {}, discrete_config());
    const PlanResult beam = planner.plan(trace);
    const PlanResult exact = planner.plan_exhaustive(trace);
    ASSERT_NEAR(beam.qoe, exact.qoe, 1e-6) << "trial " << trial;
  }
}

TEST(OfflineOptimalPlanner, ExhaustiveGuardsSpaceSize) {
  const auto manifest = media::VideoManifest::envivio_default();  // 5^65
  const auto qoe = testing::balanced_qoe();
  const OfflineOptimalPlanner planner(manifest, qoe, {}, discrete_config());
  const auto trace = trace::ThroughputTrace::constant(1000.0, 100.0);
  EXPECT_THROW(planner.plan_exhaustive(trace), std::invalid_argument);
}

TEST(OfflineOptimalPlanner, RelaxationUpperBoundsDiscrete) {
  util::Rng rng(82);
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  for (int trial = 0; trial < 10; ++trial) {
    util::Rng trace_rng = rng.split();
    const auto trace = trace::FccLikeConfig{}.generate(trace_rng, 120.0);
    const OfflineOptimalPlanner discrete(manifest, qoe, {}, discrete_config());
    PlannerConfig relaxed_config;
    relaxed_config.continuous_relaxation = true;
    relaxed_config.relaxation_levels = 15;
    const OfflineOptimalPlanner relaxed(manifest, qoe, {}, relaxed_config);
    // The relaxation ladder includes Rmin and Rmax plus intermediate rates;
    // it can only do at least as well (up to beam noise).
    EXPECT_GE(relaxed.plan(trace).qoe, discrete.plan(trace).qoe - 100.0);
  }
}

/// The load-bearing invariant of normalized QoE: no online algorithm can
/// beat the offline optimum on the same trace and session settings.
TEST(OfflineOptimalPlanner, UpperBoundsOnlineAlgorithms) {
  util::Rng rng(83);
  const auto manifest = media::VideoManifest::envivio_default();
  const auto qoe = testing::balanced_qoe();
  const sim::SessionConfig session;
  PlannerConfig config;  // continuous relaxation, default beam
  const OfflineOptimalPlanner planner(manifest, qoe, session, config);

  AlgorithmOptions options;
  options.fastmpc_table = default_fastmpc_table(manifest, qoe, 30.0);

  for (int trial = 0; trial < 4; ++trial) {
    util::Rng trace_rng = rng.split();
    const auto trace = trace::HsdpaLikeConfig{}.generate(trace_rng, 320.0);
    const double optimal = planner.plan(trace).qoe;
    for (const Algorithm algorithm : all_algorithms()) {
      auto instance = make_algorithm(algorithm, manifest, qoe, options);
      const auto result = sim::simulate(trace, manifest, qoe, session,
                                        *instance.controller,
                                        *instance.predictor);
      ASSERT_LE(result.qoe, optimal + 1e-6)
          << algorithm_name(algorithm) << " beat OPT on trial " << trial;
    }
  }
}

/// QoE(OPT) plays chunks exactly as the player does: the discrete plan,
/// replayed through PlayerSession by a controller that returns its levels,
/// reports the planner's startup delay and rebuffering bit for bit, and its
/// QoE up to the order the two sum the Eq. (5) terms in. The last case
/// starts late: the whole video fits under Bmax and arrives before the
/// fixed delay, which still counts.
TEST(OfflineOptimalPlanner, DiscretePlanReplaysThroughPlayerSession) {
  const auto qoe = testing::balanced_qoe();
  const auto replay = [&qoe](const media::VideoManifest& manifest,
                             const sim::SessionConfig& session,
                             const trace::ThroughputTrace& trace,
                             const std::string& label) {
    const OfflineOptimalPlanner planner(manifest, qoe, session,
                                        discrete_config());
    const PlanResult plan = planner.plan(trace);
    const std::vector<double>& ladder = manifest.bitrates_kbps();
    std::vector<std::size_t> levels;
    for (const double kbps : plan.bitrates_kbps) {
      levels.push_back(static_cast<std::size_t>(
          std::find(ladder.begin(), ladder.end(), kbps) - ladder.begin()));
    }
    testing::ScriptedController controller(levels);
    testing::ConstantPredictor predictor(1000.0);
    const sim::SessionResult played =
        sim::simulate(trace, manifest, qoe, session, controller, predictor);
    EXPECT_EQ(played.startup_delay_s, plan.startup_delay_s) << label;
    EXPECT_EQ(played.total_rebuffer_s, plan.total_rebuffer_s) << label;
    EXPECT_NEAR(played.qoe, plan.qoe, 1e-9 * std::abs(plan.qoe)) << label;
  };

  sim::SessionConfig first_chunk;
  sim::SessionConfig fixed;
  fixed.startup_policy = sim::StartupPolicy::kFixedDelay;
  fixed.fixed_startup_delay_s = 6.0;
  sim::SessionConfig fixed_no_term = fixed;
  fixed_no_term.fixed_startup_delay_s = 10.0;
  fixed_no_term.include_startup_in_qoe = false;
  sim::SessionConfig threshold;
  threshold.startup_policy = sim::StartupPolicy::kBufferThreshold;
  threshold.startup_buffer_threshold_s = 4.0;
  const std::vector<sim::SessionConfig> sessions = {first_chunk, fixed,
                                                    fixed_no_term, threshold};

  const auto manifest = media::VideoManifest::envivio_default();
  util::Rng rng(84);
  for (int trial = 0; trial < 2; ++trial) {
    util::Rng fcc_rng = rng.split();
    util::Rng hsdpa_rng = rng.split();
    util::Rng markov_rng = rng.split();
    const trace::ThroughputTrace traces[] = {
        trace::FccLikeConfig{}.generate(fcc_rng, 320.0),
        trace::HsdpaLikeConfig{}.generate(hsdpa_rng, 320.0),
        trace::MarkovConfig{}.generate(markov_rng, 320.0)};
    for (std::size_t t = 0; t < 3; ++t) {
      for (std::size_t s = 0; s < sessions.size(); ++s) {
        replay(manifest, sessions[s], traces[t],
               "trial " + std::to_string(trial) + " dataset " +
                   std::to_string(t) + " session " + std::to_string(s));
      }
    }
  }

  sim::SessionConfig late;
  late.buffer_capacity_s = 40.0;
  late.startup_policy = sim::StartupPolicy::kFixedDelay;
  late.fixed_startup_delay_s = 100.0;
  replay(testing::small_manifest(), late,
         trace::ThroughputTrace::constant(10000.0, 1000.0), "late start");
}

TEST(NormalizedQoe, Basics) {
  EXPECT_DOUBLE_EQ(normalized_qoe(50.0, 100.0), 0.5);
  EXPECT_DOUBLE_EQ(normalized_qoe(-20.0, 100.0), -0.2);
  EXPECT_DOUBLE_EQ(normalized_qoe(100.0, 100.0), 1.0);
  // Degenerate optimum: defined as 0.
  EXPECT_DOUBLE_EQ(normalized_qoe(5.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(normalized_qoe(5.0, -1.0), 0.0);
}

TEST(OfflineOptimalPlanner, PlanningLadderReflectsRelaxation) {
  const auto manifest = media::VideoManifest::envivio_default();
  const auto qoe = testing::balanced_qoe();
  PlannerConfig relaxed;
  relaxed.relaxation_levels = 21;
  const OfflineOptimalPlanner planner(manifest, qoe, {}, relaxed);
  ASSERT_EQ(planner.planning_ladder_kbps().size(), 21u);
  EXPECT_DOUBLE_EQ(planner.planning_ladder_kbps().front(), 350.0);
  EXPECT_DOUBLE_EQ(planner.planning_ladder_kbps().back(), 3000.0);

  const OfflineOptimalPlanner discrete(manifest, qoe, {}, discrete_config());
  EXPECT_EQ(discrete.planning_ladder_kbps().size(), 5u);
}

TEST(OfflineOptimalPlanner, RespectsFixedStartupPolicy) {
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  sim::SessionConfig session;
  session.startup_policy = sim::StartupPolicy::kFixedDelay;
  session.fixed_startup_delay_s = 5.0;
  session.include_startup_in_qoe = false;
  const auto trace = trace::ThroughputTrace::constant(1000.0, 1000.0);
  const OfflineOptimalPlanner planner(manifest, qoe, session, discrete_config());
  const PlanResult plan = planner.plan(trace);
  EXPECT_NEAR(plan.startup_delay_s, 5.0, 1e-9);
}

}  // namespace
}  // namespace abr::core
