#include "core/algorithms.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/player.hpp"
#include "test_helpers.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"

namespace abr::core {
namespace {

/// The controller name make_algorithm is expected to produce. Identical to
/// algorithm_name except where the factory deliberately reuses another
/// controller (kMpcOpt is plain MPC paired with the perfect predictor).
std::string expected_controller_name(Algorithm algorithm) {
  if (algorithm == Algorithm::kMpcOpt) return "MPC";
  return algorithm_name(algorithm);
}

TEST(Algorithms, NamesAreStable) {
  EXPECT_STREQ(algorithm_name(Algorithm::kRateBased), "RB");
  EXPECT_STREQ(algorithm_name(Algorithm::kBufferBased), "BB");
  EXPECT_STREQ(algorithm_name(Algorithm::kFastMpc), "FastMPC");
  EXPECT_STREQ(algorithm_name(Algorithm::kRobustMpc), "RobustMPC");
  EXPECT_STREQ(algorithm_name(Algorithm::kMpc), "MPC");
  EXPECT_STREQ(algorithm_name(Algorithm::kMpcOpt), "MPC-OPT");
  EXPECT_STREQ(algorithm_name(Algorithm::kDashJs), "dash.js");
  EXPECT_STREQ(algorithm_name(Algorithm::kFestive), "FESTIVE");
  EXPECT_STREQ(algorithm_name(Algorithm::kBola), "BOLA");
}

TEST(Algorithms, RegistryCoversEveryAlgorithmExactlyOnce) {
  const auto registered = registered_algorithms();
  ASSERT_EQ(registered.size(), kAlgorithmCount);
  for (std::size_t i = 0; i < registered.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(registered[i]), i);
    EXPECT_STRNE(algorithm_name(registered[i]), "?");
  }
  // The paper's comparison set is a strict subset of the registry.
  for (const Algorithm algorithm : all_algorithms()) {
    EXPECT_NE(std::find(registered.begin(), registered.end(), algorithm),
              registered.end())
        << algorithm_name(algorithm);
  }
}

TEST(Algorithms, AllAlgorithmsListsPaperComparison) {
  const auto all = all_algorithms();
  EXPECT_EQ(all.size(), 6u);  // the six lines in Fig. 8
}

TEST(Algorithms, FactoryProducesMatchingControllerNames) {
  const auto manifest = media::VideoManifest::envivio_default();
  const auto qoe = testing::balanced_qoe();
  AlgorithmOptions options;
  options.fastmpc_table = default_fastmpc_table(manifest, qoe, 30.0);
  for (const Algorithm algorithm : registered_algorithms()) {
    const auto instance = make_algorithm(algorithm, manifest, qoe, options);
    ASSERT_NE(instance.controller, nullptr);
    ASSERT_NE(instance.predictor, nullptr);
    EXPECT_EQ(instance.controller->name(), expected_controller_name(algorithm));
  }
}

TEST(Algorithms, MpcOptUsesPerfectPredictor) {
  const auto manifest = media::VideoManifest::envivio_default();
  const auto qoe = testing::balanced_qoe();
  const auto instance = make_algorithm(Algorithm::kMpcOpt, manifest, qoe);
  EXPECT_EQ(instance.predictor->name(), "perfect");
  EXPECT_EQ(instance.controller->name(), "MPC");
}

TEST(Algorithms, DefaultPredictorIsHarmonicMean5) {
  const auto manifest = media::VideoManifest::envivio_default();
  const auto qoe = testing::balanced_qoe();
  const auto instance = make_algorithm(Algorithm::kRateBased, manifest, qoe);
  EXPECT_EQ(instance.predictor->name(), "harmonic-mean-5");
}

TEST(Algorithms, EveryAlgorithmCompletesASession) {
  util::Rng rng(13);
  const auto manifest = media::VideoManifest::envivio_default();
  const auto qoe = testing::balanced_qoe();
  const auto trace = trace::MarkovConfig{}.generate(rng, 320.0);
  AlgorithmOptions options;
  options.fastmpc_table = default_fastmpc_table(manifest, qoe, 30.0);
  // Enumerate from the registry so a newly added policy cannot silently
  // skip this end-to-end check.
  for (const Algorithm algorithm : registered_algorithms()) {
    auto instance = make_algorithm(algorithm, manifest, qoe, options);
    const auto result = sim::simulate(trace, manifest, qoe, {},
                                      *instance.controller,
                                      *instance.predictor);
    ASSERT_EQ(result.chunks.size(), manifest.chunk_count())
        << algorithm_name(algorithm);
    ASSERT_GE(result.average_bitrate_kbps, 350.0);
    ASSERT_LE(result.average_bitrate_kbps, 3000.0);
  }
}

TEST(Algorithms, ControllersAreReusableAcrossSessions) {
  util::Rng rng(14);
  const auto manifest = media::VideoManifest::envivio_default();
  const auto qoe = testing::balanced_qoe();
  const auto trace_a = trace::HsdpaLikeConfig{}.generate(rng, 320.0);
  AlgorithmOptions options;
  options.fastmpc_table = default_fastmpc_table(manifest, qoe, 30.0);
  for (const Algorithm algorithm : registered_algorithms()) {
    auto instance = make_algorithm(algorithm, manifest, qoe, options);
    const auto first = sim::simulate(trace_a, manifest, qoe, {},
                                     *instance.controller,
                                     *instance.predictor);
    // Re-running the same trace must reproduce the same result exactly: the
    // player resets the controller, so no state leaks across sessions.
    const auto second = sim::simulate(trace_a, manifest, qoe, {},
                                      *instance.controller,
                                      *instance.predictor);
    ASSERT_EQ(first.chunks.size(), second.chunks.size());
    for (std::size_t k = 0; k < first.chunks.size(); ++k) {
      ASSERT_EQ(first.chunks[k].level, second.chunks[k].level)
          << algorithm_name(algorithm) << " chunk " << k;
    }
    EXPECT_DOUBLE_EQ(first.qoe, second.qoe) << algorithm_name(algorithm);
  }
}

TEST(Algorithms, FastMpcReusesProvidedTable) {
  const auto manifest = media::VideoManifest::envivio_default();
  const auto qoe = testing::balanced_qoe();
  AlgorithmOptions options;
  options.fastmpc_table = default_fastmpc_table(manifest, qoe, 30.0);
  // Building with a shared table must not rebuild (cheap construction).
  const auto instance = make_algorithm(Algorithm::kFastMpc, manifest, qoe,
                                       options);
  EXPECT_EQ(instance.controller->prediction_horizon(), 5u);
}

TEST(Algorithms, MpcHorizonOptionPropagates) {
  const auto manifest = media::VideoManifest::envivio_default();
  const auto qoe = testing::balanced_qoe();
  AlgorithmOptions options;
  options.mpc_horizon = 3;
  const auto instance = make_algorithm(Algorithm::kMpc, manifest, qoe, options);
  EXPECT_EQ(instance.controller->prediction_horizon(), 3u);
}

}  // namespace
}  // namespace abr::core
