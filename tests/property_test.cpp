// Cross-cutting property tests: invariants that must hold across QoE
// presets, algorithms, and workloads simultaneously. These complement the
// per-module suites with parameterized sweeps over whole-session behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/algorithms.hpp"
#include "core/bola.hpp"
#include "core/offline_optimal.hpp"
#include "sim/player.hpp"
#include "test_helpers.hpp"
#include "testing/invariant_checker.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"

namespace abr {
namespace {

using SessionCase = std::tuple<core::Algorithm, qoe::QoePreference>;

/// FastMPC tables depend on the QoE weights; build each once per suite.
std::shared_ptr<const core::FastMpcTable> cached_table(
    const media::VideoManifest& manifest, qoe::QoePreference preference,
    const qoe::QoeModel& model) {
  static std::map<qoe::QoePreference, std::shared_ptr<const core::FastMpcTable>>
      cache;
  auto& entry = cache[preference];
  if (entry == nullptr) {
    entry = core::default_fastmpc_table(manifest, model, 30.0);
  }
  return entry;
}

class SessionProperties : public ::testing::TestWithParam<SessionCase> {
 protected:
  static std::vector<trace::ThroughputTrace> traces() {
    return trace::make_dataset(trace::DatasetKind::kHsdpa, 4, 320.0, 2024);
  }
};

/// Sessions are deterministic: identical inputs give identical outputs,
/// regardless of algorithm state carried across runs.
TEST_P(SessionProperties, Deterministic) {
  const auto [algorithm, preference] = GetParam();
  const auto manifest = media::VideoManifest::envivio_default();
  const qoe::QoeModel model(media::QualityFunction::identity(),
                            qoe::preset_weights(preference));
  core::AlgorithmOptions options;
  options.fastmpc_table = cached_table(manifest, preference, model);
  auto instance = core::make_algorithm(algorithm, manifest, model, options);

  for (const auto& trace : traces()) {
    const auto a = sim::simulate(trace, manifest, model, {},
                                 *instance.controller, *instance.predictor);
    const auto b = sim::simulate(trace, manifest, model, {},
                                 *instance.controller, *instance.predictor);
    ASSERT_EQ(a.chunks.size(), b.chunks.size());
    for (std::size_t k = 0; k < a.chunks.size(); ++k) {
      ASSERT_EQ(a.chunks[k].level, b.chunks[k].level);
    }
    ASSERT_DOUBLE_EQ(a.qoe, b.qoe);
  }
}

/// The reported QoE always decomposes exactly per Eq. (5) from the chunk log.
TEST_P(SessionProperties, QoeDecomposesFromChunkLog) {
  const auto [algorithm, preference] = GetParam();
  const auto manifest = media::VideoManifest::envivio_default();
  const qoe::QoeModel model(media::QualityFunction::identity(),
                            qoe::preset_weights(preference));
  core::AlgorithmOptions options;
  options.fastmpc_table = cached_table(manifest, preference, model);
  auto instance = core::make_algorithm(algorithm, manifest, model, options);

  for (const auto& trace : traces()) {
    const auto result = sim::simulate(trace, manifest, model, {},
                                      *instance.controller,
                                      *instance.predictor);
    std::vector<double> bitrates;
    std::vector<double> rebuffers;
    for (const sim::ChunkRecord& r : result.chunks) {
      bitrates.push_back(r.bitrate_kbps);
      rebuffers.push_back(r.rebuffer_s);
    }
    ASSERT_NEAR(result.qoe,
                model.session_qoe(bitrates, rebuffers, result.startup_delay_s),
                1e-6);
  }
}

/// No online algorithm beats the offline optimum under any preset.
TEST_P(SessionProperties, BoundedByOfflineOptimal) {
  const auto [algorithm, preference] = GetParam();
  const auto manifest = media::VideoManifest::envivio_default();
  const qoe::QoeModel model(media::QualityFunction::identity(),
                            qoe::preset_weights(preference));
  core::AlgorithmOptions options;
  options.fastmpc_table = cached_table(manifest, preference, model);
  auto instance = core::make_algorithm(algorithm, manifest, model, options);
  const core::OfflineOptimalPlanner planner(manifest, model, {});

  for (const auto& trace : traces()) {
    const double optimal = planner.plan(trace).qoe;
    const auto result = sim::simulate(trace, manifest, model, {},
                                      *instance.controller,
                                      *instance.predictor);
    ASSERT_LE(result.qoe, optimal + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsByPreference, SessionProperties,
    ::testing::Combine(
        ::testing::Values(core::Algorithm::kRateBased,
                          core::Algorithm::kBufferBased,
                          core::Algorithm::kFastMpc,
                          core::Algorithm::kRobustMpc,
                          core::Algorithm::kDashJs,
                          core::Algorithm::kFestive,
                          core::Algorithm::kBola,
                          core::Algorithm::kMpc),
        ::testing::Values(qoe::QoePreference::kBalanced,
                          qoe::QoePreference::kAvoidInstability,
                          qoe::QoePreference::kAvoidRebuffering)),
    [](const ::testing::TestParamInfo<SessionCase>& info) {
      std::string name = core::algorithm_name(std::get<0>(info.param));
      name += "_";
      name += qoe::preference_name(std::get<1>(info.param));
      for (char& c : name) {
        if (c == '.' || c == '-') c = '_';
      }
      return name;
    });

/// Replays Eqs. (1)-(4) plus the Eq. (5) attribution over a session's chunk
/// log via the shared testing::InvariantChecker (the same replay the
/// fuzz_session harness runs). Strict profile: any skipped/partial chunk is
/// itself a violation here.
void check_buffer_dynamics(const sim::SessionResult& result,
                           const qoe::QoeModel& model, double chunk_duration,
                           double capacity) {
  testing::InvariantOptions options;
  options.chunk_duration_s = chunk_duration;
  options.buffer_capacity_s = capacity;
  options.allow_failures = false;
  const testing::InvariantChecker checker(options);
  const testing::InvariantReport report = checker.check_all(result, model);
  ASSERT_TRUE(report.ok()) << report.to_string();
}

/// Buffer dynamics hold for every algorithm under the paper's Bmax = 30 s.
TEST_P(SessionProperties, BufferDynamicsFollowEqs1Through4) {
  const auto [algorithm, preference] = GetParam();
  const auto manifest = media::VideoManifest::envivio_default();
  const qoe::QoeModel model(media::QualityFunction::identity(),
                            qoe::preset_weights(preference));
  core::AlgorithmOptions options;
  options.fastmpc_table = cached_table(manifest, preference, model);
  auto instance = core::make_algorithm(algorithm, manifest, model, options);

  sim::SessionConfig config;
  for (const auto& trace : traces()) {
    const auto result = sim::simulate(trace, manifest, model, config,
                                      *instance.controller,
                                      *instance.predictor);
    check_buffer_dynamics(result, model, manifest.chunk_duration_s(),
                          config.buffer_capacity_s);
  }
}

/// ... and for random scripts under tight capacities, where the wait path
/// (Eq. 4) and the empty-buffer stall path (Eq. 3) both trigger often.
TEST(BufferDynamics, InvariantsHoldForRandomScriptedSessions) {
  util::Rng rng(31);
  const auto manifest = testing::small_manifest();
  const auto model = testing::balanced_qoe();
  const double capacities[] = {6.0, 12.0, 30.0};
  for (int trial = 0; trial < 30; ++trial) {
    util::Rng trace_rng = rng.split();
    const auto trace = trace::HsdpaLikeConfig{}.generate(trace_rng, 120.0);
    std::vector<std::size_t> script(manifest.chunk_count());
    for (auto& level : script) {
      level = static_cast<std::size_t>(rng.uniform_int(0, 2));
    }
    for (const double capacity : capacities) {
      testing::ScriptedController controller(script);
      testing::ConstantPredictor predictor(trace.mean_kbps());
      sim::SessionConfig config;
      config.buffer_capacity_s = capacity;
      const auto result = sim::simulate(trace, manifest, model, config,
                                        controller, predictor);
      check_buffer_dynamics(result, model, manifest.chunk_duration_s(),
                            capacity);
    }
  }
}

/// With a constant link, download times are exactly size/C (Eq. 2 with a
/// flat integrand), so the whole buffer trajectory is predictable in closed
/// form; the recorded log must match it.
TEST(BufferDynamics, ConstantLinkMatchesClosedForm) {
  const auto manifest = testing::small_manifest();
  const auto model = testing::balanced_qoe();
  const double rate_kbps = 1100.0;
  const auto trace = trace::ThroughputTrace::constant(rate_kbps, 1000.0);
  std::vector<std::size_t> script(manifest.chunk_count(), 2);  // 1500 kbps
  testing::ScriptedController controller(script);
  testing::ConstantPredictor predictor(rate_kbps);
  sim::SessionConfig config;
  const auto result =
      sim::simulate(trace, manifest, model, config, controller, predictor);

  double buffer_s = 0.0;
  bool playing = false;
  for (const sim::ChunkRecord& r : result.chunks) {
    const double expected_download =
        manifest.chunk_kilobits(r.index, r.level) / rate_kbps;
    ASSERT_NEAR(r.download_s, expected_download, 1e-9) << "chunk " << r.index;
    const double stall =
        playing ? std::max(0.0, expected_download - buffer_s) : 0.0;
    if (playing) buffer_s = std::max(0.0, buffer_s - expected_download);
    buffer_s += manifest.chunk_duration_s();
    playing = true;
    buffer_s = std::min(buffer_s, config.buffer_capacity_s);
    ASSERT_NEAR(r.rebuffer_s, stall, 1e-9) << "chunk " << r.index;
    ASSERT_NEAR(r.buffer_after_s, buffer_s, 1e-9) << "chunk " << r.index;
  }
}

/// Scaling a trace up can only help a fixed plan: verifies the throughput
/// monotonicity at whole-session granularity (the Theorem 1 backbone).
TEST(SessionMonotonicity, FasterLinkNeverHurtsAFixedPlan) {
  util::Rng rng(9);
  const auto manifest = testing::small_manifest();
  const auto model = testing::balanced_qoe();
  for (int trial = 0; trial < 20; ++trial) {
    util::Rng trace_rng = rng.split();
    const auto trace = trace::HsdpaLikeConfig{}.generate(trace_rng, 120.0);
    std::vector<std::size_t> script(manifest.chunk_count());
    for (auto& level : script) {
      level = static_cast<std::size_t>(rng.uniform_int(0, 2));
    }
    testing::ScriptedController slow_controller(script);
    testing::ScriptedController fast_controller(script);
    testing::ConstantPredictor predictor(trace.mean_kbps());
    const auto slow = sim::simulate(trace, manifest, model, {},
                                    slow_controller, predictor);
    const auto fast = sim::simulate(trace.scaled(1.5), manifest, model, {},
                                    fast_controller, predictor);
    ASSERT_GE(fast.qoe, slow.qoe - 1e-9) << "trial " << trial;
  }
}

/// BOLA's score is linear in the buffer level with slope -1/size, so the
/// argmax can only move up the ladder as the buffer fills. Sweep a fine
/// buffer grid at many (chunk, forecast) points and assert the decision is
/// monotone non-decreasing.
TEST(BolaInvariants, DecisionIsMonotoneInBufferLevel) {
  const auto manifest = media::VideoManifest::envivio_default();
  const auto model = testing::balanced_qoe();
  core::BolaController bola(manifest, model, {});

  util::Rng rng(55);
  for (int trial = 0; trial < 40; ++trial) {
    sim::AbrState state;
    state.chunk_index = static_cast<std::size_t>(rng.uniform_int(0, 40));
    const double forecast = rng.uniform(200.0, 5000.0);
    const std::vector<double> prediction(1, forecast);
    state.prediction_kbps = prediction;
    state.has_prev = true;
    state.prev_level = 0;
    state.playback_started = true;

    std::size_t previous = 0;
    for (double buffer_s = 0.0; buffer_s <= 30.0; buffer_s += 0.25) {
      state.buffer_s = buffer_s;
      const std::size_t level = bola.decide(state, manifest);
      ASSERT_GE(level, previous)
          << "chunk " << state.chunk_index << " forecast " << forecast
          << " buffer " << buffer_s;
      previous = level;
    }
  }
}

/// Below the low-buffer threshold BOLA must never pick a rung above what the
/// forecast can sustain in real time — the startup/panic guard that bounds
/// rebuffering when the buffer cannot absorb a misprediction.
TEST(BolaInvariants, NeverAboveSustainableRungWhenBufferLow) {
  const auto manifest = media::VideoManifest::envivio_default();
  const auto model = testing::balanced_qoe();
  core::BolaController bola(manifest, model, {});
  ASSERT_GT(bola.low_buffer_threshold_s(), 0.0);

  util::Rng rng(56);
  for (int trial = 0; trial < 200; ++trial) {
    sim::AbrState state;
    state.chunk_index = static_cast<std::size_t>(rng.uniform_int(0, 40));
    state.buffer_s = rng.uniform(0.0, bola.low_buffer_threshold_s() * 0.999);
    const double forecast = rng.uniform(150.0, 6000.0);
    const std::vector<double> prediction(1, forecast);
    state.prediction_kbps = prediction;
    state.has_prev = trial % 2 == 0;
    state.prev_level = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(
                               manifest.level_count()) - 1));
    state.playback_started = state.has_prev;

    const std::size_t level = bola.decide(state, manifest);
    ASSERT_LE(level, manifest.highest_level_not_above(forecast))
        << "buffer " << state.buffer_s << " forecast " << forecast;
  }
}

/// The startup delay equals the first chunk's download time under the
/// default policy, for every algorithm.
TEST(SessionStartup, FirstChunkPolicyInvariant) {
  const auto manifest = media::VideoManifest::envivio_default();
  const auto model = testing::balanced_qoe();
  const auto traces = trace::make_dataset(trace::DatasetKind::kFcc, 3, 320.0, 5);
  for (const core::Algorithm algorithm : core::all_algorithms()) {
    core::AlgorithmOptions options;
    options.fastmpc_table =
        cached_table(manifest, qoe::QoePreference::kBalanced, model);
    auto instance = core::make_algorithm(algorithm, manifest, model, options);
    for (const auto& trace : traces) {
      const auto result = sim::simulate(trace, manifest, model, {},
                                        *instance.controller,
                                        *instance.predictor);
      ASSERT_NEAR(result.startup_delay_s, result.chunks.front().download_s,
                  1e-9);
    }
  }
}

}  // namespace
}  // namespace abr
