#include "sim/player.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/offline_optimal.hpp"
#include "sim/multiplayer.hpp"
#include "test_helpers.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"

namespace abr::sim {
namespace {

using ::abr::testing::ConstantPredictor;
using ::abr::testing::FixedLevelController;
using ::abr::testing::ScriptedController;

class BadController final : public BitrateController {
 public:
  std::size_t decide(const AbrState&, const media::VideoManifest&) override {
    return 99;  // out of range
  }
  std::string name() const override { return "bad"; }
};

SessionResult run_fixed(std::size_t level, double rate_kbps,
                        SessionConfig config = {}) {
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  const auto trace = trace::ThroughputTrace::constant(rate_kbps, 1000.0);
  FixedLevelController controller(level);
  ConstantPredictor predictor(rate_kbps);
  return simulate(trace, manifest, qoe, config, controller, predictor);
}

TEST(PlayerSession, SteadyLowBitrateNoRebuffer) {
  // 300 kbps chunks over a 1000 kbps link: 1.2 s per 4 s chunk.
  const SessionResult result = run_fixed(0, 1000.0);
  ASSERT_EQ(result.chunks.size(), 8u);
  EXPECT_NEAR(result.startup_delay_s, 1.2, 1e-9);
  EXPECT_DOUBLE_EQ(result.total_rebuffer_s, 0.0);
  EXPECT_DOUBLE_EQ(result.average_bitrate_kbps, 300.0);
  EXPECT_EQ(result.switch_count, 0u);
  // QoE = 8 * 300 - 3000 * 1.2 startup.
  EXPECT_NEAR(result.qoe, 2400.0 - 3600.0, 1e-9);
  for (const ChunkRecord& r : result.chunks) {
    EXPECT_NEAR(r.download_s, 1.2, 1e-9);
    EXPECT_NEAR(r.throughput_kbps, 1000.0, 1e-9);
    EXPECT_DOUBLE_EQ(r.rebuffer_s, 0.0);
  }
  // Buffer grows by 2.8 s per steady-state chunk.
  EXPECT_NEAR(result.chunks[0].buffer_after_s, 4.0, 1e-9);
  EXPECT_NEAR(result.chunks[1].buffer_after_s, 6.8, 1e-9);
  EXPECT_NEAR(result.chunks[7].buffer_after_s, 4.0 + 2.8 * 7, 1e-9);
}

TEST(PlayerSession, OverambitiousBitrateRebuffersEveryChunk) {
  // 1500 kbps chunks over 1000 kbps: 6 s download per 4 s chunk.
  const SessionResult result = run_fixed(2, 1000.0);
  EXPECT_NEAR(result.startup_delay_s, 6.0, 1e-9);
  // Chunks 1..7 each stall 2 s (buffer has only 4 s against 6 s downloads).
  EXPECT_NEAR(result.total_rebuffer_s, 14.0, 1e-9);
  EXPECT_NEAR(result.chunks[1].rebuffer_s, 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(result.chunks[0].rebuffer_s, 0.0);  // startup, no drain
  EXPECT_NEAR(result.qoe, 8 * 1500.0 - 3000.0 * 14.0 - 3000.0 * 6.0, 1e-9);
  EXPECT_NEAR(result.rebuffer_chunk_fraction, 7.0 / 8.0, 1e-9);
}

TEST(PlayerSession, BufferFullTriggersWait) {
  SessionConfig config;
  config.buffer_capacity_s = 6.0;
  const SessionResult result = run_fixed(0, 1000.0, config);
  // Chunk 1: drain 1.2 -> 2.8, append -> 6.8 > 6: wait 0.8 s.
  EXPECT_NEAR(result.chunks[1].wait_s, 0.8, 1e-9);
  EXPECT_NEAR(result.chunks[1].buffer_after_s, 6.0, 1e-9);
  // Chunk 2 onward: steady-state wait = 4 - 1.2 - 0 = 2.8 s per chunk.
  EXPECT_NEAR(result.chunks[2].wait_s, 2.8, 1e-9);
  EXPECT_NEAR(result.total_wait_s, 0.8 + 2.8 * 6, 1e-9);
  for (const ChunkRecord& r : result.chunks) {
    EXPECT_LE(r.buffer_after_s, 6.0 + 1e-9);
  }
}

TEST(PlayerSession, FixedDelayStartsPlaybackAtTs) {
  SessionConfig config;
  config.startup_policy = StartupPolicy::kFixedDelay;
  config.fixed_startup_delay_s = 3.0;
  const SessionResult result = run_fixed(0, 1000.0, config);
  EXPECT_NEAR(result.startup_delay_s, 3.0, 1e-9);
  // Downloads: chunk k ends at 1.2 * (k+1). Playback starts at 3.0 (during
  // chunk 2). No stalls: buffer has 8 s by then.
  EXPECT_DOUBLE_EQ(result.total_rebuffer_s, 0.0);
}

TEST(PlayerSession, FixedDelayAfterAllChunksIdlesUntilTs) {
  SessionConfig config;
  config.startup_policy = StartupPolicy::kFixedDelay;
  config.fixed_startup_delay_s = 10.0;
  config.include_startup_in_qoe = false;
  const SessionResult result = run_fixed(0, 1000.0, config);
  // All 8 chunks (9.6 s of downloads) precede Ts = 10; the buffer tops out
  // at 32 s > Bmax = 30, so the player idles until Ts then drains 2 s.
  EXPECT_NEAR(result.startup_delay_s, 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(result.total_rebuffer_s, 0.0);
  EXPECT_NEAR(result.chunks[7].buffer_after_s, 30.0, 1e-9);
  EXPECT_NEAR(result.session_duration_s, 12.0, 1e-9);
  // Startup excluded from QoE: pure quality sum.
  EXPECT_NEAR(result.qoe, 8 * 300.0, 1e-9);
}

TEST(PlayerSession, BufferThresholdDelaysPlayback) {
  SessionConfig config;
  config.startup_policy = StartupPolicy::kBufferThreshold;
  config.startup_buffer_threshold_s = 8.0;
  const SessionResult result = run_fixed(0, 1000.0, config);
  // Playback begins once two chunks (8 s) are buffered: at t = 2.4.
  EXPECT_NEAR(result.startup_delay_s, 2.4, 1e-9);
}

TEST(PlayerSession, IncludeStartupFlagControlsQoe) {
  SessionConfig with;
  SessionConfig without;
  without.include_startup_in_qoe = false;
  const SessionResult a = run_fixed(0, 1000.0, with);
  const SessionResult b = run_fixed(0, 1000.0, without);
  EXPECT_NEAR(b.qoe - a.qoe, 3000.0 * 1.2, 1e-9);
}

TEST(PlayerSession, SwitchCountAndBitrateChange) {
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  const auto trace = trace::ThroughputTrace::constant(5000.0, 1000.0);
  ScriptedController controller({0, 1, 1, 2, 0, 0, 2, 2});
  ConstantPredictor predictor(5000.0);
  const SessionResult result =
      simulate(trace, manifest, qoe, {}, controller, predictor);
  // Switches at chunks 1, 3, 4, 6.
  EXPECT_EQ(result.switch_count, 4u);
  // Sum |deltas| = 450 + 0 + 750 + 1200 + 0 + 1200 + 0 = 3600 over 7 steps.
  EXPECT_NEAR(result.average_bitrate_change_kbps, 3600.0 / 7.0, 1e-9);
}

TEST(PlayerSession, OutOfRangeDecisionThrows) {
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  const auto trace = trace::ThroughputTrace::constant(1000.0, 100.0);
  BadController controller;
  ConstantPredictor predictor(1000.0);
  EXPECT_THROW(simulate(trace, manifest, qoe, {}, controller, predictor),
               std::logic_error);
}

/// Every entry point that steps Playback rejects the configs no player can
/// run: the session, the shared-link fleet and the offline planner.
TEST(PlayerSession, ConfigValidation) {
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  const auto link = trace::ThroughputTrace::constant(5000.0, 1000.0);
  SessionConfig zero_capacity;
  zero_capacity.buffer_capacity_s = 0.0;
  SessionConfig threshold;
  threshold.startup_policy = StartupPolicy::kBufferThreshold;
  threshold.startup_buffer_threshold_s = 100.0;
  SessionConfig fleet_threshold;  // runs anyway, startup 0, without a check
  fleet_threshold.startup_policy = StartupPolicy::kBufferThreshold;
  fleet_threshold.startup_buffer_threshold_s = 40.0;
  SessionConfig negative_delay;
  negative_delay.startup_policy = StartupPolicy::kFixedDelay;
  negative_delay.fixed_startup_delay_s = -1.0;

  FixedLevelController controller(0);
  ConstantPredictor predictor(5000.0);
  BitrateController* controllers[] = {&controller};
  predict::ThroughputPredictor* predictors[] = {&predictor};
  for (const SessionConfig& bad :
       {zero_capacity, threshold, fleet_threshold, negative_delay}) {
    EXPECT_THROW(PlayerSession(manifest, qoe, bad), std::invalid_argument);
    EXPECT_THROW(core::OfflineOptimalPlanner(manifest, qoe, bad),
                 std::invalid_argument);
    MultiPlayerConfig fleet;
    fleet.session = bad;
    EXPECT_THROW(simulate_shared_link(link, manifest, qoe, fleet, controllers,
                                      predictors),
                 std::invalid_argument);
  }
}

/// Invariants that must hold for any controller on any trace: buffer within
/// [0, Bmax], monotone clock, QoE consistent with the per-chunk log.
TEST(PlayerSession, InvariantsOverRandomSessions) {
  util::Rng rng(55);
  const auto manifest = media::VideoManifest::envivio_default();
  const auto qoe = testing::balanced_qoe();
  for (int trial = 0; trial < 25; ++trial) {
    util::Rng trace_rng = rng.split();
    const auto trace = trace::HsdpaLikeConfig{}.generate(trace_rng, 600.0);
    std::vector<std::size_t> script(manifest.chunk_count());
    for (auto& level : script) {
      level = static_cast<std::size_t>(rng.uniform_int(0, 4));
    }
    ScriptedController controller(script);
    ConstantPredictor predictor(trace.mean_kbps());
    const SessionResult result =
        simulate(trace, manifest, qoe, {}, controller, predictor);

    ASSERT_EQ(result.chunks.size(), manifest.chunk_count());
    double prev_end = 0.0;
    std::vector<double> bitrates;
    std::vector<double> rebuffers;
    for (const ChunkRecord& r : result.chunks) {
      ASSERT_GE(r.buffer_after_s, 0.0);
      ASSERT_LE(r.buffer_after_s, 30.0 + 1e-9);
      ASSERT_GE(r.buffer_before_s, 0.0);
      ASSERT_GE(r.rebuffer_s, 0.0);
      ASSERT_GT(r.download_s, 0.0);
      ASSERT_GT(r.throughput_kbps, 0.0);
      ASSERT_GE(r.start_s, prev_end - 1e-9);
      prev_end = r.start_s + r.download_s + r.wait_s;
      bitrates.push_back(r.bitrate_kbps);
      rebuffers.push_back(r.rebuffer_s);
    }
    ASSERT_NEAR(result.qoe,
                qoe.session_qoe(bitrates, rebuffers, result.startup_delay_s),
                1e-6);
    ASSERT_GE(result.session_duration_s, prev_end - 1e-9);
  }
}

TEST(TraceChunkSource, FetchAdvancesClockExactly) {
  const auto manifest = testing::small_manifest();
  const trace::ThroughputTrace trace({{1.0, 600.0}, {1.0, 1800.0}});
  TraceChunkSource source(trace, manifest);
  EXPECT_EQ(source.truth(), &trace);
  EXPECT_DOUBLE_EQ(source.now(), 0.0);
  // Chunk at level 0: 1200 kb. 600 kb in first second, 600 kb at 1800 kbps.
  const FetchOutcome outcome = source.fetch(0, 0);
  EXPECT_NEAR(outcome.duration_s, 1.0 + 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(source.now(), outcome.duration_s, 1e-12);
  source.wait(2.5);
  EXPECT_NEAR(source.now(), outcome.duration_s + 2.5, 1e-12);
}

}  // namespace
}  // namespace abr::sim
