// Origin failover and circuit breaking: the breaker state machine and its
// deterministic (event-counted, seeded) probe schedule, OriginPool routing,
// OutageScript parsing, the virtual-time kill/restart chaos session, the
// real-socket kill/restart session against two live ChunkServers, and hedged
// startup requests.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "net/chunk_server.hpp"
#include "net/origin_pool.hpp"
#include "net/origin_sim.hpp"
#include "net/streaming_client.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "sim/player.hpp"
#include "test_helpers.hpp"
#include "testing/outage_script.hpp"
#include "trace/throughput_trace.hpp"

namespace abr::net {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

BreakerConfig fast_breaker() {
  BreakerConfig config;
  config.failure_threshold = 3;
  config.probe_interval = 2;
  config.probe_jitter = 0.5;
  config.close_threshold = 1;
  return config;
}

TEST(BreakerConfig, RejectsNonsense) {
  BreakerConfig config;
  config.failure_threshold = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = BreakerConfig{};
  config.probe_interval = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = BreakerConfig{};
  config.probe_jitter = 1.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = BreakerConfig{};
  config.close_threshold = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  EXPECT_NO_THROW(BreakerConfig{}.validate());
}

TEST(CircuitBreaker, OpensAfterConsecutiveFailures) {
  CircuitBreaker breaker(fast_breaker(), /*seed=*/1);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.record_failure();
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  // A success resets the consecutive count: sporadic failures never trip it.
  breaker.record_success();
  breaker.record_failure();
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.try_claim());
}

TEST(CircuitBreaker, ProbeLifecycleAndReopen) {
  CircuitBreaker breaker(fast_breaker(), /*seed=*/7);
  for (int i = 0; i < 3; ++i) breaker.record_failure();
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);

  // Denied consults advance the probe schedule; the jittered interval is
  // bounded by probe_interval * (1 + jitter), so the probe must come due
  // within ceil(2 * 1.5) = 3 ticks.
  int ticks = 0;
  while (breaker.state() == BreakerState::kOpen) {
    breaker.tick();
    ++ticks;
    ASSERT_LE(ticks, 3);
  }
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.try_claim());
  // Only one probe in flight at a time.
  EXPECT_FALSE(breaker.try_claim());

  // Probe fails: reopen; the next probe schedule is drawn fresh.
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  while (breaker.state() == BreakerState::kOpen) breaker.tick();
  EXPECT_TRUE(breaker.try_claim());
  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreaker, ProbeScheduleIsDeterministicPerSeed) {
  // The same seed must reproduce the same jittered probe schedule; this is
  // what keeps chaos runs bit-identical.
  const auto schedule = [](std::uint64_t seed) {
    CircuitBreaker breaker(fast_breaker(), seed);
    std::vector<int> intervals;
    for (int round = 0; round < 5; ++round) {
      for (int i = 0; i < 3; ++i) breaker.record_failure();
      int ticks = 0;
      while (breaker.state() == BreakerState::kOpen) {
        breaker.tick();
        ++ticks;
      }
      intervals.push_back(ticks);
      EXPECT_TRUE(breaker.try_claim());
      breaker.record_failure();  // probe fails, reopen for the next round
    }
    return intervals;
  };
  EXPECT_EQ(schedule(42), schedule(42));
  EXPECT_EQ(schedule(1234567), schedule(1234567));
}

TEST(CircuitBreaker, LateSuccessWhileOpenCloses) {
  CircuitBreaker breaker(fast_breaker(), /*seed=*/3);
  for (int i = 0; i < 3; ++i) breaker.record_failure();
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(OriginPool, SingleOriginBypassesBreakerEntirely) {
  OriginPool pool(1, fast_breaker(), /*seed=*/9);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(pool.acquire(0), std::optional<std::size_t>(0));
    pool.report_failure(0);
  }
  // With nowhere to fail over to, the breaker must never open: the
  // single-origin path behaves exactly as it did before the pool existed.
  EXPECT_EQ(pool.state(0), BreakerState::kClosed);
  EXPECT_EQ(pool.fast_fails(0), 0u);
  EXPECT_TRUE(pool.transitions().empty());
}

TEST(OriginPool, FailsOverAndStaysSticky) {
  OriginPool pool(2, fast_breaker(), /*seed=*/11);
  EXPECT_EQ(pool.acquire(0), std::optional<std::size_t>(0));
  for (int i = 0; i < 3; ++i) pool.report_failure(0);
  EXPECT_EQ(pool.state(0), BreakerState::kOpen);
  EXPECT_EQ(pool.transition_string(0), "closed->open");

  // Preferred origin is open: failover to 1, and a caller that has moved
  // its preference keeps getting 1 (sticky) until a probe of 0 comes due.
  const auto next = pool.acquire(0);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 1u);
  EXPECT_GE(pool.fast_fails(0), 1u);
}

TEST(OriginPool, ProbePriorityRevisitsBrokenOrigin) {
  BreakerConfig config = fast_breaker();
  config.probe_jitter = 0.0;  // probe due after exactly 2 denied consults
  OriginPool pool(2, config, /*seed=*/13);
  for (int i = 0; i < 3; ++i) pool.report_failure(0);
  ASSERT_EQ(pool.state(0), BreakerState::kOpen);

  // Each acquire ticks origin 0's open breaker even though origin 1 serves
  // the traffic; on the tick that makes the probe due, the probe takes
  // priority over the healthy peer.
  EXPECT_EQ(pool.acquire(1), std::optional<std::size_t>(1));
  const auto probe = pool.acquire(1);
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(*probe, 0u);
  EXPECT_EQ(pool.state(0), BreakerState::kHalfOpen);

  // Probe succeeds: origin 0 closes again.
  pool.report_success(0);
  EXPECT_EQ(pool.state(0), BreakerState::kClosed);
  EXPECT_EQ(pool.transition_string(0), "closed->open->half_open->closed");
}

TEST(OriginPool, NulloptOnlyWhileNoProbeIsDue) {
  BreakerConfig config = fast_breaker();
  config.probe_jitter = 0.0;
  OriginPool pool(2, config, /*seed=*/17);
  for (int i = 0; i < 3; ++i) pool.report_failure(0);
  for (int i = 0; i < 3; ++i) pool.report_failure(1);

  // Both origins open: denied cycles until the first probe comes due, which
  // is bounded by the probe interval. The loop can never livelock.
  int denied = 0;
  std::optional<std::size_t> granted;
  for (int i = 0; i < 4 && !granted.has_value(); ++i) {
    granted = pool.acquire(0);
    if (!granted.has_value()) ++denied;
  }
  ASSERT_TRUE(granted.has_value());
  EXPECT_LE(denied, 2);
}

TEST(OriginPool, HedgeTargetIsSideEffectFree) {
  OriginPool pool(3, fast_breaker(), /*seed=*/19);
  EXPECT_EQ(pool.hedge_target(0), std::optional<std::size_t>(1));
  EXPECT_EQ(pool.hedge_target(1), std::optional<std::size_t>(0));
  for (int i = 0; i < 3; ++i) pool.report_failure(1);
  EXPECT_EQ(pool.hedge_target(0), std::optional<std::size_t>(2));
  // Consulting hedge targets must not tick schedules or count fast-fails.
  EXPECT_EQ(pool.fast_fails(1), 0u);
  for (int i = 0; i < 3; ++i) pool.report_failure(0);
  for (int i = 0; i < 3; ++i) pool.report_failure(2);
  EXPECT_EQ(pool.hedge_target(0), std::nullopt);
}

TEST(OutageScript, ParsesKillSpecs) {
  const auto window = testing::OutageScript::parse_kill_spec("at=60");
  EXPECT_EQ(window.origin, 0u);
  EXPECT_DOUBLE_EQ(window.down_s, 60.0);
  EXPECT_TRUE(window.up_s > 1e12);  // never restarts

  const auto full =
      testing::OutageScript::parse_kill_spec("at=60,restart=150,origin=1");
  EXPECT_EQ(full.origin, 1u);
  EXPECT_DOUBLE_EQ(full.down_s, 60.0);
  EXPECT_DOUBLE_EQ(full.up_s, 150.0);

  EXPECT_THROW(testing::OutageScript::parse_kill_spec(""),
               std::invalid_argument);
  EXPECT_THROW(testing::OutageScript::parse_kill_spec("restart=10"),
               std::invalid_argument);
  EXPECT_THROW(testing::OutageScript::parse_kill_spec("at=abc"),
               std::invalid_argument);
  EXPECT_THROW(testing::OutageScript::parse_kill_spec("at=5,bogus=1"),
               std::invalid_argument);
}

TEST(OutageScript, DownWindowsAndValidation) {
  testing::OutageScript script;
  script.windows.push_back({0, 10.0, 20.0});
  script.windows.push_back({1, 15.0, 25.0});
  script.validate();
  EXPECT_FALSE(script.down(0, 9.99));
  EXPECT_TRUE(script.down(0, 10.0));
  EXPECT_TRUE(script.down(0, 19.99));
  EXPECT_FALSE(script.down(0, 20.0));
  EXPECT_FALSE(script.down(1, 12.0));
  EXPECT_TRUE(script.down(1, 18.0));
  EXPECT_DOUBLE_EQ(script.last_recovery_s(), 25.0);

  testing::OutageScript inverted;
  inverted.windows.push_back({0, 20.0, 10.0});
  EXPECT_THROW(inverted.validate(), std::invalid_argument);
}

// --- Virtual-time chaos: the determinism story of `abrsim --kill-origin` ---

sim::SessionResult run_chaos_session(SimulatedOriginSource& source,
                                     const media::VideoManifest& manifest) {
  const qoe::QoeModel qoe = testing::balanced_qoe();
  sim::SessionConfig config;
  // A small buffer spreads fetches across the whole playback (one every few
  // session-seconds) instead of front-loading them, so the fetch sequence
  // straddles the outage window *and* the restart.
  config.buffer_capacity_s = 6.0;
  testing::FixedLevelController controller(0);
  testing::ConstantPredictor predictor(3000.0);
  sim::PlayerSession session(manifest, qoe, config);
  return session.run(source, controller, predictor);
}

TEST(SimulatedOrigin, KillAndRestartCompletesWithoutSkips) {
  const auto manifest = testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(3000.0, 600.0);
  testing::OutageScript script;
  script.windows.push_back({0, 2.0, 12.0});

  SimulatedOriginOptions options;
  options.origins = 2;
  options.breaker = fast_breaker();
  SimulatedOriginSource source(trace, manifest, script, options);

  const sim::SessionResult result = run_chaos_session(source, manifest);
  EXPECT_EQ(result.chunks.size(), manifest.chunk_count());
  EXPECT_EQ(result.skipped_chunks, 0u);
  EXPECT_EQ(result.degraded_chunks, 0u);
  EXPECT_GE(source.failovers(), 1u);

  // The outage chunks were served by origin 1; the breaker on origin 0
  // walked closed -> open -> ... -> half_open -> closed once the restart
  // let a probe through.
  EXPECT_EQ(source.pool().state(0), BreakerState::kClosed);
  const std::string transitions = source.pool().transition_string(0);
  EXPECT_NE(transitions.find("closed->open"), std::string::npos);
  EXPECT_NE(transitions.find("half_open->closed"), std::string::npos);
  EXPECT_EQ(source.pool().transition_string(1), "closed");

  bool any_on_origin1 = false;
  for (const sim::ChunkRecord& record : result.chunks) {
    any_on_origin1 = any_on_origin1 || record.origin == 1;
  }
  EXPECT_TRUE(any_on_origin1);
}

TEST(SimulatedOrigin, SameSeedRunsAreBitIdentical) {
  const auto manifest = testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(2500.0, 600.0);
  const auto run = [&] {
    testing::OutageScript script;
    script.windows.push_back({0, 2.0, 12.0});
    SimulatedOriginOptions options;
    options.origins = 2;
    options.breaker = fast_breaker();
    SimulatedOriginSource source(trace, manifest, script, options);
    return run_chaos_session(source, manifest);
  };
  const sim::SessionResult a = run();
  const sim::SessionResult b = run();
  ASSERT_EQ(a.chunks.size(), b.chunks.size());
  for (std::size_t i = 0; i < a.chunks.size(); ++i) {
    // Bit-identical, not approximately equal: every timing field is a pure
    // function of (trace, script, seeds).
    EXPECT_EQ(a.chunks[i].level, b.chunks[i].level);
    EXPECT_EQ(a.chunks[i].origin, b.chunks[i].origin);
    EXPECT_EQ(a.chunks[i].attempts, b.chunks[i].attempts);
    EXPECT_EQ(a.chunks[i].start_s, b.chunks[i].start_s);
    EXPECT_EQ(a.chunks[i].download_s, b.chunks[i].download_s);
    EXPECT_EQ(a.chunks[i].rebuffer_s, b.chunks[i].rebuffer_s);
  }
  EXPECT_EQ(a.total_rebuffer_s, b.total_rebuffer_s);
  EXPECT_EQ(a.qoe, b.qoe);
}

TEST(SimulatedOrigin, PermanentOutageOfAllOriginsStillTerminates) {
  const auto manifest = testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(3000.0, 600.0);
  testing::OutageScript script;
  script.windows.push_back({0, 0.0, 1e18});
  script.windows.push_back({1, 0.0, 1e18});
  SimulatedOriginOptions options;
  options.origins = 2;
  options.breaker = fast_breaker();
  SimulatedOriginSource source(trace, manifest, script, options);
  const sim::FetchOutcome outcome = source.fetch(0, 0);
  EXPECT_TRUE(outcome.failed);
  EXPECT_GE(outcome.attempts, 1u);
}

// --- Real sockets: kill one of two live ChunkServers mid-session ---

TEST(RealSocketFailover, KilledOriginFailsOverAndRecovers) {
  const auto manifest = testing::small_manifest();
  const double speedup = 20.0;
  const auto trace = trace::ThroughputTrace::constant(8000.0, 600.0);
  ChunkServer origin_a(manifest, trace, speedup);
  ChunkServer origin_b(manifest, trace, speedup);
  origin_a.start();
  origin_b.start();
  const std::uint16_t port_a = origin_a.port();

  sim::RetryPolicy retry;
  retry.max_attempts = 4;
  retry.request_timeout_ms = 2000;
  retry.initial_backoff_s = 0.2;
  retry.max_backoff_s = 1.0;
  FailoverOptions failover;
  failover.breaker = fast_breaker();
  HttpChunkSource source(
      {{"127.0.0.1", port_a}, {"127.0.0.1", origin_b.port()}}, manifest,
      speedup, retry, /*jitter_seed=*/0x5eedULL, failover);
  origin_a.reset_trace_clock();
  origin_b.reset_trace_clock();

  // Chaos: kill origin A shortly into the session, restart it on the same
  // port (SO_REUSEADDR) a little later.
  std::thread chaos([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    origin_a.stop();
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    origin_a.start(port_a);
  });

  const qoe::QoeModel qoe = testing::balanced_qoe();
  sim::SessionConfig config;
  testing::FixedLevelController controller(0);
  testing::ConstantPredictor predictor(3000.0);
  sim::PlayerSession session(manifest, qoe, config);
  const sim::SessionResult result =
      session.run(source, controller, predictor);
  chaos.join();

  // The session must ride out the outage: every chunk delivered.
  EXPECT_EQ(result.chunks.size(), manifest.chunk_count());
  EXPECT_EQ(result.skipped_chunks, 0u);
  EXPECT_EQ(result.degraded_chunks, 0u);
  origin_a.stop();
  origin_b.stop();
}

// --- Hedged startup requests ---

/// Accepts connections and never answers (copy of the net_faults_test
/// helper): the canonical stuck origin.
class SilentServer {
 public:
  SilentServer() : listener_(TcpListener::bind_loopback()) {
    thread_ = std::thread([this] {
      try {
        while (true) {
          TcpStream stream = listener_.accept();
          const std::lock_guard<std::mutex> lock(mutex_);
          streams_.push_back(std::make_unique<TcpStream>(std::move(stream)));
        }
      } catch (const std::system_error&) {
        // listener closed: orderly shutdown
      }
    });
  }

  ~SilentServer() {
    listener_.close();
    thread_.join();
  }

  std::uint16_t port() const { return listener_.port(); }

 private:
  TcpListener listener_;
  std::thread thread_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<TcpStream>> streams_;
};

TEST(HedgedFetch, SecondaryWinsAgainstStuckPrimaryWithoutWaitingForTimeout) {
  const auto manifest = testing::small_manifest();
  const double speedup = 20.0;
  const auto trace = trace::ThroughputTrace::constant(8000.0, 600.0);
  SilentServer stuck;
  ChunkServer healthy(manifest, trace, speedup);
  healthy.start();
  healthy.reset_trace_clock();

  sim::RetryPolicy retry;
  retry.max_attempts = 2;
  retry.request_timeout_ms = 5000;  // without the hedge this is the floor
  FailoverOptions failover;
  failover.hedge_startup = true;
  failover.hedge_chunks = 1;
  HttpChunkSource source(
      {{"127.0.0.1", stuck.port()}, {"127.0.0.1", healthy.port()}}, manifest,
      speedup, retry, /*jitter_seed=*/0x5eedULL, failover);

  const auto start = Clock::now();
  const sim::FetchOutcome outcome = source.fetch(0, 0);
  EXPECT_FALSE(outcome.failed);
  EXPECT_EQ(outcome.origin, 1u);
  EXPECT_EQ(source.hedges_launched(), 1u);
  EXPECT_EQ(source.hedge_wins(), 1u);
  // The winning hedge aborts the stuck primary leg: nowhere near the 5 s
  // socket deadline.
  EXPECT_LT(seconds_since(start), 3.0);

  // Later chunks are past the hedge window: served normally (by whichever
  // origin the pool now prefers — the healthy one).
  const sim::FetchOutcome later = source.fetch(1, 0);
  EXPECT_FALSE(later.failed);
  EXPECT_EQ(source.hedges_launched(), 1u);
}

TEST(HedgedFetch, HedgeWaitsForItsDelayThenWins) {
  const auto manifest = testing::small_manifest();
  const double speedup = 20.0;
  const auto trace = trace::ThroughputTrace::constant(8000.0, 600.0);
  SilentServer stuck;
  ChunkServer healthy(manifest, trace, speedup);
  healthy.start();
  healthy.reset_trace_clock();

  sim::RetryPolicy retry;
  retry.request_timeout_ms = 5000;
  FailoverOptions failover;
  failover.hedge_startup = true;
  failover.hedge_delay_s = 10.0;  // 0.5 s of wall time at this speedup
  HttpChunkSource source(
      {{"127.0.0.1", stuck.port()}, {"127.0.0.1", healthy.port()}}, manifest,
      speedup, retry, /*jitter_seed=*/0x5eedULL, failover);

  const auto start = Clock::now();
  const sim::FetchOutcome outcome = source.fetch(0, 0);
  const double wall_s = seconds_since(start);
  EXPECT_FALSE(outcome.failed);
  EXPECT_EQ(outcome.origin, 1u);
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_EQ(source.hedge_wins(), 1u);
  EXPECT_GE(wall_s, 0.45);
  EXPECT_LT(wall_s, 3.0);
}

TEST(HedgedFetch, PrimaryWinningWithinTheDelayNeverLaunchesTheHedge) {
  const auto manifest = testing::small_manifest();
  const double speedup = 20.0;
  const auto trace = trace::ThroughputTrace::constant(8000.0, 600.0);
  ChunkServer origin_a(manifest, trace, speedup);
  ChunkServer origin_b(manifest, trace, speedup);
  origin_a.start();
  origin_b.start();
  origin_a.reset_trace_clock();
  origin_b.reset_trace_clock();

  FailoverOptions failover;
  failover.hedge_startup = true;
  failover.hedge_delay_s = 600.0;  // 30 s of wall time at this speedup
  HttpChunkSource source(
      {{"127.0.0.1", origin_a.port()}, {"127.0.0.1", origin_b.port()}},
      manifest, speedup, sim::RetryPolicy{}, /*jitter_seed=*/0x5eedULL,
      failover);

  const auto start = Clock::now();
  const sim::FetchOutcome outcome = source.fetch(0, 0);
  EXPECT_FALSE(outcome.failed);
  EXPECT_EQ(outcome.origin, 0u);
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_EQ(source.hedges_launched(), 1u);
  EXPECT_EQ(source.hedge_wins(), 0u);
  EXPECT_LT(seconds_since(start), 5.0);
}

TEST(HedgedFetch, PrimaryWinsWhenBothHealthy) {
  const auto manifest = testing::small_manifest();
  const double speedup = 20.0;
  const auto trace = trace::ThroughputTrace::constant(8000.0, 600.0);
  ChunkServer origin_a(manifest, trace, speedup);
  ChunkServer origin_b(manifest, trace, speedup);
  origin_a.start();
  origin_b.start();
  origin_a.reset_trace_clock();
  origin_b.reset_trace_clock();

  sim::RetryPolicy retry;
  FailoverOptions failover;
  failover.hedge_startup = true;
  failover.hedge_chunks = 2;
  HttpChunkSource source(
      {{"127.0.0.1", origin_a.port()}, {"127.0.0.1", origin_b.port()}},
      manifest, speedup, retry, /*jitter_seed=*/0x5eedULL, failover);

  const sim::FetchOutcome outcome = source.fetch(0, 0);
  EXPECT_FALSE(outcome.failed);
  EXPECT_GT(outcome.kilobits, 0.0);
  // Both origins are healthy and the pool stays fully closed: neither
  // breaker may have been disturbed by the race (the aborted loser is
  // never reported).
  EXPECT_EQ(source.pool().state(0), BreakerState::kClosed);
  EXPECT_EQ(source.pool().state(1), BreakerState::kClosed);
  EXPECT_EQ(source.pool().transition_string(0), "closed");
  EXPECT_EQ(source.pool().transition_string(1), "closed");
}

}  // namespace
}  // namespace abr::net
