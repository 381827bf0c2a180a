#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "media/manifest.hpp"
#include "net/http.hpp"
#include "net/origin_pool.hpp"
#include "qoe/qoe.hpp"
#include "sim/chunk_source.hpp"
#include "sim/player.hpp"
#include "testing/fault_plan.hpp"
#include "util/rng.hpp"

namespace abr::net {

/// One origin's address.
struct OriginEndpoint {
  std::string host;
  std::uint16_t port = 0;
};

/// Multi-origin behaviour knobs for HttpChunkSource. The defaults make the
/// failover machinery inert: breaker defaults, no hedging.
struct FailoverOptions {
  BreakerConfig breaker;

  /// Seeds the per-origin breaker probe jitter (see OriginPool).
  std::uint64_t seed = 0x0717c3b5ULL;

  /// When true, the first `hedge_chunks` chunks of the session each race a
  /// second request against another healthy origin (tail-latency insurance
  /// for the startup-critical chunks that gate playback). Both legs run on
  /// the calling thread's poll loop; the losing leg's connection is closed
  /// and the loser is not reported to the breaker.
  bool hedge_startup = false;
  std::size_t hedge_chunks = 1;

  /// Session-seconds to give the primary leg a head start before launching
  /// the hedge (0 = race immediately).
  double hedge_delay_s = 0.0;
};

/// How one transfer attempt of HttpChunkSource ended.
enum class AttemptEnd { kDelivered, kAborted, kFailed };

/// A sim::ChunkSource that fetches chunks over real HTTP, converting wall
/// time to session time by the emulation speedup. Plugging this into
/// PlayerSession turns the simulator into the paper's real-player emulation
/// (Section 7.2): same controller, same buffer logic, but transfers cross an
/// actual TCP connection shaped by the server.
///
/// Every transfer runs on a poll() loop on the calling thread (see
/// HttpClient); no fetch starts a thread.
///
/// Transport failures are survived, not propagated: each fetch runs the
/// RetryPolicy's attempt loop — per-read deadline, capped
/// exponential backoff with jitter from a seeded RNG — and reports
/// exhaustion through FetchOutcome::failed so PlayerSession can degrade or
/// skip. Retries, timeouts, and attempt failures are counted in the global
/// metrics registry.
///
/// With more than one origin, every attempt routes through an OriginPool:
/// per-origin circuit breakers fast-fail origins that look down, failover
/// moves traffic to the next healthy origin, and a deterministic
/// (event-counted, seeded) probe schedule revisits the broken one. A
/// single-origin source behaves exactly as it did before the pool existed.
class HttpChunkSource final : public sim::ChunkSource {
 public:
  /// Single-origin convenience constructor (the historical signature).
  /// The manifest must outlive the source. `speedup` must match the
  /// server-side shaper's. Backoff jitter derives from `jitter_seed`.
  HttpChunkSource(std::string host, std::uint16_t port,
                  const media::VideoManifest& manifest, double speedup = 1.0,
                  sim::RetryPolicy retry = {},
                  std::uint64_t jitter_seed = 0x5eedULL);

  /// Multi-origin constructor. `origins` must be non-empty; all origins must
  /// serve the same video. The per-origin retry budget is `retry`'s — the
  /// total attempt budget for a chunk is max_attempts * origins.size().
  HttpChunkSource(std::vector<OriginEndpoint> origins,
                  const media::VideoManifest& manifest, double speedup = 1.0,
                  sim::RetryPolicy retry = {},
                  std::uint64_t jitter_seed = 0x5eedULL,
                  FailoverOptions failover = {});

  sim::FetchOutcome fetch(std::size_t chunk, std::size_t level) override;

  /// Sub-chunk transfer over real HTTP: a resume credit turns into a
  /// "Range: bytes=N-" request (206 verified against Content-Range; a 416
  /// at a full offset means the chunk is already complete), and the abort
  /// monitor is a timer on the transfer's poll loop that asks
  /// FetchControl::stall_projected — the projection TraceChunkSource uses —
  /// and closes the connection when it projects a stall. Self-inflicted
  /// aborts are never reported to the circuit breaker and are not counted
  /// as attempt failures. Hedged startup is bypassed in controlled mode.
  sim::FetchOutcome fetch_controlled(std::size_t chunk, std::size_t level,
                                     const sim::FetchControl& control) override;
  bool supports_range() const override { return true; }
  void wait(double seconds) override;
  double now() const override;

  /// Downloads and parses the origin's MPD (from origin 0); throws if it
  /// does not match the local manifest's ladder (sanity check that client
  /// and server agree).
  media::VideoManifest fetch_manifest();

  const OriginPool& pool() const { return pool_; }
  std::size_t failovers() const { return failovers_; }
  std::size_t hedges_launched() const { return hedges_launched_; }
  std::size_t hedge_wins() const { return hedge_wins_; }

 private:
  /// One GET of `target` against `origin`; returns delivered kilobits or
  /// nullopt on any retryable failure. Throws on 3xx/4xx (config bug).
  std::optional<double> attempt(std::size_t origin, const std::string& target);

  /// The RetryPolicy loop of both fetch paths: each attempt claims an
  /// origin from the pool (a move counts as a failover), runs `attempt`
  /// there and reports a delivery or a failure to the breaker, and a
  /// failure backs off before the next attempt. Stops at the first delivery
  /// or abort, or once max_attempts per origin are spent; `attempts` also
  /// counts those spent before the call.
  AttemptEnd run_attempts(
      std::size_t& attempts,
      const std::function<AttemptEnd(std::size_t)>& attempt);

  /// Races `target` against the preferred origin and a hedge target.
  /// Returns the winning outcome, or nullopt when no second healthy origin
  /// exists or both legs failed (the caller falls back to the retry loop;
  /// `burned` reports attempts consumed here).
  std::optional<sim::FetchOutcome> try_hedged_fetch(const std::string& target,
                                                    double start_session_s,
                                                    std::size_t& burned);

  std::vector<OriginEndpoint> origins_;
  std::vector<std::unique_ptr<HttpClient>> clients_;
  const media::VideoManifest* manifest_;
  double speedup_;
  sim::RetryPolicy retry_;
  FailoverOptions failover_;
  OriginPool pool_;
  util::Rng jitter_rng_;
  std::chrono::steady_clock::time_point epoch_;
  std::size_t current_origin_ = 0;
  std::size_t failovers_ = 0;
  std::size_t hedges_launched_ = 0;
  std::size_t hedge_wins_ = 0;
};

/// Optional failure regime for run_emulated_session.
struct EmulationFaults {
  testing::FaultPlan plan;
  sim::RetryPolicy retry;
};

/// Runs one full emulated streaming session: starts a shaped ChunkServer on
/// loopback, streams the whole video through PlayerSession with the given
/// controller/predictor, and returns the same SessionResult the simulator
/// produces. `speedup` compresses the session (e.g., 20 => a 260 s video
/// takes ~13 s of wall time). When `faults` is non-null the server injects
/// the plan's failures and the client runs the given RetryPolicy.
sim::SessionResult run_emulated_session(
    const trace::ThroughputTrace& trace, const media::VideoManifest& manifest,
    const qoe::QoeModel& qoe, const sim::SessionConfig& config,
    sim::BitrateController& controller,
    predict::ThroughputPredictor& predictor, double speedup = 20.0,
    const EmulationFaults* faults = nullptr);

}  // namespace abr::net
