#pragma once

#include <span>
#include <vector>

#include "media/manifest.hpp"
#include "predict/predictor.hpp"
#include "qoe/qoe.hpp"
#include "sim/fleet_series.hpp"
#include "sim/player.hpp"

namespace abr::sim {

/// Configuration of a shared-bottleneck experiment.
struct MultiPlayerConfig {
  /// Per-player session settings, read as a single session reads them
  /// (trace_writer and journal included; each player journals as "p<i>" on
  /// trace track i). Only kFirstChunk and kBufferThreshold startup policies
  /// are supported here (kFixedDelay is a single-player sensitivity device).
  SessionConfig session;

  /// Player i begins downloading at i * startup_stagger_s, modeling viewers
  /// joining over time.
  double startup_stagger_s = 0.0;

  /// Optional fleet time-series aggregator: per-bucket QoE percentiles,
  /// rebuffer ratio, bitrate distribution, and sessions active, fed as
  /// chunks complete. Must outlive the call.
  FleetSeries* fleet = nullptr;
};

/// Outcome of a shared-link simulation.
struct MultiPlayerResult {
  /// Each player's session on its own clock (seconds since it joined), as
  /// PlayerSession reports a single session.
  std::vector<SessionResult> players;

  /// Jain fairness index over the players' average bitrates, in
  /// (1/n, 1]; 1 = perfectly equal shares.
  double jain_fairness = 0.0;

  /// Kilobits delivered over the kilobits the link offered from time 0 to
  /// the last download's completion.
  double link_utilization = 0.0;
};

/// Simulates N players streaming the same video through one bottleneck
/// whose total capacity follows `link`. Concurrently active downloads split
/// the instantaneous capacity equally (egalitarian processor sharing, the
/// idealized TCP fair share) — the multi-player interaction the paper
/// defers to future work (Section 8) and the setting FESTIVE [34] was
/// designed for.
///
/// The simulation is exact and event-driven: each player runs
/// PlayerKernel's per-chunk step, the same code as PlayerSession, at the
/// instants its downloads finish and its buffer-full waits end, so one
/// player alone reproduces PlayerSession bit for bit. The only difference
/// is that a player's download rate is its fair share of the link rather
/// than the whole trace. Controllers therefore see the biased,
/// competition-dependent throughput samples that make this setting hard
/// (the "downward spiral" of Huang et al.). The FleetSeries and the trace
/// timeline are on the fleet's clock, so players line up.
///
/// controllers/predictors must each have exactly one entry per player and
/// outlive the call.
MultiPlayerResult simulate_shared_link(
    const trace::ThroughputTrace& link, const media::VideoManifest& manifest,
    const qoe::QoeModel& qoe, const MultiPlayerConfig& config,
    std::span<BitrateController* const> controllers,
    std::span<predict::ThroughputPredictor* const> predictors);

/// Jain's fairness index (sum x)^2 / (n * sum x^2); 0 for empty input.
double jain_index(std::span<const double> values);

}  // namespace abr::sim
