#pragma once

#include <cstddef>
#include <cstdint>

#include "media/manifest.hpp"
#include "trace/throughput_trace.hpp"

namespace abr::util {
class Rng;
}

namespace abr::sim {

/// Outcome of one chunk transfer (possibly spanning several attempts).
struct FetchOutcome {
  double duration_s = 0.0;   ///< wall (or virtual) time the transfer took,
                             ///< including failed attempts and backoff
  double kilobits = 0.0;     ///< payload size actually transferred
  bool failed = false;       ///< every attempt failed; kilobits is 0
  std::size_t attempts = 1;  ///< attempts consumed (>= 1)
  std::size_t origin = 0;    ///< origin that served (or last refused) the
                             ///< chunk; 0 for single-origin sources
  std::size_t faults = 0;    ///< injected faults / failed attempts hit by
                             ///< this fetch (delivery provenance)

  // Sub-chunk delivery (fetch_controlled only; fetch() leaves these zero).
  bool aborted = false;  ///< the mid-chunk abort monitor cancelled the
                         ///< transfer; delivered_kilobits holds the prefix
  double delivered_kilobits = 0.0;  ///< cumulative valid prefix of the chunk
                                    ///< (resume credit + bytes delivered by
                                    ///< this call), even when failed/aborted
  std::size_t resumes = 0;  ///< transfers issued with a nonzero range-resume
                            ///< offset instead of refetching from byte 0
};

/// Sub-chunk delivery controls for ChunkSource::fetch_controlled. The
/// defaults make the call behave exactly like fetch().
struct FetchControl {
  /// Valid prefix of the chunk already delivered (range-resume credit, in
  /// kilobits at the requested level): the source transfers only the
  /// remaining suffix. Only honoured when supports_range() is true.
  double resume_from_kilobits = 0.0;

  /// Deliver at most this fraction of the remaining payload, then return
  /// with the prefix intact — the virtual-time model of a truncated body
  /// whose bytes stay useful under range resume (the fault injector's
  /// partial-body kind). 1.0 = complete the transfer.
  double truncate_after_fraction = 1.0;

  /// Mid-chunk abort monitor (the sub-chunk deadline watch). When enabled,
  /// the source evaluates deterministic checkpoints every check_interval_s;
  /// once min_observation_s of transfer has elapsed it projects the
  /// remaining transfer time from the delivered-so-far rate and aborts when
  /// the projection implies a stall longer than max_stall_s beyond the
  /// playback cushion it was given.
  bool abort_enabled = false;
  double buffer_s = 0.0;           ///< playback cushion at transfer start
  double max_stall_s = 1.0;        ///< tolerated projected stall
  double min_observation_s = 1.0;  ///< monitor warm-up before any abort
  double check_interval_s = 0.25;  ///< checkpoint spacing

  /// The abort checkpoint, one projection for every source: whether a
  /// transfer that has delivered `done` of its `goal` (in any one unit)
  /// `elapsed_s` after it began projects, at its delivered-so-far rate, to
  /// finish later than the cushion left plus max_stall_s. Never during the
  /// min_observation_s warm-up.
  bool stall_projected(double elapsed_s, double done, double goal) const;
};

/// Transport retry semantics shared by the real-HTTP client and the
/// virtual-time fault injector: per-attempt deadline, capped exponential
/// backoff with jitter drawn from a seeded RNG (deterministic runs stay
/// deterministic), bounded attempt count.
struct RetryPolicy {
  std::size_t max_attempts = 4;
  double initial_backoff_s = 0.2;   ///< session seconds before attempt 2
  double backoff_multiplier = 2.0;
  double max_backoff_s = 5.0;       ///< cap on the exponential growth
  double jitter_fraction = 0.25;    ///< backoff scaled by 1 +/- this * u
  int request_timeout_ms = 10000;   ///< per-read deadline: the longest
                                    ///< wait for the next byte (wall clock;
                                    ///< real-network sources only)

  /// Backoff before the next attempt after `failed_attempts` (>= 1)
  /// consecutive failures, in session seconds. Jitter comes from `rng` so a
  /// seeded caller gets a reproducible schedule.
  double backoff_s(std::size_t failed_attempts, util::Rng& rng) const;
};

/// Where chunks come from and how time passes while they do.
///
/// Two implementations exist: TraceChunkSource advances a virtual clock
/// through a throughput trace (the simulation framework of Section 7.3), and
/// net::HttpChunkSource performs real HTTP transfers over a shaped loopback
/// connection (the emulation testbed of Section 7.2). PlayerSession runs the
/// identical buffer/QoE logic over either, which is what makes simulated and
/// emulated results directly comparable.
class ChunkSource {
 public:
  virtual ~ChunkSource() = default;

  /// Transfers chunk `chunk` at ladder index `level`; blocks (in virtual or
  /// real time) until complete.
  virtual FetchOutcome fetch(std::size_t chunk, std::size_t level) = 0;

  /// Sub-chunk transfer: honours range-resume credit and the mid-chunk abort
  /// monitor described by `control`. The base implementation ignores
  /// `control` and forwards to fetch() — correct for sources without range
  /// support; the player only passes a non-trivial control when
  /// supports_range() is true.
  virtual FetchOutcome fetch_controlled(std::size_t chunk, std::size_t level,
                                        const FetchControl& control) {
    (void)control;
    return fetch(chunk, level);
  }

  /// True when fetch_controlled honours FetchControl::resume_from_kilobits
  /// (HTTP Range on the wire; suffix-only transfers in virtual time).
  virtual bool supports_range() const { return false; }

  /// Passes `seconds` of session time without transferring (buffer-full
  /// waits).
  virtual void wait(double seconds) = 0;

  /// Session clock, seconds since the source was created/reset.
  virtual double now() const = 0;

  /// Ground-truth trace when one exists (simulation); null on real networks.
  /// Oracle predictors require it.
  virtual const trace::ThroughputTrace* truth() const { return nullptr; }
};

/// Virtual-time source: transfer times follow Eq. (2) of the paper exactly —
/// the integral of the trace's C_t over the download interval. Session time
/// only moves forward, so the source finds each transfer's end through a
/// trace cursor, amortized O(1) in the trace's length; the abort monitor's
/// checkpoints use the stateless integral.
class TraceChunkSource final : public ChunkSource {
 public:
  /// Both referents must outlive the source.
  TraceChunkSource(const trace::ThroughputTrace& trace,
                   const media::VideoManifest& manifest);

  FetchOutcome fetch(std::size_t chunk, std::size_t level) override;
  FetchOutcome fetch_controlled(std::size_t chunk, std::size_t level,
                                const FetchControl& control) override;
  bool supports_range() const override { return true; }
  void wait(double seconds) override;
  double now() const override { return now_s_; }
  const trace::ThroughputTrace* truth() const override { return trace_; }

 private:
  const trace::ThroughputTrace* trace_;
  const media::VideoManifest* manifest_;
  double now_s_ = 0.0;
  std::size_t cursor_ = 0;  ///< trace segment of the latest transfer end
};

}  // namespace abr::sim
