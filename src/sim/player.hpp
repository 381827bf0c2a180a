#pragma once

#include <algorithm>
#include <cassert>
#include <string>
#include <vector>

#include "media/manifest.hpp"
#include "predict/predictor.hpp"
#include "qoe/qoe.hpp"
#include "sim/chunk_source.hpp"
#include "sim/controller.hpp"

namespace abr::obs {
class Histogram;
class Journal;
class TraceWriter;
}

namespace abr::sim {

/// When playback is allowed to begin relative to the download process.
enum class StartupPolicy {
  /// Playback begins the moment the first chunk is fully downloaded. The
  /// startup delay Ts is then the first chunk's download time. This is the
  /// default for comparing algorithms (all see the same rule).
  kFirstChunk,
  /// Playback begins at a fixed time Ts regardless of buffer state; used by
  /// the Fig. 11d sensitivity sweep (which also excludes the startup QoE
  /// term).
  kFixedDelay,
  /// Playback begins once the buffer first reaches a threshold (classic
  /// dash.js behaviour with minBufferTime).
  kBufferThreshold,
};

/// Mid-chunk abort/re-decide policy (the sub-chunk delivery layer). When
/// enabled and the ChunkSource supports_range(), every in-flight transfer
/// runs under a deadline monitor: once the projected completion implies a
/// stall beyond max_stall_s the transfer is aborted, the wasted bytes are
/// charged honestly, and the controller re-decides at a strictly lower rung
/// resuming from the delivered byte offset. Sources without range support
/// ignore the policy entirely (the fetch path is byte-identical to a
/// disabled policy).
struct AbortPolicyConfig {
  bool enabled = false;
  double max_stall_s = 1.0;        ///< tolerated projected stall, seconds
  double min_observation_s = 1.0;  ///< monitor warm-up before any abort
  double check_interval_s = 0.25;  ///< deadline-monitor checkpoint spacing
};

/// Player-level knobs shared by simulation and network emulation.
struct SessionConfig {
  /// Bmax: playout buffer capacity, seconds (Section 7.1.1 uses 30 s).
  double buffer_capacity_s = 30.0;

  StartupPolicy startup_policy = StartupPolicy::kFirstChunk;
  double fixed_startup_delay_s = 0.0;      ///< for kFixedDelay
  double startup_buffer_threshold_s = 4.0; ///< for kBufferThreshold

  /// When false, the startup-delay term is dropped from the reported QoE
  /// (the Fig. 11d convention).
  bool include_startup_in_qoe = true;

  /// Optional Chrome trace-event sink: the session emits download /
  /// rebuffer / wait spans, decide() spans (wall-clock duration at the
  /// session timestamp), a buffer-level counter track, and playback-start
  /// instants. Session metrics additionally flow to
  /// obs::MetricsRegistry::global() whenever that registry is enabled.
  obs::TraceWriter* trace_writer = nullptr;

  /// Trace-event thread id for this session's spans; multi-session
  /// timelines give each player its own track.
  int trace_track = 0;

  /// Optional structured session journal: one JSONL record per chunk
  /// decision (full Eq. (5) attribution, predictor/solver state, delivery
  /// provenance) plus one per finished session. All timestamps are virtual
  /// session time, so seeded runs journal byte-identically.
  obs::Journal* journal = nullptr;

  /// Session id stamped on journal records ("s0", "p3", ...).
  std::string session_label = "s0";

  /// Failure handling when a ChunkSource reports an exhausted transfer
  /// (FetchOutcome::failed). When true, the player falls back to the lowest
  /// ladder rung for that chunk; if even that fails, the chunk is skipped
  /// and its full duration is charged as rebuffering, so QoE (Eq. 5) pays
  /// for the gap honestly. When false, a failed chunk skips immediately.
  bool degrade_on_failure = true;

  /// Sub-chunk delivery: mid-chunk abort/re-decide and partial-chunk
  /// degradation. Inert unless enabled AND the source supports_range().
  AbortPolicyConfig abort_policy;
};

/// Per-chunk log entry, mirroring the logging our dash.js modification
/// records (Section 6): player state, decisions, and outcomes.
struct ChunkRecord {
  std::size_t index = 0;
  std::size_t level = 0;
  double bitrate_kbps = 0.0;
  double size_kilobits = 0.0;
  double start_s = 0.0;            ///< time the download began
  double download_s = 0.0;         ///< transfer duration
  double throughput_kbps = 0.0;    ///< measured: size / duration
  double predicted_kbps = 0.0;     ///< forecast for this chunk (0 if none)
  double buffer_before_s = 0.0;    ///< B_k
  double buffer_after_s = 0.0;     ///< buffer after append and any wait
  double rebuffer_s = 0.0;         ///< stall incurred during this download
  double wait_s = 0.0;             ///< buffer-full wait after this chunk

  std::size_t attempts = 1;        ///< transfer attempts across all levels
  std::size_t origin = 0;          ///< origin that served the chunk (0 for
                                   ///< single-origin sources)
  std::size_t faults = 0;          ///< injected faults / failed attempts
                                   ///< encountered while fetching
  bool degraded = false;           ///< fell back to the lowest rung
  bool skipped = false;            ///< never delivered; duration charged as
                                   ///< rebuffering, bitrate recorded as 0

  // Sub-chunk delivery provenance (non-zero only with an abort policy).
  bool aborted = false;            ///< at least one in-flight transfer was
                                   ///< cancelled by the deadline monitor
  bool partial = false;            ///< only a prefix was played; the missing
                                   ///< suffix was charged as rebuffering
  double wasted_kilobits = 0.0;    ///< delivered bytes discarded by aborts /
                                   ///< level switches (Eq. 5 pays for them
                                   ///< via the elapsed download time)
  std::size_t resumes = 0;         ///< transfers issued with a range-resume
                                   ///< offset instead of refetching from 0
  std::size_t resumed_from_byte = 0;  ///< byte offset of the last resume
                                      ///< (0 when the chunk never resumed)
};

/// Complete outcome of one streaming session.
struct SessionResult {
  std::vector<ChunkRecord> chunks;
  double startup_delay_s = 0.0;
  double total_rebuffer_s = 0.0;
  double total_wait_s = 0.0;
  double session_duration_s = 0.0;  ///< clock time until last chunk appended
  double qoe = 0.0;                 ///< Eq. (5) under the session's QoE model

  // Derived aggregates (the Fig. 9/10 panels).
  double average_bitrate_kbps = 0.0;
  double average_bitrate_change_kbps = 0.0;  ///< mean |R_{k+1} - R_k|
  std::size_t switch_count = 0;

  /// Fraction of chunks with any rebuffering.
  double rebuffer_chunk_fraction = 0.0;

  // Failure handling (non-zero only under fault injection / real networks).
  std::size_t degraded_chunks = 0;  ///< chunks forced to the lowest rung
  std::size_t skipped_chunks = 0;   ///< chunks never delivered
  std::size_t total_attempts = 0;   ///< transfer attempts across the session

  // Sub-chunk delivery aggregates (non-zero only with an abort policy).
  std::size_t aborted_chunks = 0;   ///< chunks with >= 1 monitor abort
  std::size_t partial_chunks = 0;   ///< chunks played as a prefix only
  std::size_t resume_count = 0;     ///< range-resumed transfers
  double wasted_kilobits = 0.0;     ///< bytes downloaded but never played
};

class FleetSeries;

/// Session time a player lets pass after a chunk, before its next request
/// (Eq. (4)), in the order the two parts elapse.
struct ChunkWait {
  double idle_s = 0.0;   ///< kFixedDelay only: idling until playback starts
  double drain_s = 0.0;  ///< draining the buffer's excess over Bmax
};

/// The player's playback state -- the buffer level, whether playback has
/// started, and the startup delay -- stepped through Eqs. (3)-(4) under the
/// session's startup policy and Bmax. The one copy of those equations:
/// PlayerKernel steps it for PlayerSession and the shared-link fleet, and
/// core::OfflineOptimalPlanner for QoE(OPT), so the optimum plays chunks
/// exactly as the player does. Times are on the session's clock.
class Playback {
 public:
  /// An idle player with an empty buffer. Throws std::invalid_argument for
  /// a config no player can run: Bmax <= 0, a negative fixed startup delay,
  /// or a startup threshold above Bmax. `config` must outlive every copy.
  explicit Playback(const SessionConfig& config);

  double buffer_s() const { return buffer_s_; }
  bool playing() const { return playing_; }
  double startup_delay_s() const { return startup_delay_s_; }  ///< Ts

  /// The fixed-delay start while idle before a request at `now_s`: past Ts,
  /// playback started at Ts and has drained the buffer since. Returns the
  /// stall.
  double start_if_due(double now_s) {
    double stall = 0.0;
    if (!playing_ && config_->startup_policy == StartupPolicy::kFixedDelay &&
        now_s >= config_->fixed_startup_delay_s) {
      start(config_->fixed_startup_delay_s);
      stall = drain(now_s - startup_delay_s_);
    }
    return stall;
  }

  /// Eq. (3) for a download of `download_s` that ended at `end_s`: playback
  /// drains the buffer (from Ts if a fixed delay passes mid-download), then
  /// `played_fraction` of the chunk's `chunk_s` seconds is appended (1 for a
  /// whole chunk, 0 for a skipped one) and the rest is a stall. A chunk that
  /// delivered anything may start playback, as the policy says. Returns the
  /// stall.
  double download(double download_s, double end_s, double chunk_s,
                  double played_fraction = 1.0) {
    const SessionConfig& config = *config_;
    double stall = 0.0;
    if (playing_) {
      stall = drain(download_s);
    } else if (config.startup_policy == StartupPolicy::kFixedDelay &&
               end_s > config.fixed_startup_delay_s) {
      start(config.fixed_startup_delay_s);
      stall = drain(end_s - startup_delay_s_);
    }
    buffer_s_ += played_fraction * chunk_s;
    stall += (1.0 - played_fraction) * chunk_s;
    if (!playing_ && played_fraction > 0.0 &&
        (config.startup_policy == StartupPolicy::kFirstChunk ||
         (config.startup_policy == StartupPolicy::kBufferThreshold &&
          buffer_s_ >= config.startup_buffer_threshold_s))) {
      start(end_s);
    }
    return stall;
  }

  /// Eq. (4) after a chunk that completed at `end_s`: the buffer's excess
  /// over Bmax drains before the next request; a player that has not
  /// started (a fixed delay after `end_s`) first idles until Ts and starts.
  ChunkWait wait(double end_s) {
    const SessionConfig& config = *config_;
    ChunkWait wait;
    if (buffer_s_ > config.buffer_capacity_s) {
      if (!playing_) {
        assert(config.startup_policy == StartupPolicy::kFixedDelay);
        wait.idle_s = std::max(0.0, config.fixed_startup_delay_s - end_s);
        start(config.fixed_startup_delay_s);
      }
      wait.drain_s = buffer_s_ - config.buffer_capacity_s;
      buffer_s_ = config.buffer_capacity_s;
    }
    return wait;
  }

  /// The late fixed-delay rule after the last chunk: a fixed delay later
  /// than the whole download still counts, and playback starts at Ts.
  void finish() {
    if (!playing_ && config_->startup_policy == StartupPolicy::kFixedDelay) {
      start(config_->fixed_startup_delay_s);
    }
  }

 private:
  void start(double startup_delay_s) {
    playing_ = true;
    startup_delay_s_ = startup_delay_s;
  }

  /// Plays `seconds` from the buffer; returns the stall.
  double drain(double seconds) {
    assert(seconds >= 0.0);
    const double stall = std::max(0.0, seconds - buffer_s_);
    buffer_s_ = std::max(0.0, buffer_s_ - seconds);
    return stall;
  }

  const SessionConfig* config_;
  double buffer_s_ = 0.0;
  double startup_delay_s_ = 0.0;
  bool playing_ = false;
};

/// One player's per-chunk step, Eqs. (1)-(5) of the paper, written once for
/// every engine; the buffer dynamics are its Playback's. PlayerSession runs
/// begin() -> its ChunkSource's fetch -> complete() -> the source's wait for
/// each chunk; the shared-link fleet calls the same halves at its event
/// times. Every time passed in is on the session's own clock (seconds since
/// it began), so a fleet player's records read exactly like a single
/// session's.
class PlayerKernel {
 public:
  /// Starts a session: resets the controller. Throws std::invalid_argument
  /// for a config Playback rejects. All referents must outlive the kernel.
  PlayerKernel(const media::VideoManifest& manifest, const qoe::QoeModel& qoe,
               const SessionConfig& config, BitrateController& controller,
               predict::ThroughputPredictor& predictor);

  /// Seats the session as player `index` of a shared-link fleet: journal
  /// label "p<index>", trace track `index`, a timeline drawn `join_s` later
  /// on the fleet's clock, and chunks fed to `series` (may be null).
  void seat_in_fleet(std::size_t index, double join_s, FleetSeries* series);

  /// True once every chunk has completed.
  bool done() const { return chunks_done_ == manifest_->chunk_count(); }

  /// Begin half: predicts, decides, and opens the next chunk's record.
  /// Returns the chosen ladder index.
  std::size_t begin(double now_s, const trace::ThroughputTrace* truth);

  /// Runs the controller for the next chunk on the forecasts begin() made,
  /// with decide-latency metrics and a trace span, and returns its choice.
  /// begin() calls it; the abort monitor calls it again mid-transfer with
  /// the buffer left at `now_s`.
  std::size_t decide(double now_s, double buffer_s);

  /// The open chunk's record. Delivery may amend its level, size and
  /// provenance (degraded, aborted, partial, resumes, waste) before
  /// complete().
  ChunkRecord& open_record() { return result_.chunks.back(); }

  bool playing() const { return playback_.playing(); }

  /// Complete half: the transfer of the open chunk ended at `end_s`. Steps
  /// the Playback through Eq. (3), startup and Eq. (4), then runs the
  /// Eq. (5) accumulation, metrics, trace and journal, and returns the wait
  /// before the next request. A partial chunk plays `played_fraction` of its
  /// duration.
  ChunkWait complete(const FetchOutcome& outcome, double end_s,
                     double played_fraction = 1.0);

  /// Session finalizer: startup term, aggregates and the session journal
  /// record, for a session whose clock reads `end_s` after its last wait.
  SessionResult finish(double end_s);

 private:
  const media::VideoManifest* manifest_;
  const qoe::QoeModel* qoe_;
  const SessionConfig* config_;
  BitrateController* controller_;
  predict::ThroughputPredictor* predictor_;
  obs::TraceWriter* tracer_;  ///< null unless a writer is attached and on
  obs::Histogram* decide_hist_;
  FleetSeries* series_ = nullptr;
  std::string label_;
  int track_;
  double trace_offset_s_ = 0.0;  ///< session clock -> timeline clock
  bool time_decisions_;
  bool playback_start_emitted_ = false;

  qoe::QoeModel::Accumulator qoe_acc_;
  Playback playback_;

  std::vector<double> history_kbps_;
  std::vector<double> predictions_;  ///< the open chunk's forecasts
  DecisionTelemetry telemetry_;      ///< the open chunk's decision
  std::size_t prev_level_ = 0;
  bool has_prev_ = false;
  std::size_t chunks_done_ = 0;
  SessionResult result_;
};

/// The reference player: downloads chunks sequentially, makes one bitrate
/// decision per chunk boundary, and evolves the buffer exactly per
/// Eqs. (1)-(4) of the paper. Chunk transfers and the passage of time are
/// delegated to a ChunkSource, so the same player drives both the
/// virtual-time simulator and the real-network emulation.
class PlayerSession {
 public:
  /// All referents must outlive the session object.
  PlayerSession(const media::VideoManifest& manifest, const qoe::QoeModel& qoe,
                SessionConfig config);

  /// Streams the whole video once. The controller is reset() first.
  SessionResult run(ChunkSource& source, BitrateController& controller,
                    predict::ThroughputPredictor& predictor) const;

 private:
  const media::VideoManifest* manifest_;
  const qoe::QoeModel* qoe_;
  SessionConfig config_;
};

/// Convenience wrapper: simulate `controller` on `trace` (virtual time).
SessionResult simulate(const trace::ThroughputTrace& trace,
                       const media::VideoManifest& manifest,
                       const qoe::QoeModel& qoe, const SessionConfig& config,
                       BitrateController& controller,
                       predict::ThroughputPredictor& predictor);

}  // namespace abr::sim
