#include "sim/player.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/trace_event.hpp"

namespace abr::sim {
namespace {

/// The decide-latency histogram labelled with `controller`. Each thread
/// remembers the few controller names it has seen, so the label string and
/// the registry lookup are paid once per name, not once per session.
obs::Histogram& decide_histogram(const std::string& controller) {
  thread_local std::vector<std::pair<std::string, obs::Histogram*>> seen;
  for (const auto& [name, histogram] : seen) {
    if (name == controller) return *histogram;
  }
  obs::Histogram& histogram = obs::MetricsRegistry::global().histogram(
      obs::kDecideLatencyUs, "controller=\"" + controller + "\"");
  seen.emplace_back(controller, &histogram);
  return histogram;
}

}  // namespace

PlayerSession::PlayerSession(const media::VideoManifest& manifest,
                             const qoe::QoeModel& qoe, SessionConfig config)
    : manifest_(&manifest), qoe_(&qoe), config_(config) {
  if (config_.buffer_capacity_s <= 0.0) {
    throw std::invalid_argument("SessionConfig: non-positive buffer capacity");
  }
  if (config_.startup_policy == StartupPolicy::kFixedDelay &&
      config_.fixed_startup_delay_s < 0.0) {
    throw std::invalid_argument("SessionConfig: negative fixed startup delay");
  }
  if (config_.startup_policy == StartupPolicy::kBufferThreshold &&
      config_.startup_buffer_threshold_s > config_.buffer_capacity_s) {
    throw std::invalid_argument(
        "SessionConfig: startup threshold above buffer capacity");
  }
}

SessionResult PlayerSession::run(ChunkSource& source,
                                 BitrateController& controller,
                                 predict::ThroughputPredictor& predictor) const {
  controller.reset();

  const media::VideoManifest& manifest = *manifest_;
  const double chunk_duration = manifest.chunk_duration_s();
  const double buffer_capacity = config_.buffer_capacity_s;
  const std::size_t chunk_count = manifest.chunk_count();

  SessionResult result;
  result.chunks.reserve(chunk_count);

  // Observability: metrics go to the global registry (a no-op unless it has
  // been enabled); the timeline goes to the optional per-session TraceWriter.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::TraceWriter* tracer =
      config_.trace_writer != nullptr && config_.trace_writer->enabled()
          ? config_.trace_writer
          : nullptr;
  const int track = config_.trace_track;
  const std::string buffer_counter_name =
      tracer == nullptr ? std::string()
      : track == 0      ? std::string("buffer_s")
                        : "buffer_s p" + std::to_string(track);
  // Registry references are stable for the process, so each instrument is
  // looked up once, not by a mutex-guarded lookup in every session.
  static obs::Counter& chunks_total =
      registry.counter(obs::kChunksDownloadedTotal);
  static obs::Counter& rebuffer_total =
      registry.counter(obs::kRebufferSecondsTotal);
  static obs::Counter& wait_total = registry.counter(obs::kWaitSecondsTotal);
  static obs::Counter& degraded_total =
      registry.counter(obs::kChunksDegradedTotal);
  static obs::Counter& skipped_total =
      registry.counter(obs::kChunksSkippedTotal);
  static obs::Counter& aborted_total =
      registry.counter(obs::kChunksAbortedTotal);
  static obs::Counter& partial_total =
      registry.counter(obs::kChunksPartialTotal);
  static obs::Counter& wasted_total =
      registry.counter(obs::kWastedKilobitsTotal);
  static obs::Counter& resumes_total =
      registry.counter(obs::kRangeResumesTotal);
  static obs::Counter& sessions_total = registry.counter(obs::kSessionsTotal);
  static obs::Gauge& buffer_gauge = registry.gauge(obs::kBufferLevelSeconds);
  static obs::Histogram& download_hist =
      registry.histogram(obs::kChunkDownloadSeconds, "",
                         obs::exponential_buckets(0.01, 2.0, 16));
  const std::string algorithm_name = controller.name();
  obs::Histogram& decide_hist = decide_histogram(algorithm_name);
  // Skip the clock reads entirely when nobody is listening.
  const bool time_decisions = registry.enabled() || tracer != nullptr;
  bool playback_start_emitted = false;

  qoe::QoeModel::Accumulator qoe_acc(*qoe_);

  // Journal attribution state: mirrors the Accumulator's smoothness memory
  // so per-chunk charges sum exactly to the session totals.
  obs::Journal* journal = config_.journal;
  const qoe::QoeWeights& weights = qoe_->weights();
  double journal_prev_quality = 0.0;
  bool journal_has_prev = false;
  double journal_qoe_cum = 0.0;

  std::vector<double> history_kbps;
  history_kbps.reserve(chunk_count);

  double buffer_s = 0.0;
  bool playing = false;
  double startup_delay = 0.0;
  std::size_t prev_level = 0;
  bool has_prev = false;

  // Drains `drain_s` of playback from the buffer and returns the stall time
  // incurred (the part not covered by buffered video).
  const auto drain = [&buffer_s](double drain_s) {
    assert(drain_s >= 0.0);
    const double stall = std::max(0.0, drain_s - buffer_s);
    buffer_s = std::max(0.0, buffer_s - drain_s);
    return stall;
  };

  for (std::size_t k = 0; k < chunk_count; ++k) {
    const double now = source.now();

    // Fixed-delay startup: playback may begin while the player idles or
    // between downloads.
    if (!playing && config_.startup_policy == StartupPolicy::kFixedDelay &&
        now >= config_.fixed_startup_delay_s) {
      playing = true;
      startup_delay = config_.fixed_startup_delay_s;
      // Time already elapsed past Ts was play time.
      drain(now - config_.fixed_startup_delay_s);
    }

    // 1. Predict.
    predict::PredictionInput input;
    input.history_kbps = history_kbps;
    input.now_s = now;
    input.chunk_duration_s = chunk_duration;
    input.truth = source.truth();
    const std::size_t horizon =
        std::min(controller.prediction_horizon(), chunk_count - k);
    const std::vector<double> predictions =
        predictor.predict(input, std::max<std::size_t>(horizon, 1));

    // 2. Decide.
    AbrState state;
    state.chunk_index = k;
    state.buffer_s = buffer_s;
    state.prev_level = prev_level;
    state.has_prev = has_prev;
    state.throughput_history_kbps = history_kbps;
    state.prediction_kbps = predictions;
    state.now_s = now;
    state.playback_started = playing;
    // Runs controller.decide() with timing/trace instrumentation; shared by
    // the per-chunk decision and any mid-chunk re-decides.
    const auto timed_decide = [&](const AbrState& st) {
      std::size_t lvl = 0;
      if (time_decisions) {
        const auto t0 = std::chrono::steady_clock::now();
        lvl = controller.decide(st, manifest);
        const double decide_us = std::chrono::duration<double, std::micro>(
                                     std::chrono::steady_clock::now() - t0)
                                     .count();
        decide_hist.observe(decide_us);
        if (tracer != nullptr) {
          tracer->complete("decide", "controller", st.now_s, decide_us * 1e-6,
                           track, {{"chunk", k}, {"level", lvl}});
        }
      } else {
        lvl = controller.decide(st, manifest);
      }
      if (lvl >= manifest.level_count()) {
        throw std::logic_error("controller '" + algorithm_name +
                               "' returned an out-of-range ladder index");
      }
      return lvl;
    };
    std::size_t level = timed_decide(state);
    // Snapshot decision telemetry now — the pointee is invalidated by the
    // next decide()/reset().
    DecisionTelemetry decision_telemetry;
    if (const DecisionTelemetry* t = controller.last_decision()) {
      decision_telemetry = *t;
    }

    // 3. Download.
    ChunkRecord record;
    record.index = k;
    record.level = level;
    record.bitrate_kbps = manifest.bitrate_kbps(level);
    record.size_kilobits = manifest.chunk_kilobits(k, level);
    record.start_s = now;
    record.buffer_before_s = buffer_s;
    record.predicted_kbps = predictions.empty() ? 0.0 : predictions.front();

    const bool abort_active =
        config_.abort_policy.enabled && source.supports_range();
    FetchOutcome outcome;
    bool degraded = false;
    bool partial = false;
    double played_fraction = 1.0;
    if (!abort_active) {
      outcome = source.fetch(k, level);
      if (outcome.failed && config_.degrade_on_failure && level != 0) {
        // Graceful degradation: the chosen level failed every attempt, so
        // fall back to the lowest rung before giving up on the chunk.
        degraded = true;
        level = 0;
        record.level = 0;
        record.bitrate_kbps = manifest.bitrate_kbps(0);
        record.size_kilobits = manifest.chunk_kilobits(k, 0);
        FetchOutcome fallback = source.fetch(k, 0);
        fallback.duration_s += outcome.duration_s;
        fallback.attempts += outcome.attempts;
        fallback.faults += outcome.faults;
        outcome = fallback;
      }
    } else {
      // Sub-chunk delivery: the transfer runs under the deadline monitor.
      // On abort the controller re-decides at a strictly lower rung and the
      // next transfer range-resumes from the delivered prefix (prefixes are
      // assumed aligned across the ladder, so the credit is re-expressed as
      // the same fraction of the new rung's size — DESIGN §12). A failure
      // at the last rung with a delivered prefix becomes a partial chunk:
      // the prefix plays, only the missing suffix is charged as a stall.
      const double buffer_at_start = buffer_s;
      std::size_t cur_level = level;
      double fraction_done = 0.0;   // delivered fraction of the chunk
      double elapsed = 0.0;
      double transferred_kb = 0.0;  // every bit that flowed, waste included
      outcome.attempts = 0;
      for (;;) {
        const double size_kb = manifest.chunk_kilobits(k, cur_level);
        FetchControl control;
        control.resume_from_kilobits = fraction_done * size_kb;
        control.abort_enabled = playing && cur_level > 0;
        control.buffer_s = std::max(0.0, buffer_at_start - elapsed);
        control.max_stall_s = config_.abort_policy.max_stall_s;
        control.min_observation_s = config_.abort_policy.min_observation_s;
        control.check_interval_s = config_.abort_policy.check_interval_s;
        if (control.resume_from_kilobits > 0.0) {
          record.resumed_from_byte = static_cast<std::size_t>(
              std::llround(control.resume_from_kilobits * 125.0));
        }
        const FetchOutcome att = source.fetch_controlled(k, cur_level, control);
        elapsed += att.duration_s;
        transferred_kb += att.kilobits;
        outcome.attempts += att.attempts;
        outcome.faults += att.faults;
        outcome.origin = att.origin;
        record.resumes += att.resumes;
        fraction_done = size_kb > 0.0
                            ? std::min(att.delivered_kilobits / size_kb, 1.0)
                            : 1.0;
        if (att.aborted) {
          record.aborted = true;
          // Re-decide with the post-abort buffer; mid-chunk the throughput
          // history is unchanged, so the forecast vector is reused.
          AbrState restate = state;
          restate.buffer_s = std::max(0.0, buffer_at_start - elapsed);
          restate.now_s = source.now();
          const std::size_t decided = timed_decide(restate);
          const std::size_t next_level = std::min(decided, cur_level - 1);
          record.wasted_kilobits +=
              att.delivered_kilobits -
              fraction_done * manifest.chunk_kilobits(k, next_level);
          cur_level = next_level;
          continue;
        }
        if (att.failed) {
          if (config_.degrade_on_failure && cur_level != 0) {
            degraded = true;
            record.wasted_kilobits +=
                att.delivered_kilobits -
                fraction_done * manifest.chunk_kilobits(k, 0);
            cur_level = 0;
            continue;
          }
          outcome.failed = true;
          break;
        }
        break;  // delivered in full
      }
      outcome.duration_s = std::max(elapsed, 1e-9);
      outcome.kilobits = transferred_kb;
      level = cur_level;
      record.level = cur_level;
      record.bitrate_kbps = manifest.bitrate_kbps(cur_level);
      record.size_kilobits =
          fraction_done * manifest.chunk_kilobits(k, cur_level);
      if (outcome.failed && fraction_done > 0.0) {
        // Third degradation rung: play the delivered prefix.
        partial = true;
        played_fraction = fraction_done;
        outcome.failed = false;
      }
      if (record.aborted || partial) {
        // The re-decide (or the truncation) may have changed the solver
        // telemetry; snapshot the final state for the journal.
        if (const DecisionTelemetry* t = controller.last_decision()) {
          decision_telemetry = *t;
        }
      }
    }
    const bool skipped = outcome.failed;
    if (skipped) {
      record.bitrate_kbps = 0.0;
      record.size_kilobits = 0.0;
    }
    record.attempts = outcome.attempts;
    record.origin = outcome.origin;
    record.faults = outcome.faults;
    record.degraded = degraded;
    record.skipped = skipped;
    record.partial = partial;
    assert(outcome.duration_s > 0.0);
    record.download_s = outcome.duration_s;
    record.throughput_kbps =
        skipped ? 0.0 : outcome.kilobits / outcome.duration_s;

    // 4. Buffer dynamics during the download (Eq. (3)).
    double rebuffer_s = 0.0;
    if (playing) {
      rebuffer_s = drain(outcome.duration_s);
    } else if (config_.startup_policy == StartupPolicy::kFixedDelay &&
               source.now() > config_.fixed_startup_delay_s) {
      // Playback started mid-download.
      playing = true;
      startup_delay = config_.fixed_startup_delay_s;
      rebuffer_s = drain(source.now() - config_.fixed_startup_delay_s);
    }
    if (skipped) {
      // The chunk never arrived: the viewer loses its whole duration, which
      // Eq. (5) charges as a stall (skip-with-rebuffer accounting).
      rebuffer_s += chunk_duration;
    } else if (partial) {
      // Partial chunk: the delivered prefix plays; the missing suffix is a
      // stall Eq. (5) pays for.
      buffer_s += played_fraction * chunk_duration;
      rebuffer_s += (1.0 - played_fraction) * chunk_duration;
    } else {
      buffer_s += chunk_duration;
    }

    // 5. Startup transitions that trigger on chunk completion. A skipped
    // chunk delivers nothing, so it cannot start playback.
    if (!playing && !skipped) {
      switch (config_.startup_policy) {
        case StartupPolicy::kFirstChunk:
          playing = true;
          startup_delay = source.now();
          break;
        case StartupPolicy::kBufferThreshold:
          if (buffer_s >= config_.startup_buffer_threshold_s) {
            playing = true;
            startup_delay = source.now();
          }
          break;
        case StartupPolicy::kFixedDelay:
          break;  // handled by the clock checks above
      }
    }

    // 6. Buffer-full wait (Eq. (4)): drain the excess before the next
    // request. If playback has not begun (large fixed delay), idle until it
    // does, then drain.
    const double wait_start_s = source.now();
    double wait_s = 0.0;
    if (buffer_s > buffer_capacity) {
      if (!playing) {
        assert(config_.startup_policy == StartupPolicy::kFixedDelay);
        const double idle =
            std::max(0.0, config_.fixed_startup_delay_s - source.now());
        source.wait(idle);
        wait_s += idle;
        playing = true;
        startup_delay = config_.fixed_startup_delay_s;
      }
      const double excess = buffer_s - buffer_capacity;
      source.wait(excess);
      wait_s += excess;
      buffer_s = buffer_capacity;
    }

    record.rebuffer_s = rebuffer_s;
    record.wait_s = wait_s;
    record.buffer_after_s = buffer_s;
    result.chunks.push_back(record);

    chunks_total.increment();
    rebuffer_total.increment(rebuffer_s);
    wait_total.increment(wait_s);
    if (degraded) degraded_total.increment();
    if (skipped) skipped_total.increment();
    if (record.aborted) aborted_total.increment();
    if (partial) partial_total.increment();
    if (record.wasted_kilobits > 0.0)
      wasted_total.increment(record.wasted_kilobits);
    if (record.resumes > 0)
      resumes_total.increment(static_cast<double>(record.resumes));
    download_hist.observe(record.download_s);
    buffer_gauge.set(buffer_s);
    if (tracer != nullptr) {
      const double download_end_s = record.start_s + record.download_s;
      tracer->complete("download", "net", record.start_s, record.download_s,
                       track,
                       {{"chunk", k},
                        {"level", level},
                        {"bitrate_kbps", record.bitrate_kbps},
                        {"throughput_kbps", record.throughput_kbps}});
      if (rebuffer_s > 0.0) {
        // The stall occupies the tail of the download: the buffer ran dry
        // rebuffer_s before the chunk arrived.
        tracer->complete("rebuffer", "playback", download_end_s - rebuffer_s,
                         rebuffer_s, track, {{"chunk", k}});
      }
      if (wait_s > 0.0) {
        tracer->complete("wait", "playback", wait_start_s, wait_s, track,
                         {{"chunk", k}});
      }
      if (degraded) {
        tracer->instant("degraded", "net", record.start_s, track);
      }
      if (skipped) {
        tracer->instant("chunk_skipped", "net", record.start_s, track);
      }
      if (record.aborted) {
        tracer->instant("chunk_aborted", "net", record.start_s, track);
      }
      if (partial) {
        tracer->instant("chunk_partial", "net", record.start_s, track);
      }
      if (playing && !playback_start_emitted) {
        tracer->instant("playback_start", "playback", startup_delay, track);
        playback_start_emitted = true;
      }
      tracer->counter(buffer_counter_name, record.start_s,
                      record.buffer_before_s);
      tracer->counter(buffer_counter_name, source.now(), buffer_s);
    }

    qoe_acc.add_chunk(record.bitrate_kbps, rebuffer_s);
    if (journal != nullptr) {
      // Per-chunk Eq. (5) attribution with the exact Accumulator semantics:
      // skipped chunks contribute q(0), transitions through 0 count as
      // switches, and every stalled chunk pays the per-event charge.
      const double q = qoe_->quality(record.bitrate_kbps);
      const double switch_penalty =
          journal_has_prev ? weights.lambda * std::abs(q - journal_prev_quality)
                           : 0.0;
      const double rebuffer_charge =
          weights.mu * rebuffer_s + (rebuffer_s > 0.0 ? weights.mu_event : 0.0);
      const double qoe_chunk = q - switch_penalty - rebuffer_charge;
      journal_prev_quality = q;
      journal_has_prev = true;
      journal_qoe_cum += qoe_chunk;

      obs::ChunkJournalEntry entry;
      entry.session = config_.session_label;
      entry.algorithm = algorithm_name;
      entry.chunk = k;
      entry.level = level;
      entry.t_s = record.start_s;
      entry.bitrate_kbps = record.bitrate_kbps;
      entry.download_s = record.download_s;
      entry.throughput_kbps = record.throughput_kbps;
      entry.buffer_before_s = record.buffer_before_s;
      entry.buffer_after_s = record.buffer_after_s;
      entry.rebuffer_s = rebuffer_s;
      entry.wait_s = wait_s;
      entry.qoe_utility = q;
      entry.qoe_switch_penalty = switch_penalty;
      entry.qoe_rebuffer_charge = rebuffer_charge;
      entry.qoe_chunk = qoe_chunk;
      entry.qoe_cumulative = journal_qoe_cum;
      entry.predicted_kbps = record.predicted_kbps;
      entry.effective_kbps = decision_telemetry.effective_forecast_kbps;
      entry.error_window = decision_telemetry.error_window;
      entry.nodes_expanded = decision_telemetry.nodes_expanded;
      entry.warm_start = decision_telemetry.warm_start;
      entry.solver_path = decision_telemetry.path;
      entry.origin = record.origin;
      entry.attempts = record.attempts;
      entry.faults = record.faults;
      entry.degraded = degraded;
      entry.skipped = skipped;
      entry.aborted = record.aborted;
      entry.partial = partial;
      entry.wasted_kb = record.wasted_kilobits;
      entry.resumed_from_byte = record.resumed_from_byte;
      journal->chunk(entry);
    }
    if (!skipped) {
      // A skipped chunk yields no throughput sample and no played level:
      // predictors and controllers keep seeing the last real transfer.
      history_kbps.push_back(record.throughput_kbps);
      prev_level = level;
      has_prev = true;
    }
  }

  // A fixed startup delay later than the whole download still counts.
  if (!playing && config_.startup_policy == StartupPolicy::kFixedDelay) {
    startup_delay = config_.fixed_startup_delay_s;
  }

  sessions_total.increment();
  result.startup_delay_s = startup_delay;
  result.session_duration_s = source.now();
  if (config_.include_startup_in_qoe) {
    qoe_acc.set_startup_delay(startup_delay);
  }
  result.total_rebuffer_s = qoe_acc.total_rebuffer_s();
  result.qoe = qoe_acc.total();

  // Aggregates.
  double bitrate_sum = 0.0;
  double change_sum = 0.0;
  double wait_sum = 0.0;
  std::size_t stalled_chunks = 0;
  for (std::size_t k = 0; k < result.chunks.size(); ++k) {
    const ChunkRecord& r = result.chunks[k];
    bitrate_sum += r.bitrate_kbps;
    wait_sum += r.wait_s;
    if (r.rebuffer_s > 0.0) ++stalled_chunks;
    if (r.degraded) ++result.degraded_chunks;
    if (r.skipped) ++result.skipped_chunks;
    if (r.aborted) ++result.aborted_chunks;
    if (r.partial) ++result.partial_chunks;
    result.resume_count += r.resumes;
    result.wasted_kilobits += r.wasted_kilobits;
    result.total_attempts += r.attempts;
    if (k > 0) {
      const double delta =
          std::abs(r.bitrate_kbps - result.chunks[k - 1].bitrate_kbps);
      change_sum += delta;
      if (delta > 0.0) ++result.switch_count;
    }
  }
  const auto n = static_cast<double>(result.chunks.size());
  result.average_bitrate_kbps = n > 0 ? bitrate_sum / n : 0.0;
  result.average_bitrate_change_kbps =
      result.chunks.size() > 1 ? change_sum / (n - 1.0) : 0.0;
  result.total_wait_s = wait_sum;
  result.rebuffer_chunk_fraction =
      n > 0 ? static_cast<double>(stalled_chunks) / n : 0.0;

  if (journal != nullptr) {
    obs::SessionJournalEntry entry;
    entry.session = config_.session_label;
    entry.algorithm = algorithm_name;
    entry.chunks = result.chunks.size();
    entry.duration_s = result.session_duration_s;
    entry.startup_delay_s = result.startup_delay_s;
    entry.qoe = result.qoe;
    entry.qoe_utility = qoe_acc.total_quality();
    entry.qoe_switch_penalty =
        weights.lambda * qoe_acc.total_smoothness_penalty();
    entry.qoe_rebuffer_charge =
        weights.mu * qoe_acc.total_rebuffer_s() +
        weights.mu_event * static_cast<double>(qoe_acc.rebuffer_events());
    entry.qoe_startup_charge = config_.include_startup_in_qoe
                                   ? weights.mu_startup * startup_delay
                                   : 0.0;
    entry.average_bitrate_kbps = result.average_bitrate_kbps;
    entry.rebuffer_s = result.total_rebuffer_s;
    entry.switches = result.switch_count;
    entry.degraded_chunks = result.degraded_chunks;
    entry.skipped_chunks = result.skipped_chunks;
    entry.attempts = result.total_attempts;
    for (const ChunkRecord& r : result.chunks) entry.faults += r.faults;
    entry.aborted_chunks = result.aborted_chunks;
    entry.partial_chunks = result.partial_chunks;
    entry.resumes = result.resume_count;
    entry.wasted_kb = result.wasted_kilobits;
    journal->session(entry);
  }
  return result;
}

SessionResult simulate(const trace::ThroughputTrace& trace,
                       const media::VideoManifest& manifest,
                       const qoe::QoeModel& qoe, const SessionConfig& config,
                       BitrateController& controller,
                       predict::ThroughputPredictor& predictor) {
  TraceChunkSource source(trace, manifest);
  PlayerSession session(manifest, qoe, config);
  return session.run(source, controller, predictor);
}

}  // namespace abr::sim
