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
#include "sim/fleet_series.hpp"

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

/// The session instruments. Registry references are stable for the process,
/// so each is looked up once, not by a mutex-guarded lookup in every session.
struct SessionInstruments {
  obs::Counter& chunks;
  obs::Counter& rebuffer_s;
  obs::Counter& wait_s;
  obs::Counter& degraded;
  obs::Counter& skipped;
  obs::Counter& aborted;
  obs::Counter& partial;
  obs::Counter& wasted_kb;
  obs::Counter& resumes;
  obs::Counter& sessions;
  obs::Gauge& buffer_s;
  obs::Histogram& download_s;
};

SessionInstruments& instruments() {
  static SessionInstruments instruments = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    return SessionInstruments{
        registry.counter(obs::kChunksDownloadedTotal),
        registry.counter(obs::kRebufferSecondsTotal),
        registry.counter(obs::kWaitSecondsTotal),
        registry.counter(obs::kChunksDegradedTotal),
        registry.counter(obs::kChunksSkippedTotal),
        registry.counter(obs::kChunksAbortedTotal),
        registry.counter(obs::kChunksPartialTotal),
        registry.counter(obs::kWastedKilobitsTotal),
        registry.counter(obs::kRangeResumesTotal),
        registry.counter(obs::kSessionsTotal),
        registry.gauge(obs::kBufferLevelSeconds),
        registry.histogram(obs::kChunkDownloadSeconds, "",
                           obs::exponential_buckets(0.01, 2.0, 16))};
  }();
  return instruments;
}

/// Fetches the open chunk; a level that fails every attempt falls back to
/// the lowest rung before the chunk is given up (graceful degradation).
FetchOutcome fetch_or_degrade(ChunkSource& source, PlayerKernel& kernel,
                              const media::VideoManifest& manifest,
                              const SessionConfig& config) {
  ChunkRecord& record = kernel.open_record();
  const std::size_t k = record.index;
  FetchOutcome outcome = source.fetch(k, record.level);
  if (outcome.failed && config.degrade_on_failure && record.level != 0) {
    record.degraded = true;
    record.level = 0;
    record.bitrate_kbps = manifest.bitrate_kbps(0);
    record.size_kilobits = manifest.chunk_kilobits(k, 0);
    FetchOutcome fallback = source.fetch(k, 0);
    fallback.duration_s += outcome.duration_s;
    fallback.attempts += outcome.attempts;
    fallback.faults += outcome.faults;
    outcome = fallback;
  }
  return outcome;
}

/// Sub-chunk delivery: the transfer runs under the deadline monitor. On
/// abort the controller re-decides at a strictly lower rung and the next
/// transfer range-resumes from the delivered prefix (prefixes are assumed
/// aligned across the ladder, so the credit is re-expressed as the same
/// fraction of the new rung's size — DESIGN §12). A failure at the last
/// rung with a delivered prefix becomes a partial chunk: the prefix plays,
/// and `played_fraction` says how much.
FetchOutcome fetch_under_monitor(ChunkSource& source, PlayerKernel& kernel,
                                 const media::VideoManifest& manifest,
                                 const SessionConfig& config,
                                 double& played_fraction) {
  ChunkRecord& record = kernel.open_record();
  const std::size_t k = record.index;
  const double buffer_at_start = record.buffer_before_s;
  std::size_t cur_level = record.level;
  double fraction_done = 0.0;   // delivered fraction of the chunk
  double elapsed = 0.0;
  double transferred_kb = 0.0;  // every bit that flowed, waste included
  FetchOutcome outcome;
  outcome.attempts = 0;
  for (;;) {
    const double size_kb = manifest.chunk_kilobits(k, cur_level);
    FetchControl control;
    control.resume_from_kilobits = fraction_done * size_kb;
    control.abort_enabled = kernel.playing() && cur_level > 0;
    control.buffer_s = std::max(0.0, buffer_at_start - elapsed);
    control.max_stall_s = config.abort_policy.max_stall_s;
    control.min_observation_s = config.abort_policy.min_observation_s;
    control.check_interval_s = config.abort_policy.check_interval_s;
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
      // history is unchanged, so the forecasts are reused.
      const std::size_t decided = kernel.decide(
          source.now(), std::max(0.0, buffer_at_start - elapsed));
      const std::size_t next_level = std::min(decided, cur_level - 1);
      record.wasted_kilobits +=
          att.delivered_kilobits -
          fraction_done * manifest.chunk_kilobits(k, next_level);
      cur_level = next_level;
      continue;
    }
    if (att.failed) {
      if (config.degrade_on_failure && cur_level != 0) {
        record.degraded = true;
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
  record.level = cur_level;
  record.bitrate_kbps = manifest.bitrate_kbps(cur_level);
  record.size_kilobits = fraction_done * manifest.chunk_kilobits(k, cur_level);
  if (outcome.failed && fraction_done > 0.0) {
    // Third degradation rung: play the delivered prefix.
    record.partial = true;
    played_fraction = fraction_done;
    outcome.failed = false;
  }
  return outcome;
}

}  // namespace

Playback::Playback(const SessionConfig& config) : config_(&config) {
  if (config.buffer_capacity_s <= 0.0) {
    throw std::invalid_argument("SessionConfig: non-positive buffer capacity");
  }
  if (config.startup_policy == StartupPolicy::kFixedDelay &&
      config.fixed_startup_delay_s < 0.0) {
    throw std::invalid_argument("SessionConfig: negative fixed startup delay");
  }
  if (config.startup_policy == StartupPolicy::kBufferThreshold &&
      config.startup_buffer_threshold_s > config.buffer_capacity_s) {
    throw std::invalid_argument(
        "SessionConfig: startup threshold above buffer capacity");
  }
}

PlayerKernel::PlayerKernel(const media::VideoManifest& manifest,
                           const qoe::QoeModel& qoe,
                           const SessionConfig& config,
                           BitrateController& controller,
                           predict::ThroughputPredictor& predictor)
    : manifest_(&manifest),
      qoe_(&qoe),
      config_(&config),
      controller_(&controller),
      predictor_(&predictor),
      tracer_(config.trace_writer != nullptr && config.trace_writer->enabled()
                  ? config.trace_writer
                  : nullptr),
      decide_hist_(&decide_histogram(controller.name())),
      label_(config.session_label),
      track_(config.trace_track),
      // Skip the clock reads entirely when nobody is listening.
      time_decisions_(obs::MetricsRegistry::global().enabled() ||
                      tracer_ != nullptr),
      qoe_acc_(qoe),
      playback_(config) {
  controller.reset();
  history_kbps_.reserve(manifest.chunk_count());
  result_.chunks.reserve(manifest.chunk_count());
}

void PlayerKernel::seat_in_fleet(std::size_t index, double join_s,
                                 FleetSeries* series) {
  label_ = "p" + std::to_string(index);
  track_ = static_cast<int>(index);
  trace_offset_s_ = join_s;
  series_ = series;
}

std::size_t PlayerKernel::decide(double now_s, double buffer_s) {
  const std::size_t k = chunks_done_;
  AbrState state;
  state.chunk_index = k;
  state.buffer_s = buffer_s;
  state.prev_level = prev_level_;
  state.has_prev = has_prev_;
  state.throughput_history_kbps = history_kbps_;
  state.prediction_kbps = predictions_;
  state.now_s = now_s;
  state.playback_started = playback_.playing();
  std::size_t level = 0;
  if (time_decisions_) {
    const auto t0 = std::chrono::steady_clock::now();
    level = controller_->decide(state, *manifest_);
    const double decide_us = std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
    decide_hist_->observe(decide_us);
    if (tracer_ != nullptr) {
      tracer_->complete("decide", "controller", now_s + trace_offset_s_,
                        decide_us * 1e-6, track_,
                        {{"chunk", k}, {"level", level}});
    }
  } else {
    level = controller_->decide(state, *manifest_);
  }
  if (level >= manifest_->level_count()) {
    throw std::logic_error("controller '" + controller_->name() +
                           "' returned an out-of-range ladder index");
  }
  return level;
}

std::size_t PlayerKernel::begin(double now_s,
                                const trace::ThroughputTrace* truth) {
  const media::VideoManifest& manifest = *manifest_;
  const std::size_t k = chunks_done_;
  assert(k < manifest.chunk_count());

  // Fixed-delay startup: playback may begin while the player idles between
  // downloads. A stall that start causes is charged to this chunk.
  const double idle_stall = playback_.start_if_due(now_s);

  // 1. Predict.
  predict::PredictionInput input;
  input.history_kbps = history_kbps_;
  input.now_s = now_s;
  input.chunk_duration_s = manifest.chunk_duration_s();
  input.truth = truth;
  const std::size_t horizon =
      std::min(controller_->prediction_horizon(), manifest.chunk_count() - k);
  predictions_ = predictor_->predict(input, std::max<std::size_t>(horizon, 1));

  // 2. Decide. Snapshot the decision telemetry now — the pointee is
  // invalidated by the next decide()/reset().
  const std::size_t level = decide(now_s, playback_.buffer_s());
  telemetry_ = DecisionTelemetry{};
  if (const DecisionTelemetry* t = controller_->last_decision()) {
    telemetry_ = *t;
  }

  // 3. Open the record; delivery fills in the rest.
  ChunkRecord& record = result_.chunks.emplace_back();
  record.index = k;
  record.level = level;
  record.bitrate_kbps = manifest.bitrate_kbps(level);
  record.size_kilobits = manifest.chunk_kilobits(k, level);
  record.start_s = now_s;
  record.buffer_before_s = playback_.buffer_s();
  record.rebuffer_s = idle_stall;
  record.predicted_kbps = predictions_.empty() ? 0.0 : predictions_.front();
  return level;
}

ChunkWait PlayerKernel::complete(const FetchOutcome& outcome, double end_s,
                                 double played_fraction) {
  const SessionConfig& config = *config_;
  ChunkRecord& record = result_.chunks.back();
  const std::size_t k = record.index;
  predictions_ = {};  // served only this chunk's decisions
  if (record.aborted || record.partial) {
    // The re-decide (or the truncation) may have changed the solver
    // telemetry; snapshot the final state for the journal.
    if (const DecisionTelemetry* t = controller_->last_decision()) {
      telemetry_ = *t;
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
  record.skipped = skipped;
  assert(outcome.duration_s > 0.0);
  record.download_s = outcome.duration_s;
  record.throughput_kbps =
      skipped ? 0.0 : outcome.kilobits / outcome.duration_s;

  // 4. Eq. (3) and the startup on completion. A skipped chunk's whole
  // duration is a stall (skip-with-rebuffer), a partial one's missing suffix.
  const double rebuffer_s =
      record.rebuffer_s +
      playback_.download(outcome.duration_s, end_s,
                         manifest_->chunk_duration_s(),
                         skipped ? 0.0 : played_fraction);

  // 5. Buffer-full wait (Eq. (4)).
  const ChunkWait wait = playback_.wait(end_s);
  const double wait_s = wait.idle_s + wait.drain_s;

  record.rebuffer_s = rebuffer_s;
  record.wait_s = wait_s;
  record.buffer_after_s = playback_.buffer_s();
  ++chunks_done_;

  SessionInstruments& metrics = instruments();
  metrics.chunks.increment();
  metrics.rebuffer_s.increment(rebuffer_s);
  metrics.wait_s.increment(wait_s);
  if (record.degraded) metrics.degraded.increment();
  if (skipped) metrics.skipped.increment();
  if (record.aborted) metrics.aborted.increment();
  if (record.partial) metrics.partial.increment();
  if (record.wasted_kilobits > 0.0) {
    metrics.wasted_kb.increment(record.wasted_kilobits);
  }
  if (record.resumes > 0) {
    metrics.resumes.increment(static_cast<double>(record.resumes));
  }
  metrics.download_s.observe(record.download_s);
  metrics.buffer_s.set(record.buffer_after_s);
  if (tracer_ != nullptr) {
    const double start_s = record.start_s + trace_offset_s_;
    const double download_end_s = start_s + record.download_s;
    tracer_->complete("download", "net", start_s, record.download_s, track_,
                      {{"chunk", k},
                       {"level", record.level},
                       {"bitrate_kbps", record.bitrate_kbps},
                       {"throughput_kbps", record.throughput_kbps}});
    if (rebuffer_s > 0.0) {
      // The stall occupies the tail of the download: the buffer ran dry
      // rebuffer_s before the chunk arrived.
      tracer_->complete("rebuffer", "playback", download_end_s - rebuffer_s,
                        rebuffer_s, track_, {{"chunk", k}});
    }
    if (wait_s > 0.0) {
      tracer_->complete("wait", "playback", end_s + trace_offset_s_, wait_s,
                        track_, {{"chunk", k}});
    }
    if (record.degraded) {
      tracer_->instant("degraded", "net", start_s, track_);
    }
    if (skipped) tracer_->instant("chunk_skipped", "net", start_s, track_);
    if (record.aborted) {
      tracer_->instant("chunk_aborted", "net", start_s, track_);
    }
    if (record.partial) {
      tracer_->instant("chunk_partial", "net", start_s, track_);
    }
    if (playback_.playing() && !playback_start_emitted_) {
      tracer_->instant("playback_start", "playback",
                       playback_.startup_delay_s() + trace_offset_s_, track_);
      playback_start_emitted_ = true;
    }
    const std::string counter =
        track_ == 0 ? std::string("buffer_s")
                    : "buffer_s p" + std::to_string(track_);
    tracer_->counter(counter, start_s, record.buffer_before_s);
    tracer_->counter(counter,
                     (end_s + wait.idle_s) + wait.drain_s + trace_offset_s_,
                     record.buffer_after_s);
  }

  const qoe::ChunkTerms terms =
      qoe_acc_.add_chunk(record.bitrate_kbps, rebuffer_s);
  obs::Journal* journal = config.journal;
  if (journal != nullptr || series_ != nullptr) {
    const double qoe_chunk = terms.qoe();
    if (series_ != nullptr) {
      series_->record_chunk(end_s + trace_offset_s_, record, qoe_chunk);
    }
    if (journal != nullptr) {
      obs::ChunkJournalEntry entry;
      entry.session = label_;
      entry.algorithm = controller_->name();
      entry.chunk = k;
      entry.level = record.level;
      entry.t_s = record.start_s;
      entry.bitrate_kbps = record.bitrate_kbps;
      entry.download_s = record.download_s;
      entry.throughput_kbps = record.throughput_kbps;
      entry.buffer_before_s = record.buffer_before_s;
      entry.buffer_after_s = record.buffer_after_s;
      entry.rebuffer_s = rebuffer_s;
      entry.wait_s = wait_s;
      entry.qoe_utility = terms.utility;
      entry.qoe_switch_penalty = terms.switch_penalty;
      entry.qoe_rebuffer_charge = terms.rebuffer_charge;
      entry.qoe_chunk = qoe_chunk;
      entry.qoe_cumulative = qoe_acc_.chunk_qoe_sum();
      entry.predicted_kbps = record.predicted_kbps;
      entry.effective_kbps = telemetry_.effective_forecast_kbps;
      entry.error_window = telemetry_.error_window;
      entry.nodes_expanded = telemetry_.nodes_expanded;
      entry.warm_start = telemetry_.warm_start;
      entry.solver_path = telemetry_.path;
      entry.origin = record.origin;
      entry.attempts = record.attempts;
      entry.faults = record.faults;
      entry.degraded = record.degraded;
      entry.skipped = skipped;
      entry.aborted = record.aborted;
      entry.partial = record.partial;
      entry.wasted_kb = record.wasted_kilobits;
      entry.resumed_from_byte = record.resumed_from_byte;
      journal->chunk(entry);
    }
  }
  if (!skipped) {
    // A skipped chunk yields no throughput sample and no played level:
    // predictors and controllers keep seeing the last real transfer.
    history_kbps_.push_back(record.throughput_kbps);
    prev_level_ = record.level;
    has_prev_ = true;
  }
  return wait;
}

SessionResult PlayerKernel::finish(double end_s) {
  const SessionConfig& config = *config_;
  playback_.finish();
  const double startup_delay_s = playback_.startup_delay_s();

  instruments().sessions.increment();
  SessionResult& result = result_;
  result.startup_delay_s = startup_delay_s;
  result.session_duration_s = end_s;
  if (config.include_startup_in_qoe) {
    qoe_acc_.set_startup_delay(startup_delay_s);
  }
  result.total_rebuffer_s = qoe_acc_.total_rebuffer_s();
  result.qoe = qoe_acc_.total();

  // Aggregates.
  double bitrate_sum = 0.0;
  double change_sum = 0.0;
  double wait_sum = 0.0;
  std::size_t stalled_chunks = 0;
  std::size_t faults = 0;
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
    faults += r.faults;
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

  if (config.journal != nullptr) {
    const qoe::QoeWeights& weights = qoe_->weights();
    obs::SessionJournalEntry entry;
    entry.session = label_;
    entry.algorithm = controller_->name();
    entry.chunks = result.chunks.size();
    entry.duration_s = result.session_duration_s;
    entry.startup_delay_s = result.startup_delay_s;
    entry.qoe = result.qoe;
    entry.qoe_utility = qoe_acc_.total_quality();
    entry.qoe_switch_penalty =
        weights.lambda * qoe_acc_.total_smoothness_penalty();
    entry.qoe_rebuffer_charge =
        weights.mu * qoe_acc_.total_rebuffer_s() +
        weights.mu_event * static_cast<double>(qoe_acc_.rebuffer_events());
    entry.qoe_startup_charge = config.include_startup_in_qoe
                                   ? weights.mu_startup * startup_delay_s
                                   : 0.0;
    entry.average_bitrate_kbps = result.average_bitrate_kbps;
    entry.rebuffer_s = result.total_rebuffer_s;
    entry.switches = result.switch_count;
    entry.degraded_chunks = result.degraded_chunks;
    entry.skipped_chunks = result.skipped_chunks;
    entry.attempts = result.total_attempts;
    entry.faults = faults;
    entry.aborted_chunks = result.aborted_chunks;
    entry.partial_chunks = result.partial_chunks;
    entry.resumes = result.resume_count;
    entry.wasted_kb = result.wasted_kilobits;
    config.journal->session(entry);
  }
  return std::move(result_);
}

PlayerSession::PlayerSession(const media::VideoManifest& manifest,
                             const qoe::QoeModel& qoe, SessionConfig config)
    : manifest_(&manifest), qoe_(&qoe), config_(config) {
  Playback{config_};  // rejects a config no player can run, before run()
}

SessionResult PlayerSession::run(ChunkSource& source,
                                 BitrateController& controller,
                                 predict::ThroughputPredictor& predictor) const {
  PlayerKernel kernel(*manifest_, *qoe_, config_, controller, predictor);
  const bool abort_active =
      config_.abort_policy.enabled && source.supports_range();
  while (!kernel.done()) {
    kernel.begin(source.now(), source.truth());
    double played_fraction = 1.0;
    const FetchOutcome outcome =
        abort_active ? fetch_under_monitor(source, kernel, *manifest_, config_,
                                           played_fraction)
                     : fetch_or_degrade(source, kernel, *manifest_, config_);
    const ChunkWait wait =
        kernel.complete(outcome, source.now(), played_fraction);
    if (wait.idle_s > 0.0) source.wait(wait.idle_s);
    if (wait.drain_s > 0.0) source.wait(wait.drain_s);
  }
  return kernel.finish(source.now());
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
