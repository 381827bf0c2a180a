#include "sim/chunk_source.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/rng.hpp"

namespace abr::sim {

double RetryPolicy::backoff_s(std::size_t failed_attempts,
                              util::Rng& rng) const {
  assert(failed_attempts >= 1);
  const double base =
      initial_backoff_s *
      std::pow(backoff_multiplier, static_cast<double>(failed_attempts - 1));
  const double capped = std::min(base, max_backoff_s);
  const double jitter = jitter_fraction * rng.uniform(-1.0, 1.0);
  return std::max(0.0, capped * (1.0 + jitter));
}

bool FetchControl::stall_projected(double elapsed_s, double done,
                                   double goal) const {
  if (elapsed_s < min_observation_s) return false;
  const double rate = done / elapsed_s;
  const double cushion_s = std::max(0.0, buffer_s - elapsed_s);
  return rate <= 0.0 || (goal - done) / rate > cushion_s + max_stall_s;
}

TraceChunkSource::TraceChunkSource(const trace::ThroughputTrace& trace,
                                   const media::VideoManifest& manifest)
    : trace_(&trace), manifest_(&manifest) {}

FetchOutcome TraceChunkSource::fetch(std::size_t chunk, std::size_t level) {
  const double kilobits = manifest_->chunk_kilobits(chunk, level);
  const double end_s = trace_->transfer_end_time(kilobits, now_s_, cursor_);
  FetchOutcome outcome;
  outcome.duration_s = end_s - now_s_;
  outcome.kilobits = kilobits;
  now_s_ = end_s;
  return outcome;
}

FetchOutcome TraceChunkSource::fetch_controlled(std::size_t chunk,
                                                std::size_t level,
                                                const FetchControl& control) {
  const double total_kb = manifest_->chunk_kilobits(chunk, level);
  const double resume_kb =
      std::clamp(control.resume_from_kilobits, 0.0, total_kb);
  double goal_kb = total_kb - resume_kb;
  if (control.truncate_after_fraction < 1.0) {
    goal_kb *= std::max(0.0, control.truncate_after_fraction);
  }

  FetchOutcome outcome;
  if (goal_kb <= 0.0) {
    outcome.delivered_kilobits = resume_kb;
    return outcome;  // the resume credit already covers the chunk
  }

  const double start_s = now_s_;
  const double end_s = trace_->transfer_end_time(goal_kb, start_s, cursor_);
  if (resume_kb > 0.0) outcome.resumes = 1;
  if (control.abort_enabled && control.check_interval_s > 0.0) {
    // Deterministic deadline monitor: walk fixed checkpoints through the
    // transfer and project its completion from the delivered-so-far rate.
    // Abort when the projection says the remaining bytes arrive later than
    // the playback cushion plus the tolerated stall — the virtual-time
    // equivalent of cancelling the socket mid-body.
    for (double t = start_s + control.check_interval_s; t < end_s;
         t += control.check_interval_s) {
      const double elapsed = t - start_s;
      const double done_kb = trace_->kilobits_between(start_s, t);
      if (control.stall_projected(elapsed, done_kb, goal_kb)) {
        outcome.aborted = true;
        outcome.duration_s = elapsed;
        outcome.kilobits = done_kb;
        outcome.delivered_kilobits = resume_kb + done_kb;
        now_s_ = t;
        return outcome;
      }
    }
  }
  outcome.duration_s = end_s - start_s;
  outcome.kilobits = goal_kb;
  outcome.delivered_kilobits = resume_kb + goal_kb;
  now_s_ = end_s;
  return outcome;
}

void TraceChunkSource::wait(double seconds) {
  assert(seconds >= 0.0);
  now_s_ += seconds;
}

}  // namespace abr::sim
