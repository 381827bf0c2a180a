#include "trace/throughput_trace.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/stats.hpp"

namespace abr::trace {

ThroughputTrace::ThroughputTrace(std::vector<TraceSegment> segments,
                                 std::string name)
    : segments_(std::move(segments)), name_(std::move(name)) {
  if (segments_.empty()) {
    throw std::invalid_argument("ThroughputTrace: no segments");
  }
  cum_time_.reserve(segments_.size());
  cum_kb_.reserve(segments_.size());
  double t = 0.0;
  double kb = 0.0;
  for (const TraceSegment& seg : segments_) {
    if (!(seg.duration_s > 0.0)) {
      throw std::invalid_argument("ThroughputTrace: non-positive duration");
    }
    if (seg.rate_kbps < 0.0) {
      throw std::invalid_argument("ThroughputTrace: negative rate");
    }
    cum_time_.push_back(t);
    cum_kb_.push_back(kb);
    if (t + seg.duration_s == t) {
      // Lost to rounding: the segment would have no extent on the time axis.
      throw std::invalid_argument(
          "ThroughputTrace: duration too small to advance the trace");
    }
    t += seg.duration_s;
    kb += seg.duration_s * seg.rate_kbps;
  }
  period_s_ = t;
  total_kb_ = kb;
  if (!std::isfinite(period_s_) || !std::isfinite(total_kb_)) {
    throw std::invalid_argument(
        "ThroughputTrace: non-finite period or capacity");
  }
  if (!(total_kb_ > 0.0)) {
    throw std::invalid_argument("ThroughputTrace: zero total capacity");
  }
}

ThroughputTrace ThroughputTrace::constant(double rate_kbps, double duration_s,
                                          std::string name) {
  return ThroughputTrace({{duration_s, rate_kbps}}, std::move(name));
}

double ThroughputTrace::rate_at(double t) const {
  assert(t >= 0.0);
  double phase = std::fmod(t, period_s_);
  if (phase < 0.0) phase += period_s_;
  std::size_t hint = 0;
  return segments_[segment_at(phase, hint)].rate_kbps;
}

namespace {

/// The one segment search behind every lookup: the first index of `keys`
/// (sorted ascending, so `below` holds on a prefix) at which `below` is
/// false, found from a hint. The answer is that unique partition point
/// whatever the hint, so a cursor walk and a fresh search agree exactly.
template <typename Below>
std::size_t partition_from(const std::vector<double>& keys, std::size_t hint,
                           Below below) {
  const double* const key = keys.data();
  const std::size_t n = keys.size();
  hint = std::min(hint, n - 1);
  if (!below(key[hint])) {
    // Behind the hint: a period wrap or a non-monotone caller.
    return static_cast<std::size_t>(
        std::partition_point(key, key + hint, below) - key);
  }
  // At or ahead of the hint: try the next key, then double the stride.
  std::size_t lo = hint + 1;  // below() holds for every key before lo
  std::size_t stride = 1;
  while (lo < n && below(key[lo])) {
    const std::size_t probe = lo + stride;
    if (probe >= n || !below(key[probe])) {
      return static_cast<std::size_t>(
          std::partition_point(key + lo + 1, key + std::min(probe, n), below) -
          key);
    }
    lo = probe + 1;
    stride *= 2;
  }
  return lo;
}

/// Rounding slack for a quantity of magnitude `scale`: 1e-9 relative, and
/// never below 1e-9 absolute.
[[maybe_unused]] constexpr double slack(double scale) {
  return 1e-9 * std::max(1.0, scale);
}

}  // namespace

std::size_t ThroughputTrace::segment_at(double u, std::size_t& hint) const {
  // std::upper_bound's partition: the first start after u, less one (a
  // phase rounded below zero stays in the first segment).
  const std::size_t after = partition_from(
      cum_time_, hint, [u](double start) { return !(u < start); });
  hint = std::max<std::size_t>(after, 1) - 1;
  return hint;
}

double ThroughputTrace::kilobits_before(double u, std::size_t& hint) const {
  // A phase taken modulo the period may round a few ulps of the time
  // outside [0, period]; it is clamped in, so the count never goes
  // negative.
  assert(u >= -slack(period_s_) && u <= period_s_ + slack(period_s_));
  u = std::clamp(u, 0.0, period_s_);
  const std::size_t index = segment_at(u, hint);
  return cum_kb_[index] + (u - cum_time_[index]) * segments_[index].rate_kbps;
}

double ThroughputTrace::time_for_kilobits(double from_kb, double kb,
                                          std::size_t& hint) const {
  assert(kb >= 0.0 && kb <= total_kb_ + slack(total_kb_) && from_kb <= kb);
  kb = std::min(kb, total_kb_);
  // The first segment whose cumulative start reaches kb and lies past
  // from_kb. An exact hit completes at that segment's start, before any
  // zero-rate run that begins there; otherwise kb is reached inside the
  // segment before it, whose rate is positive. When kb rounds to from_kb
  // there is no exact hit: the transfer still needs the link to carry
  // something, so it ends after any outage it began in, not at its start.
  const std::size_t reached =
      partition_from(cum_kb_, hint, [from_kb, kb](double before) {
        return before < kb || before <= from_kb;
      });
  if (reached < cum_kb_.size() && cum_kb_[reached] == kb) {
    hint = reached;
    return cum_time_[reached];
  }
  const std::size_t index = std::max<std::size_t>(reached, 1) - 1;
  hint = index;
  return cum_time_[index] + (kb - cum_kb_[index]) / segments_[index].rate_kbps;
}

double ThroughputTrace::kilobits_between(double t0, double t1) const {
  assert(t1 >= t0 && t0 >= 0.0);
  const double full_cycles =
      std::floor(t1 / period_s_) - std::floor(t0 / period_s_);
  const double phase0 = t0 - std::floor(t0 / period_s_) * period_s_;
  const double phase1 = t1 - std::floor(t1 / period_s_) * period_s_;
  std::size_t hint = 0;
  const double before0 = kilobits_before(phase0, hint);
  const double before1 = kilobits_before(phase1, hint);
  return full_cycles * total_kb_ + before1 - before0;
}

double ThroughputTrace::transfer_end_time(double kilobits,
                                          double start_s) const {
  std::size_t hint = 0;
  return transfer_end_time(kilobits, start_s, hint);
}

double ThroughputTrace::transfer_end_time(double kilobits, double start_s,
                                          std::size_t& hint) const {
  assert(kilobits >= 0.0 && start_s >= 0.0);
  if (kilobits == 0.0) return start_s;
  const double cycle_start = std::floor(start_s / period_s_) * period_s_;
  const double phase = start_s - cycle_start;
  const double before = kilobits_before(phase, hint);
  double end_s = 0.0;
  if (kilobits <= total_kb_ - before) {
    end_s = cycle_start + time_for_kilobits(before, before + kilobits, hint);
  } else {
    if (std::isinf(kilobits)) return kilobits;  // it never arrives
    // The rest arrives over later periods. An exact multiple of a period's
    // capacity completes in the last full period, before its trailing
    // outage.
    const double rest_kb = kilobits - (total_kb_ - before);
    double cycles = std::floor(rest_kb / total_kb_);
    double last_kb = rest_kb - cycles * total_kb_;
    if (last_kb <= 0.0) {
      cycles -= 1.0;
      last_kb += total_kb_;
    }
    end_s = cycle_start + period_s_ + cycles * period_s_ +
            time_for_kilobits(0.0, last_kb, hint);
  }
  // Never before the start: a transfer of a few ulps, or a start an ulp
  // before a wrap, can round to an instant just short of it.
  return std::max(start_s, end_s);
}

double ThroughputTrace::mean_kbps() const { return total_kb_ / period_s_; }

std::vector<double> ThroughputTrace::sample(double interval_s) const {
  assert(interval_s > 0.0);
  std::vector<double> samples;
  const auto n = static_cast<std::size_t>(std::ceil(period_s_ / interval_s));
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t0 = static_cast<double>(i) * interval_s;
    const double t1 = std::min(t0 + interval_s, period_s_);
    if (t1 <= t0) break;
    samples.push_back(kilobits_between(t0, t1) / (t1 - t0));
  }
  return samples;
}

double ThroughputTrace::stddev_kbps() const {
  const auto samples = sample(1.0);
  return util::stddev(samples);
}

ThroughputTrace ThroughputTrace::scaled(double factor) const {
  assert(factor > 0.0);
  std::vector<TraceSegment> scaled_segments = segments_;
  for (TraceSegment& seg : scaled_segments) seg.rate_kbps *= factor;
  return ThroughputTrace(std::move(scaled_segments), name_);
}

}  // namespace abr::trace
