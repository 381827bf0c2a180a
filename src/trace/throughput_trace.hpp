#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace abr::trace {

/// One piecewise-constant throughput interval.
struct TraceSegment {
  double duration_s = 0.0;  ///< must be > 0
  double rate_kbps = 0.0;   ///< must be >= 0

  friend bool operator==(const TraceSegment&, const TraceSegment&) = default;
};

/// A network throughput trace C_t: piecewise-constant rate over time.
///
/// This is the model behind both the paper's measured datasets (FCC reports
/// 5-second interval averages, HSDPA 1-second samples) and its synthetic
/// dataset. The trace conceptually repeats: queries past the end wrap around,
/// matching the paper's methodology of concatenating measurement sets "to
/// match the length of the video".
///
/// The two workhorse operations are the integral of C_t (how many kilobits a
/// link delivers in [t0, t1]) and its inverse (when a transfer of a given
/// size finishes, Eq. (2) of the paper). Both search prefix sums in O(log n);
/// the inverse also takes a cursor (a caller-held segment index) that makes
/// it amortized O(1) when the caller's transfers move forward in time.
class ThroughputTrace {
 public:
  ThroughputTrace() = default;

  /// Builds a trace from segments. Throws std::invalid_argument if empty,
  /// if any duration is non-positive or too small to advance the running
  /// time (t + d == t after rounding), if any rate is negative, if one
  /// period's duration or capacity is not finite, or if that capacity is
  /// zero (a transfer could never finish).
  explicit ThroughputTrace(std::vector<TraceSegment> segments,
                           std::string name = {});

  /// Convenience: a single-rate trace.
  static ThroughputTrace constant(double rate_kbps, double duration_s,
                                  std::string name = {});

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  const std::vector<TraceSegment>& segments() const { return segments_; }

  /// Duration of one period of the trace, seconds.
  double period_s() const { return period_s_; }

  /// Instantaneous rate at absolute time t >= 0 (wraps around the period).
  double rate_at(double t) const;

  /// Kilobits delivered in [t0, t1], t1 >= t0 >= 0.
  double kilobits_between(double t0, double t1) const;

  /// Absolute time at which a transfer of `kilobits` starting at `start_s`
  /// completes: the earliest instant, and never before `start_s`, at which
  /// the trace has delivered them. A transfer that fills up exactly where
  /// an outage begins ends there, not after the outage. Requires
  /// kilobits >= 0.
  double transfer_end_time(double kilobits, double start_s) const;

  /// Cursor form of the query above. The hint is a caller-held segment
  /// index (start it at 0; any value is safe) that each lookup starts from
  /// and leaves at the segment it found. A lookup at or ahead of its hint
  /// steps or gallops forward; one behind it (a period wrap, a non-monotone
  /// caller) falls back to a binary search. A caller whose start times only
  /// move forward pays amortized O(1) per transfer. The hint never changes
  /// the answer: it equals the stateless call's bit for bit.
  double transfer_end_time(double kilobits, double start_s,
                           std::size_t& hint) const;

  /// Average rate over one period, kbps.
  double mean_kbps() const;

  /// Samples the rate every `interval_s` seconds across one period
  /// (interval-averaged, not point-sampled). Used for the Fig. 7 dataset
  /// characteristic CDFs.
  std::vector<double> sample(double interval_s) const;

  /// Standard deviation of 1-second interval averages over one period.
  double stddev_kbps() const;

  /// Returns a copy scaled by `factor` (>0) in rate. Used for sensitivity
  /// sweeps that stress the same temporal pattern at different capacities.
  ThroughputTrace scaled(double factor) const;

 private:
  /// The segment holding phase u: the last whose start is <= u.
  std::size_t segment_at(double u, std::size_t& hint) const;
  /// Kilobits delivered in [0, u] within one period; u in [0, period].
  double kilobits_before(double u, std::size_t& hint) const;
  /// The earliest u in [0, period] with kilobits_before(u) == kb, for a
  /// transfer that starts where kilobits_before is `from_kb` <= kb.
  double time_for_kilobits(double from_kb, double kb, std::size_t& hint) const;

  std::vector<TraceSegment> segments_;
  std::vector<double> cum_time_;  ///< cum_time_[i] = start time of segment i
  std::vector<double> cum_kb_;    ///< cum_kb_[i] = kilobits before segment i
  double period_s_ = 0.0;
  double total_kb_ = 0.0;
  std::string name_;
};

}  // namespace abr::trace
