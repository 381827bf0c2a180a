#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace abr::util {

/// Single-pass accumulator for mean / variance / min / max (Welford).
///
/// Used pervasively for per-session metric aggregation; numerically stable
/// for the long throughput series produced by the trace generators.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double mean() const;
  /// Population variance. Returns 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// Sum of all samples added so far.
  double sum() const { return sum_; }

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Empirical distribution over a sample set: percentiles and CDF queries.
///
/// The paper reports results almost exclusively as CDFs (Figs. 7-10) and
/// medians; this class is the single place those are computed.
class Cdf {
 public:
  Cdf() = default;
  explicit Cdf(std::vector<double> samples);

  void add(double x);
  /// Sorts pending samples; called lazily by the query methods.
  void finalize() const;

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// Value at percentile p in [0, 100]; linear interpolation between ranks.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  /// Fraction of samples <= x, in [0, 1].
  double fraction_at_or_below(double x) const;
  double min() const;
  double max() const;
  double mean() const;

  /// Evaluates the CDF at `points` evenly spaced values spanning
  /// [lo, hi]; returns (x, F(x)) pairs. Used by the figure benches to print
  /// the same curves the paper plots.
  std::vector<std::pair<double, double>> curve(double lo, double hi,
                                               std::size_t points) const;

  /// Renders a fixed-width table of percentiles (p10/p25/p50/p75/p90) for
  /// human-readable bench output.
  std::string summary() const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

/// Nearest-rank percentile, q in [0, 1], of an ascending sample: the
/// ceil(q * n)-th smallest value (the smallest for q = 0); 0 when empty.
double nearest_rank_percentile(std::span<const double> sorted, double q);

/// Harmonic mean of the values; values must be positive. Returns 0 for an
/// empty span. This is the throughput estimator used by RB / FESTIVE / MPC
/// (Section 7.1.2 of the paper): it is robust to single-chunk outliers.
double harmonic_mean(std::span<const double> values);

/// Arithmetic mean; returns 0 for an empty span.
double mean(std::span<const double> values);

/// Population standard deviation; returns 0 for fewer than 2 values.
double stddev(std::span<const double> values);

}  // namespace abr::util
