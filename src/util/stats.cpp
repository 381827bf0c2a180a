#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace abr::util {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return count_ == 0 ? 0.0 : min_; }

double RunningStats::max() const { return count_ == 0 ? 0.0 : max_; }

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double total = static_cast<double>(count_ + other.count_);
  const double delta = other.mean_ - mean_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) / total;
  mean_ += delta * static_cast<double>(other.count_) / total;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

Cdf::Cdf(std::vector<double> samples) : samples_(std::move(samples)) {}

void Cdf::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void Cdf::finalize() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Cdf::percentile(double p) const {
  assert(!samples_.empty());
  assert(p >= 0.0 && p <= 100.0);
  finalize();
  if (samples_.size() == 1) return samples_.front();
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double Cdf::fraction_at_or_below(double x) const {
  if (samples_.empty()) return 0.0;
  finalize();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

double Cdf::min() const {
  assert(!samples_.empty());
  finalize();
  return samples_.front();
}

double Cdf::max() const {
  assert(!samples_.empty());
  finalize();
  return samples_.back();
}

double Cdf::mean() const {
  if (samples_.empty()) return 0.0;
  double total = 0.0;
  for (const double s : samples_) total += s;
  return total / static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>> Cdf::curve(double lo, double hi,
                                                  std::size_t points) const {
  assert(points >= 2);
  std::vector<std::pair<double, double>> result;
  result.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double x =
        lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(points - 1);
    result.emplace_back(x, fraction_at_or_below(x));
  }
  return result;
}

std::string Cdf::summary() const {
  std::ostringstream out;
  if (samples_.empty()) {
    out << "(empty)";
    return out.str();
  }
  out.setf(std::ios::fixed);
  out.precision(2);
  out << "p10=" << percentile(10) << " p25=" << percentile(25)
      << " p50=" << percentile(50) << " p75=" << percentile(75)
      << " p90=" << percentile(90) << " mean=" << mean() << " n=" << count();
  return out.str();
}

double nearest_rank_percentile(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(rank == 0 ? 0 : rank - 1, sorted.size() - 1)];
}

double harmonic_mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double reciprocal_sum = 0.0;
  for (const double v : values) {
    assert(v > 0.0);
    reciprocal_sum += 1.0 / v;
  }
  return static_cast<double>(values.size()) / reciprocal_sum;
}

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (const double v : values) total += v;
  return total / static_cast<double>(values.size());
}

double stddev(std::span<const double> values) {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double m2 = 0.0;
  for (const double v : values) m2 += (v - m) * (v - m);
  return std::sqrt(m2 / static_cast<double>(values.size()));
}

}  // namespace abr::util
