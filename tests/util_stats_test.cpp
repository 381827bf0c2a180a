#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace abr::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_TRUE(stats.empty());
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.stddev(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats stats;
  stats.add(7.5);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 7.5);
  EXPECT_DOUBLE_EQ(stats.min(), 7.5);
  EXPECT_DOUBLE_EQ(stats.max(), 7.5);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> samples = {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  RunningStats stats;
  double sum = 0.0;
  for (const double s : samples) {
    stats.add(s);
    sum += s;
  }
  const double mean = sum / static_cast<double>(samples.size());
  double m2 = 0.0;
  for (const double s : samples) m2 += (s - mean) * (s - mean);
  EXPECT_NEAR(stats.mean(), mean, 1e-12);
  EXPECT_NEAR(stats.variance(), m2 / static_cast<double>(samples.size()), 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_NEAR(stats.sum(), sum, 1e-12);
}

TEST(RunningStats, MergeEqualsCombinedStream) {
  Rng rng(77);
  RunningStats all;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.gaussian(10.0, 3.0);
    all.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_NEAR(b.mean(), 1.5, 1e-12);
}

TEST(Cdf, PercentileEndpoints) {
  Cdf cdf({5.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(cdf.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.percentile(100), 5.0);
  EXPECT_DOUBLE_EQ(cdf.median(), 3.0);
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 5.0);
}

TEST(Cdf, PercentileInterpolates) {
  Cdf cdf({0.0, 10.0});
  EXPECT_DOUBLE_EQ(cdf.percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(cdf.percentile(25), 2.5);
}

TEST(Percentile, NearestRank) {
  EXPECT_DOUBLE_EQ(nearest_rank_percentile({}, 0.5), 0.0);
  const std::vector<double> one = {7.0};
  EXPECT_DOUBLE_EQ(nearest_rank_percentile(one, 0.5), 7.0);
  const std::vector<double> ten = {1.0, 2.0, 3.0, 4.0, 5.0,
                                   6.0, 7.0, 8.0, 9.0, 10.0};
  EXPECT_DOUBLE_EQ(nearest_rank_percentile(ten, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(nearest_rank_percentile(ten, 0.9), 9.0);
  EXPECT_DOUBLE_EQ(nearest_rank_percentile(ten, 0.91), 10.0);
  EXPECT_DOUBLE_EQ(nearest_rank_percentile(ten, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(nearest_rank_percentile(ten, 1.0), 10.0);
}

TEST(Cdf, FractionAtOrBelow) {
  Cdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(100.0), 1.0);
}

TEST(Cdf, AddThenQuery) {
  Cdf cdf;
  for (int i = 100; i >= 1; --i) cdf.add(i);
  EXPECT_EQ(cdf.count(), 100u);
  EXPECT_NEAR(cdf.median(), 50.5, 1e-9);
  EXPECT_NEAR(cdf.mean(), 50.5, 1e-9);
}

TEST(Cdf, CurveIsMonotone) {
  Rng rng(5);
  Cdf cdf;
  for (int i = 0; i < 500; ++i) cdf.add(rng.gaussian(0.0, 1.0));
  const auto curve = cdf.curve(-3.0, 3.0, 20);
  ASSERT_EQ(curve.size(), 20u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].second, curve[i - 1].second);
    EXPECT_GT(curve[i].first, curve[i - 1].first);
  }
  EXPECT_GE(curve.front().second, 0.0);
  EXPECT_LE(curve.back().second, 1.0);
}

TEST(Cdf, SummaryMentionsCount) {
  Cdf cdf({1.0, 2.0});
  EXPECT_NE(cdf.summary().find("n=2"), std::string::npos);
  Cdf empty;
  EXPECT_EQ(empty.summary(), "(empty)");
}

TEST(HarmonicMean, KnownValues) {
  const std::vector<double> values = {1.0, 4.0, 4.0};
  EXPECT_NEAR(harmonic_mean(values), 2.0, 1e-12);
}

TEST(HarmonicMean, EmptyIsZero) {
  EXPECT_EQ(harmonic_mean({}), 0.0);
}

TEST(HarmonicMean, SingleValue) {
  const std::vector<double> values = {123.0};
  EXPECT_DOUBLE_EQ(harmonic_mean(values), 123.0);
}

/// HM <= AM: the property that makes harmonic-mean prediction robust to
/// upward outliers (Section 7.1.2 of the paper).
TEST(HarmonicMean, NeverExceedsArithmeticMean) {
  Rng rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> values;
    const int n = static_cast<int>(rng.uniform_int(1, 20));
    for (int i = 0; i < n; ++i) values.push_back(rng.uniform(0.1, 100.0));
    EXPECT_LE(harmonic_mean(values), mean(values) + 1e-12);
  }
}

TEST(HarmonicMean, OutlierResistance) {
  // One huge outlier barely moves the harmonic mean.
  const std::vector<double> base = {100.0, 100.0, 100.0, 100.0};
  const std::vector<double> spiked = {100.0, 100.0, 100.0, 100.0, 100000.0};
  EXPECT_LT(harmonic_mean(spiked), 130.0);
  EXPECT_GT(mean(spiked), 10000.0);
  EXPECT_NEAR(harmonic_mean(base), 100.0, 1e-9);
}

TEST(SpanStats, MeanAndStddev) {
  const std::vector<double> values = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(values), 5.0);
  EXPECT_DOUBLE_EQ(stddev(values), 2.0);
  EXPECT_EQ(stddev(std::vector<double>{1.0}), 0.0);
  EXPECT_EQ(mean({}), 0.0);
}

}  // namespace
}  // namespace abr::util
