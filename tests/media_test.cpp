#include <gtest/gtest.h>

#include <ostream>
#include <stdexcept>

#include "media/manifest.hpp"
#include "media/quality.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace abr::media {
namespace {

TEST(VideoManifest, EnvivioMatchesPaperParameters) {
  const auto manifest = VideoManifest::envivio_default();
  EXPECT_EQ(manifest.chunk_count(), 65u);
  EXPECT_DOUBLE_EQ(manifest.chunk_duration_s(), 4.0);
  EXPECT_DOUBLE_EQ(manifest.duration_s(), 260.0);
  ASSERT_EQ(manifest.level_count(), 5u);
  EXPECT_DOUBLE_EQ(manifest.bitrate_kbps(0), 350.0);
  EXPECT_DOUBLE_EQ(manifest.bitrate_kbps(4), 3000.0);
}

TEST(VideoManifest, CbrSizesAreDurationTimesBitrate) {
  const auto manifest = VideoManifest::cbr(10, 4.0, {500.0, 1000.0});
  EXPECT_DOUBLE_EQ(manifest.chunk_kilobits(0, 0), 2000.0);
  EXPECT_DOUBLE_EQ(manifest.chunk_kilobits(9, 1), 4000.0);
}

TEST(VideoManifest, VbrSizesAverageToNominal) {
  util::Rng rng(3);
  const auto manifest = VideoManifest::vbr(500, 4.0, {1000.0}, 0.3, rng);
  util::RunningStats sizes;
  for (std::size_t k = 0; k < manifest.chunk_count(); ++k) {
    sizes.add(manifest.chunk_kilobits(k, 0));
  }
  // Lognormal with unit mean: average ~= 4000 kb, with real spread.
  EXPECT_NEAR(sizes.mean(), 4000.0, 250.0);
  EXPECT_GT(sizes.stddev(), 500.0);
}

TEST(VideoManifest, VbrComplexityCorrelatedAcrossLadder) {
  util::Rng rng(4);
  const auto manifest = VideoManifest::vbr(50, 4.0, {500.0, 1000.0}, 0.4, rng);
  for (std::size_t k = 0; k < manifest.chunk_count(); ++k) {
    const double ratio =
        manifest.chunk_kilobits(k, 1) / manifest.chunk_kilobits(k, 0);
    EXPECT_NEAR(ratio, 2.0, 1e-9);  // same complexity factor at both levels
  }
}

TEST(VideoManifest, ValidationRejectsBadLadders) {
  EXPECT_THROW(VideoManifest::cbr(5, 4.0, {}), std::invalid_argument);
  EXPECT_THROW(VideoManifest::cbr(5, 4.0, {1000.0, 500.0}),
               std::invalid_argument);
  EXPECT_THROW(VideoManifest::cbr(5, 4.0, {500.0, 500.0}),
               std::invalid_argument);
  EXPECT_THROW(VideoManifest::cbr(5, 4.0, {-1.0, 500.0}),
               std::invalid_argument);
  EXPECT_THROW(VideoManifest::cbr(5, 0.0, {500.0}), std::invalid_argument);
  EXPECT_THROW(VideoManifest::cbr(0, 4.0, {500.0}), std::invalid_argument);
}

TEST(VideoManifest, FromSizesValidatesShape) {
  EXPECT_THROW(
      VideoManifest::from_sizes(4.0, {500.0, 1000.0}, {{2000.0}}),
      std::invalid_argument);
  EXPECT_THROW(
      VideoManifest::from_sizes(4.0, {500.0}, {{0.0}}),
      std::invalid_argument);
  const auto ok = VideoManifest::from_sizes(4.0, {500.0}, {{1234.0}});
  EXPECT_DOUBLE_EQ(ok.chunk_kilobits(0, 0), 1234.0);
}

TEST(VideoManifest, HighestLevelNotAbove) {
  const auto manifest = VideoManifest::envivio_default();
  EXPECT_EQ(manifest.highest_level_not_above(349.0), 0u);   // below lowest
  EXPECT_EQ(manifest.highest_level_not_above(350.0), 0u);
  EXPECT_EQ(manifest.highest_level_not_above(999.0), 1u);
  EXPECT_EQ(manifest.highest_level_not_above(1000.0), 2u);
  EXPECT_EQ(manifest.highest_level_not_above(2999.0), 3u);
  EXPECT_EQ(manifest.highest_level_not_above(1e9), 4u);
}

TEST(GeometricLadder, EndpointsAndMonotonicity) {
  const auto ladder = VideoManifest::geometric_ladder(350.0, 3000.0, 7);
  ASSERT_EQ(ladder.size(), 7u);
  EXPECT_DOUBLE_EQ(ladder.front(), 350.0);
  EXPECT_DOUBLE_EQ(ladder.back(), 3000.0);
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_GT(ladder[i], ladder[i - 1]);
  }
  // Constant ratio between steps.
  const double r = ladder[1] / ladder[0];
  for (std::size_t i = 2; i < ladder.size(); ++i) {
    EXPECT_NEAR(ladder[i] / ladder[i - 1], r, 1e-9);
  }
}

TEST(QualityFunction, IdentityIsIdentity) {
  const auto q = QualityFunction::identity();
  EXPECT_DOUBLE_EQ(q(350.0), 350.0);
  EXPECT_DOUBLE_EQ(q(3000.0), 3000.0);
  EXPECT_EQ(q.name(), "identity");
}

TEST(QualityFunction, LogarithmicShape) {
  const auto q = QualityFunction::logarithmic(350.0, 1000.0);
  EXPECT_NEAR(q(350.0), 0.0, 1e-9);
  EXPECT_GT(q(700.0), 0.0);
  // Diminishing returns: equal ratios give equal increments.
  EXPECT_NEAR(q(1400.0) - q(700.0), q(700.0) - q(350.0), 1e-9);
}

TEST(QualityFunction, SaturatingKnee) {
  const auto q = QualityFunction::device_saturating(1000.0, 0.1);
  EXPECT_DOUBLE_EQ(q(500.0), 500.0);
  EXPECT_DOUBLE_EQ(q(1000.0), 1000.0);
  EXPECT_DOUBLE_EQ(q(2000.0), 1100.0);  // compressed slope above the knee
}

TEST(QualityFunction, PiecewiseInterpolatesAndClamps) {
  const auto q = QualityFunction::piecewise({{100.0, 0.0}, {200.0, 10.0},
                                             {400.0, 12.0}});
  EXPECT_DOUBLE_EQ(q(50.0), 0.0);     // clamp below
  EXPECT_DOUBLE_EQ(q(150.0), 5.0);    // interpolate
  EXPECT_DOUBLE_EQ(q(300.0), 11.0);
  EXPECT_DOUBLE_EQ(q(1000.0), 12.0);  // clamp above
}

TEST(QualityFunction, PiecewiseValidates) {
  EXPECT_THROW(QualityFunction::piecewise({{100.0, 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(QualityFunction::piecewise({{200.0, 0.0}, {100.0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(QualityFunction::piecewise({{100.0, 5.0}, {200.0, 1.0}}),
               std::invalid_argument);
}

}  // namespace

/// Prints a quality function as its family name. CTest's test discovery
/// names each QualityMonotonicity case by its printed parameter; without
/// this printer that is the object's raw bytes (a heap pointer and padding
/// included), so the discovered names would change from run to run.
void PrintTo(const QualityFunction& q, std::ostream* os) { *os << q.name(); }

namespace {

/// q(.) must be non-decreasing (Section 3.1); parameterized across the
/// families.
class QualityMonotonicity
    : public ::testing::TestWithParam<QualityFunction> {};

TEST_P(QualityMonotonicity, NonDecreasing) {
  const QualityFunction& q = GetParam();
  double prev = q(10.0);
  for (double rate = 20.0; rate <= 10000.0; rate += 10.0) {
    const double value = q(rate);
    ASSERT_GE(value, prev - 1e-12) << "at rate " << rate;
    prev = value;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, QualityMonotonicity,
    ::testing::Values(QualityFunction::identity(),
                      QualityFunction::logarithmic(350.0, 1000.0),
                      QualityFunction::device_saturating(1000.0, 0.2),
                      QualityFunction::piecewise({{100.0, 1.0},
                                                  {1000.0, 5.0},
                                                  {5000.0, 6.0}})));

}  // namespace
}  // namespace abr::media
