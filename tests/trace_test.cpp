#include "trace/throughput_trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "media/manifest.hpp"
#include "sim/chunk_source.hpp"
#include "testing/trace_oracle.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"

namespace abr::trace {
namespace {

using abr::testing::bits_of;
using abr::testing::walk_transfer_end;

bool all_idle(const std::vector<TraceSegment>& segments) {
  return std::all_of(
      segments.begin(), segments.end(),
      [](const TraceSegment& seg) { return seg.rate_kbps == 0.0; });
}

/// A random trace of 1-400 segments that may hold zero-rate runs at its
/// start, middle and end. `integral` draws durations and rates as small
/// integers, so every cumulative boundary is exact and a transfer can fill
/// up exactly where an outage begins.
ThroughputTrace random_trace(util::Rng& rng, bool integral) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 400));
  std::vector<TraceSegment> segments;
  for (std::size_t i = 0; i < n; ++i) {
    if (integral) {
      segments.push_back({static_cast<double>(rng.uniform_int(1, 4)),
                          100.0 * static_cast<double>(rng.uniform_int(0, 8))});
    } else {
      segments.push_back({rng.uniform(0.05, 5.0), rng.uniform(0.0, 6000.0)});
    }
  }
  for (const int where : {0, 1, 2}) {  // start, middle, end
    if (rng.uniform() < 0.5) continue;
    const auto length =
        std::min(n, static_cast<std::size_t>(rng.uniform_int(1, 3)));
    const std::size_t first = where == 0 ? 0 : where == 1 ? n / 2 : n - length;
    for (std::size_t i = first; i < std::min(n, first + length); ++i) {
      segments[i].rate_kbps = 0.0;
    }
  }
  if (all_idle(segments)) segments[n / 2].rate_kbps = 700.0;
  return ThroughputTrace(std::move(segments));
}

TEST(ThroughputTrace, RejectsInvalidSegments) {
  EXPECT_THROW(ThroughputTrace(std::vector<TraceSegment>{}),
               std::invalid_argument);
  EXPECT_THROW(ThroughputTrace({{0.0, 100.0}}), std::invalid_argument);
  EXPECT_THROW(ThroughputTrace({{-1.0, 100.0}}), std::invalid_argument);
  EXPECT_THROW(ThroughputTrace({{1.0, -5.0}}), std::invalid_argument);
  // All-zero capacity: a transfer could never complete.
  EXPECT_THROW(ThroughputTrace({{1.0, 0.0}, {2.0, 0.0}}),
               std::invalid_argument);
}

TEST(ThroughputTrace, RejectsHostileMagnitudes) {
  // A duration that rounds away against the running time (1e17 + 1 ==
  // 1e17) would give a segment no extent on the time axis.
  EXPECT_THROW(ThroughputTrace({{1e17, 100.0}, {1.0, 500.0}}),
               std::invalid_argument);
  // A period or a period's capacity that overflows to infinity.
  EXPECT_THROW(ThroughputTrace({{1e308, 1.0}, {1e308, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(ThroughputTrace({{1e308, 10.0}}), std::invalid_argument);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ThroughputTrace({{1.0, 9e17}, {1.0, inf}}),
               std::invalid_argument);
  EXPECT_THROW(ThroughputTrace({{1.0, nan}}), std::invalid_argument);

  // Tiny and huge values that still add up are kept exactly.
  const ThroughputTrace tiny({{1e-10, 9e17}, {1e-6, 0.0}, {2.0, 500.0}});
  EXPECT_EQ(tiny.period_s(), 1e-10 + 1e-6 + 2.0);
  const ThroughputTrace huge({{1e308, 0.5}});
  EXPECT_EQ(huge.period_s(), 1e308);
  EXPECT_EQ(huge.kilobits_between(0.0, huge.period_s()), 5e307);
}

TEST(ThroughputTrace, ConstantTraceBasics) {
  const auto trace = ThroughputTrace::constant(1000.0, 10.0, "c");
  EXPECT_EQ(trace.name(), "c");
  EXPECT_DOUBLE_EQ(trace.period_s(), 10.0);
  EXPECT_DOUBLE_EQ(trace.mean_kbps(), 1000.0);
  EXPECT_DOUBLE_EQ(trace.rate_at(0.0), 1000.0);
  EXPECT_DOUBLE_EQ(trace.rate_at(9.99), 1000.0);
  EXPECT_DOUBLE_EQ(trace.stddev_kbps(), 0.0);
}

TEST(ThroughputTrace, RateAtSegmentBoundaries) {
  const ThroughputTrace trace({{2.0, 100.0}, {3.0, 200.0}});
  EXPECT_DOUBLE_EQ(trace.rate_at(0.0), 100.0);
  EXPECT_DOUBLE_EQ(trace.rate_at(1.999), 100.0);
  EXPECT_DOUBLE_EQ(trace.rate_at(2.0), 200.0);
  EXPECT_DOUBLE_EQ(trace.rate_at(4.999), 200.0);
  // Wraps to the first segment.
  EXPECT_DOUBLE_EQ(trace.rate_at(5.0), 100.0);
  EXPECT_DOUBLE_EQ(trace.rate_at(12.5), 200.0);
}

TEST(ThroughputTrace, KilobitsBetweenWithinPeriod) {
  const ThroughputTrace trace({{2.0, 100.0}, {3.0, 200.0}});
  EXPECT_DOUBLE_EQ(trace.kilobits_between(0.0, 2.0), 200.0);
  EXPECT_DOUBLE_EQ(trace.kilobits_between(0.0, 5.0), 800.0);
  EXPECT_DOUBLE_EQ(trace.kilobits_between(1.0, 3.0), 300.0);
  EXPECT_DOUBLE_EQ(trace.kilobits_between(2.5, 2.5), 0.0);
}

TEST(ThroughputTrace, KilobitsBetweenAcrossWrap) {
  const ThroughputTrace trace({{2.0, 100.0}, {3.0, 200.0}});
  // One full period (800 kb) plus [0, 1] of the next (100 kb).
  EXPECT_DOUBLE_EQ(trace.kilobits_between(0.0, 6.0), 900.0);
  // Two full periods.
  EXPECT_DOUBLE_EQ(trace.kilobits_between(1.0, 11.0), 1600.0);
}

TEST(ThroughputTrace, TransferEndTimeSimple) {
  const auto trace = ThroughputTrace::constant(1000.0, 100.0);
  // 500 kb at 1000 kbps takes 0.5 s.
  EXPECT_NEAR(trace.transfer_end_time(500.0, 0.0), 0.5, 1e-9);
  EXPECT_NEAR(trace.transfer_end_time(500.0, 3.25), 3.75, 1e-9);
  EXPECT_DOUBLE_EQ(trace.transfer_end_time(0.0, 7.0), 7.0);
}

TEST(ThroughputTrace, TransferEndTimeAcrossSegments) {
  const ThroughputTrace trace({{1.0, 100.0}, {1.0, 300.0}});
  // 250 kb from t=0: 100 kb in first second, 150 kb at 300 kbps = 0.5 s.
  EXPECT_NEAR(trace.transfer_end_time(250.0, 0.0), 1.5, 1e-9);
}

TEST(ThroughputTrace, TransferEndTimeAcrossWrap) {
  const ThroughputTrace trace({{1.0, 100.0}, {1.0, 300.0}});
  // Period capacity = 400 kb. 1000 kb from t=0: 2 full periods (800 kb,
  // 4 s) + 100 kb over the 3rd period's first segment (1 s) + 100 kb at
  // 300 kbps (1/3 s).
  EXPECT_NEAR(trace.transfer_end_time(1000.0, 0.0), 5.0 + 1.0 / 3.0, 1e-9);
}

/// A transfer that fills up exactly where an outage begins ends there; these
/// boundary cases used to be charged for the outage they finish before. A
/// transfer too small to register ends neither inside an outage nor before
/// its start.
TEST(ThroughputTrace, TransferEndsWhereAnOutageBegins) {
  const ThroughputTrace middle({{2.0, 700.0}, {1.0, 0.0}, {2.0, 700.0}});
  EXPECT_EQ(middle.transfer_end_time(1400.0, 0.0), 2.0);
  EXPECT_NEAR(middle.transfer_end_time(1399.999, 0.0), 1399.999 / 700.0,
              1e-12);
  EXPECT_NEAR(middle.transfer_end_time(1400.001, 0.0), 3.0 + 0.001 / 700.0,
              1e-12);

  // An exact multiple of a period's capacity: the last kilobit arrives at
  // the end of the last full period's capacity, not after the next
  // period's leading outage or the last period's trailing one.
  const ThroughputTrace leading({{1.0, 0.0}, {2.0, 700.0}});
  EXPECT_EQ(leading.transfer_end_time(2800.0, 1.0), 6.0);
  EXPECT_EQ(leading.transfer_end_time(1400.0, 0.0), 3.0);
  const ThroughputTrace trailing({{2.0, 700.0}, {1.0, 0.0}});
  EXPECT_EQ(trailing.transfer_end_time(2800.0, 0.0), 5.0);
  EXPECT_EQ(trailing.transfer_end_time(1400.0, 0.5), 3.5);

  // 1 kb does not move a cumulative of 1e17 kb once rounded. The transfer
  // still needs the link to carry something, so it ends with the outage it
  // began in (the true end is 2 + 1e-17 s), not at the outage's start.
  const ThroughputTrace huge({{1.0, 1e17}, {1.0, 0.0}, {1.0, 1e17}});
  EXPECT_EQ(huge.transfer_end_time(1.0, 1.5), 2.0);
  EXPECT_EQ(huge.transfer_end_time(1.0, 0.5), 0.5);
  // On a constant link the same 1 kb rounds back to one ulp before its
  // start; it ends at its start.
  const ThroughputTrace fast({{1.0, 1e17}});
  EXPECT_EQ(fast.transfer_end_time(1.0, 0.762280082457942), 0.762280082457942);
}

TEST(ThroughputTrace, TransferSkipsZeroRateSegments) {
  const ThroughputTrace trace({{1.0, 100.0}, {2.0, 0.0}, {1.0, 100.0}});
  // 150 kb from t=0: 100 kb in [0,1], dead air [1,3], 50 kb in [3,3.5].
  EXPECT_NEAR(trace.transfer_end_time(150.0, 0.0), 3.5, 1e-9);
  // Starting inside the dead zone.
  EXPECT_NEAR(trace.transfer_end_time(50.0, 1.5), 3.5, 1e-9);
}

/// Property: transfer_end_time is the inverse of kilobits_between, and it
/// returns the earliest such instant (a walk over the segments agrees).
/// Every fourth segment on average is an outage; on odd trials durations,
/// rates, starts and sizes are integers, so transfers end exactly on
/// segment boundaries, where an outage may begin.
TEST(ThroughputTrace, TransferEndTimeInvertsIntegral) {
  util::Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    const bool integral = trial % 2 == 1;
    std::vector<TraceSegment> segments;
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    for (int i = 0; i < n; ++i) {
      const double rate =
          integral ? 100.0 * static_cast<double>(rng.uniform_int(1, 50))
                   : rng.uniform(50.0, 5000.0);
      segments.push_back(
          {integral ? static_cast<double>(rng.uniform_int(1, 5))
                    : rng.uniform(0.5, 5.0),
           rng.uniform() < 0.25 ? 0.0 : rate});
    }
    if (all_idle(segments)) segments.back().rate_kbps = 1000.0;
    const ThroughputTrace trace(std::move(segments));
    for (int q = 0; q < 10; ++q) {
      const double start =
          integral ? static_cast<double>(rng.uniform_int(
                         0, static_cast<std::int64_t>(3.0 * trace.period_s())))
                   : rng.uniform(0.0, 3.0 * trace.period_s());
      const double kb =
          integral ? 100.0 * static_cast<double>(rng.uniform_int(1, 50))
                   : rng.uniform(1.0, 5000.0);
      const double end = trace.transfer_end_time(kb, start);
      ASSERT_GT(end, start);
      ASSERT_NEAR(trace.kilobits_between(start, end), kb, 1e-6);
      ASSERT_NEAR(end, walk_transfer_end(trace, kb, start), 1e-9 * end)
          << "trial " << trial << " query " << q;
    }
  }
}

/// Every cursor answer equals the stateless one bit for bit, along
/// session-like forward walks over several periods and after one backward
/// query on the live cursor.
TEST(ThroughputTrace, CursorWalksMatchStatelessQueriesBitForBit) {
  util::Rng rng(41);
  std::size_t transfers = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const bool integral = trial % 2 == 1;
    const ThroughputTrace trace = random_trace(rng, integral);
    const double period = trace.period_s();
    const double capacity = trace.mean_kbps() * period;
    std::size_t cursor = 0;
    double t = 0.0;
    while (t < 3.0 * period) {
      // A transfer: a random size, a whole number of periods' capacity, or
      // exactly what the link delivers up to a segment boundary ahead.
      const std::int64_t kind = rng.uniform_int(0, 99);
      double kb = 0.0;
      if (kind == 0) {
        kb = capacity * static_cast<double>(rng.uniform_int(1, 2));
      } else if (kind <= 30) {
        kb = trace.kilobits_between(
            t, std::ceil(t) + static_cast<double>(rng.uniform_int(1, 6)));
      } else {
        kb = integral ? static_cast<double>(rng.uniform_int(1, 4000))
                      : rng.uniform(1.0, 4000.0);
      }
      const double end = trace.transfer_end_time(kb, t, cursor);
      ASSERT_EQ(bits_of(end), bits_of(trace.transfer_end_time(kb, t)))
          << "trial " << trial << " t " << t << " kb " << kb;
      ASSERT_GE(end, t);
      // A buffer-full pause, or none. Integral walks restart on whole
      // seconds, so boundaries stay exact.
      t = end + (rng.uniform() < 0.5 ? 0.0 : rng.uniform(0.0, period / 100.0));
      if (integral) t = std::ceil(t);
      ++transfers;
    }

    // Backward: a period wrap or a non-monotone caller.
    const double back = integral ? std::floor(t / 2.0) : rng.uniform(0.0, t);
    std::size_t stale = cursor;
    EXPECT_EQ(bits_of(trace.transfer_end_time(777.0, back, stale)),
              bits_of(trace.transfer_end_time(777.0, back)));
    // Any hint is safe, even one past the last segment.
    std::size_t wild = ~std::size_t{0};
    EXPECT_EQ(bits_of(trace.transfer_end_time(777.0, t, wild)),
              bits_of(trace.transfer_end_time(777.0, t)));
  }
  EXPECT_GT(transfers, 10000u);  // the walks are long enough to matter
}

/// TraceChunkSource's logic on the stateless calls, a fresh search for
/// every lookup: the reference the cursor source must match bit for bit.
class StatelessSource {
 public:
  StatelessSource(const ThroughputTrace& trace,
                  const media::VideoManifest& manifest)
      : trace_(&trace), manifest_(&manifest) {}

  sim::FetchOutcome fetch(std::size_t chunk, std::size_t level) {
    const double kilobits = manifest_->chunk_kilobits(chunk, level);
    const double end_s = trace_->transfer_end_time(kilobits, now_s_);
    sim::FetchOutcome outcome;
    outcome.duration_s = end_s - now_s_;
    outcome.kilobits = kilobits;
    now_s_ = end_s;
    return outcome;
  }

  sim::FetchOutcome fetch_controlled(std::size_t chunk, std::size_t level,
                                     const sim::FetchControl& control) {
    const double total_kb = manifest_->chunk_kilobits(chunk, level);
    const double resume_kb =
        std::clamp(control.resume_from_kilobits, 0.0, total_kb);
    double goal_kb = total_kb - resume_kb;
    if (control.truncate_after_fraction < 1.0) {
      goal_kb *= std::max(0.0, control.truncate_after_fraction);
    }
    sim::FetchOutcome outcome;
    if (goal_kb <= 0.0) {
      outcome.delivered_kilobits = resume_kb;
      return outcome;
    }
    const double start_s = now_s_;
    const double end_s = trace_->transfer_end_time(goal_kb, start_s);
    if (resume_kb > 0.0) outcome.resumes = 1;
    if (control.abort_enabled && control.check_interval_s > 0.0) {
      for (double t = start_s + control.check_interval_s; t < end_s;
           t += control.check_interval_s) {
        const double elapsed = t - start_s;
        if (elapsed < control.min_observation_s) continue;
        const double done_kb = trace_->kilobits_between(start_s, t);
        const double remaining_kb = goal_kb - done_kb;
        const double rate_kbps = done_kb / elapsed;
        const double cushion_s = std::max(0.0, control.buffer_s - elapsed);
        if (rate_kbps <= 0.0 ||
            remaining_kb / rate_kbps > cushion_s + control.max_stall_s) {
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

  void wait(double seconds) { now_s_ += seconds; }
  double now() const { return now_s_; }

 private:
  const ThroughputTrace* trace_;
  const media::VideoManifest* manifest_;
  double now_s_ = 0.0;
};

/// Whole sessions through TraceChunkSource and StatelessSource: plain
/// fetches, and controlled ones with the abort monitor on, resume credit
/// and truncation, with buffer-full waits between them.
TEST(TraceChunkSource, CursorMatchesStatelessSource) {
  const media::VideoManifest manifest = media::VideoManifest::envivio_default();
  std::vector<ThroughputTrace> traces;
  for (const DatasetKind kind :
       {DatasetKind::kFcc, DatasetKind::kHsdpa, DatasetKind::kMarkov}) {
    for (ThroughputTrace& trace : make_dataset(kind, 4, 320.0, 51)) {
      traces.push_back(std::move(trace));
    }
  }
  util::Rng rng(52);
  for (int i = 0; i < 12; ++i) traces.push_back(random_trace(rng, i % 2 == 1));

  const auto top_level = static_cast<std::int64_t>(manifest.level_count()) - 1;
  std::size_t aborts = 0;
  for (const ThroughputTrace& trace : traces) {
    for (const bool controlled : {false, true}) {
      sim::TraceChunkSource source(trace, manifest);
      StatelessSource reference(trace, manifest);
      double credit_kb = 0.0;
      for (std::size_t chunk = 0; chunk < manifest.chunk_count(); ++chunk) {
        const auto level =
            static_cast<std::size_t>(rng.uniform_int(0, top_level));
        sim::FetchOutcome got;
        sim::FetchOutcome want;
        if (controlled) {
          sim::FetchControl control;
          control.abort_enabled = true;
          control.buffer_s = rng.uniform(0.0, 12.0);
          control.resume_from_kilobits = credit_kb;
          if (rng.uniform() < 0.1) {
            control.truncate_after_fraction = rng.uniform(0.0, 1.0);
          }
          got = source.fetch_controlled(chunk, level, control);
          want = reference.fetch_controlled(chunk, level, control);
          credit_kb = got.aborted ? got.delivered_kilobits : 0.0;
          aborts += got.aborted ? 1 : 0;
        } else {
          got = source.fetch(chunk, level);
          want = reference.fetch(chunk, level);
        }
        ASSERT_EQ(bits_of(got.duration_s), bits_of(want.duration_s))
            << trace.name() << " chunk " << chunk;
        ASSERT_EQ(bits_of(got.kilobits), bits_of(want.kilobits));
        ASSERT_EQ(bits_of(got.delivered_kilobits),
                  bits_of(want.delivered_kilobits));
        ASSERT_EQ(got.aborted, want.aborted);
        ASSERT_EQ(got.resumes, want.resumes);
        ASSERT_EQ(bits_of(source.now()), bits_of(reference.now()));
        if (rng.uniform() < 0.3) {
          const double pause = rng.uniform(0.0, 4.0);
          source.wait(pause);
          reference.wait(pause);
        }
      }
    }
  }
  EXPECT_GT(aborts, 0u);  // the monitor's early exit was exercised
}

/// Property: the integral is additive over adjacent intervals.
TEST(ThroughputTrace, IntegralIsAdditive) {
  util::Rng rng(32);
  const ThroughputTrace trace(
      {{1.5, 120.0}, {2.5, 900.0}, {0.7, 3000.0}, {3.0, 50.0}});
  for (int trial = 0; trial < 200; ++trial) {
    double t0 = rng.uniform(0.0, 20.0);
    double t2 = rng.uniform(0.0, 20.0);
    if (t0 > t2) std::swap(t0, t2);
    const double t1 = rng.uniform(t0, t2);
    ASSERT_NEAR(trace.kilobits_between(t0, t2),
                trace.kilobits_between(t0, t1) + trace.kilobits_between(t1, t2),
                1e-6);
  }
}

TEST(ThroughputTrace, SampleAveragesIntervals) {
  const ThroughputTrace trace({{2.0, 100.0}, {2.0, 300.0}});
  const auto samples = trace.sample(2.0);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_DOUBLE_EQ(samples[0], 100.0);
  EXPECT_DOUBLE_EQ(samples[1], 300.0);
  const auto fine = trace.sample(1.0);
  ASSERT_EQ(fine.size(), 4u);
  EXPECT_DOUBLE_EQ(fine[2], 300.0);
}

TEST(ThroughputTrace, SampleHandlesPartialTail) {
  const ThroughputTrace trace({{3.0, 100.0}});
  const auto samples = trace.sample(2.0);
  ASSERT_EQ(samples.size(), 2u);  // [0,2) and [2,3)
  EXPECT_DOUBLE_EQ(samples[1], 100.0);
}

TEST(ThroughputTrace, MeanAndStddev) {
  const ThroughputTrace trace({{5.0, 100.0}, {5.0, 300.0}});
  EXPECT_DOUBLE_EQ(trace.mean_kbps(), 200.0);
  EXPECT_NEAR(trace.stddev_kbps(), 100.0, 1e-9);
}

TEST(ThroughputTrace, ScaledMultipliesRates) {
  const ThroughputTrace trace({{1.0, 100.0}, {1.0, 200.0}});
  const ThroughputTrace doubled = trace.scaled(2.0);
  EXPECT_DOUBLE_EQ(doubled.mean_kbps(), 300.0);
  EXPECT_DOUBLE_EQ(doubled.period_s(), trace.period_s());
  EXPECT_DOUBLE_EQ(doubled.rate_at(0.5), 200.0);
}

}  // namespace
}  // namespace abr::trace
