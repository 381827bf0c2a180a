// Fuzzes trace::from_csv on hostile bytes. Rejection must be a clean
// std::invalid_argument; an accepted trace must satisfy the ThroughputTrace
// class invariants (positive finite period, monotone kilobit integral,
// non-zero period capacity) and survive a to_csv -> from_csv round trip
// segment for segment.
//
// Every accepted trace then replays a monotone walk derived from the input
// (transfers and pauses) through a cursor, and each cursor answer must equal
// the stateless call's bit for bit and never end before its start. On a
// trace of small integers every boundary is exact, and each transfer must
// end at the earliest instant a segment-by-segment walk finds: never after
// an outage it fills up before.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "fuzz_input.hpp"
#include "testing/trace_oracle.hpp"
#include "trace/throughput_trace.hpp"
#include "trace/trace_io.hpp"
#include "util/rng.hpp"

using abr::testing::bits_of;
using abr::testing::walk_transfer_end;
using abr::trace::ThroughputTrace;
using abr::trace::TraceSegment;

namespace {

/// Durations and rates that are small integers: prefix sums, boundaries and
/// whole-kilobit transfers from whole seconds are all exact.
bool integral(const ThroughputTrace& trace) {
  if (trace.segments().size() > 4096) return false;
  return std::all_of(trace.segments().begin(), trace.segments().end(),
                     [](const TraceSegment& seg) {
                       return seg.duration_s == std::floor(seg.duration_s) &&
                              seg.duration_s <= 1e4 &&
                              seg.rate_kbps == std::floor(seg.rate_kbps) &&
                              seg.rate_kbps <= 1e6;
                     });
}

/// Start of the first segment boundary after `t` (the next period's start
/// when none is left in this one).
double next_boundary(const ThroughputTrace& trace, double t) {
  const double cycle = std::floor(t / trace.period_s()) * trace.period_s();
  double start = 0.0;
  for (const TraceSegment& seg : trace.segments()) {
    if (cycle + start > t) return cycle + start;
    start += seg.duration_s;
  }
  return cycle + trace.period_s();
}

/// FNV-1a: the walk is a pure function of the input bytes.
std::uint64_t hash_bytes(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h = (h ^ data[i]) * 0x100000001b3ULL;
  }
  return h;
}

void walk_with_cursor(const ThroughputTrace& trace, std::uint64_t seed) {
  const double period = trace.period_s();
  const double capacity = trace.kilobits_between(0.0, period);
  const bool exact = integral(trace);
  abr::util::Rng rng(seed);
  std::size_t cursor = 0;
  double t = 0.0;
  for (int step = 0; step < 48 && std::isfinite(t); ++step) {
    // A whole number of periods' capacity, exactly what the link delivers
    // up to a boundary ahead, or an arbitrary size.
    double kb = 0.0;
    switch (rng.uniform_int(0, 2)) {
      case 0:
        kb = capacity * static_cast<double>(rng.uniform_int(1, 3));
        break;
      case 1: {
        double boundary = next_boundary(trace, t);
        for (std::int64_t k = rng.uniform_int(0, 3); k > 0; --k) {
          boundary = next_boundary(trace, boundary);
        }
        // A boundary past DBL_MAX is no instant to fill up to.
        kb = std::isfinite(boundary) ? trace.kilobits_between(t, boundary)
                                     : 0.0;
        break;
      }
      default:
        kb = exact ? std::ceil(rng.uniform(0.0, 2.0) * capacity)
                   : rng.uniform(0.0, 2.0) * capacity;
        break;
    }
    if (!(kb > 0.0)) continue;

    const double end = trace.transfer_end_time(kb, t, cursor);
    ABR_FUZZ_REQUIRE(bits_of(end) == bits_of(trace.transfer_end_time(kb, t)));
    if (!std::isfinite(end)) return;
    ABR_FUZZ_REQUIRE(end >= t);
    if (exact) {
      const double walked = walk_transfer_end(trace, kb, t);
      ABR_FUZZ_REQUIRE(std::abs(end - walked) <= 1e-9 * std::max(1.0, end));
    }

    t = end;
    if (rng.uniform() < 0.5) t += rng.uniform(0.0, 0.3) * period;
    if (exact) t = std::ceil(t);
  }

  // One query behind the live cursor.
  const double back = exact ? std::floor(t / 2.0) : t / 2.0;
  if (!std::isfinite(back)) return;
  std::size_t stale = cursor;
  ABR_FUZZ_REQUIRE(bits_of(trace.transfer_end_time(capacity, back, stale)) ==
                   bits_of(trace.transfer_end_time(capacity, back)));
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);

  ThroughputTrace trace;
  try {
    trace = abr::trace::from_csv(text, "fuzz");
  } catch (const std::invalid_argument&) {
    return 0;  // malformed input: the expected rejection path
  }

  ABR_FUZZ_REQUIRE(trace.period_s() > 0.0);
  ABR_FUZZ_REQUIRE(std::isfinite(trace.period_s()));
  double duration_sum = 0.0;
  for (const TraceSegment& seg : trace.segments()) {
    ABR_FUZZ_REQUIRE(seg.duration_s > 0.0);
    ABR_FUZZ_REQUIRE(seg.rate_kbps >= 0.0);
    duration_sum += seg.duration_s;
  }
  ABR_FUZZ_REQUIRE(std::abs(duration_sum - trace.period_s()) <=
                   1e-9 * static_cast<double>(trace.segments().size() + 1));

  // The kilobit integral is monotone and one full period delivers a
  // positive amount (otherwise transfers could never finish).
  const double period = trace.period_s();
  ABR_FUZZ_REQUIRE(trace.kilobits_between(0.0, period) > 0.0);
  double prev = 0.0;
  for (int i = 1; i <= 4; ++i) {
    // Scale the fraction, not the product: period * i overflows to inf
    // for a period above DBL_MAX / 4.
    const double t = period * (static_cast<double>(i) / 4.0);
    const double kb = trace.kilobits_between(0.0, t);
    ABR_FUZZ_REQUIRE(kb >= prev);
    prev = kb;
  }

  // Round trip through the writer re-parses to the same segments.
  const ThroughputTrace again = abr::trace::from_csv(abr::trace::to_csv(trace));
  ABR_FUZZ_REQUIRE(again.segments() == trace.segments());

  walk_with_cursor(trace, hash_bytes(data, size));
  return 0;
}
