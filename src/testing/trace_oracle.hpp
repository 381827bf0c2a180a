#pragma once

#include <bit>
#include <cstdint>

#include "trace/throughput_trace.hpp"

namespace abr::testing {

/// The bit pattern of a double: two results are the same double exactly
/// when their patterns are equal, and a failed comparison prints both.
inline std::uint64_t bits_of(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

/// When a transfer of `kb` > 0 kilobits starting at `start_s` completes,
/// found by walking the trace's segments one at a time: the first instant
/// at which the running total reaches `kb`. The reference for
/// ThroughputTrace::transfer_end_time's earliest-arrival contract; on a
/// trace of small integers every boundary it crosses is exact.
double walk_transfer_end(const trace::ThroughputTrace& trace, double kb,
                         double start_s);

}  // namespace abr::testing
