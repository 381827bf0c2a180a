#include "testing/trace_oracle.hpp"

#include <cmath>
#include <vector>

namespace abr::testing {

double walk_transfer_end(const trace::ThroughputTrace& trace, double kb,
                         double start_s) {
  const std::vector<trace::TraceSegment>& segments = trace.segments();
  double seg_start =
      std::floor(start_s / trace.period_s()) * trace.period_s();
  std::size_t i = 0;
  while (seg_start + segments[i].duration_s <= start_s) {
    seg_start += segments[i].duration_s;
    i = (i + 1) % segments.size();
  }
  double at = start_s;
  double left = kb;
  while (true) {
    const trace::TraceSegment& seg = segments[i];
    const double seg_end = seg_start + seg.duration_s;
    const double available = (seg_end - at) * seg.rate_kbps;
    if (seg.rate_kbps > 0.0 && available >= left) {
      return at + left / seg.rate_kbps;
    }
    left -= available;
    at = seg_start = seg_end;
    i = (i + 1) % segments.size();
  }
}

}  // namespace abr::testing
