#pragma once

#include <span>
#include <vector>

#include "trace/throughput_trace.hpp"

namespace abr::testing {

/// One transfer over a shared link: it arrives at `arrival_s` with
/// `kilobits` to move.
struct SharedFlow {
  double arrival_s = 0.0;
  double kilobits = 0.0;
};

/// When each flow completes under egalitarian processor sharing of `link`,
/// simulated naively: at every arrival and every completion, each active
/// flow's remaining kilobits drop by its equal share of what the link
/// carried since the previous event. O(active) per event, with no service
/// clock and no heap — the reference for sim::simulate_shared_link's event
/// engine. A flow arriving at the instant another completes joins after the
/// completion. Returns the completion times in `flows` order.
std::vector<double> processor_sharing_reference(
    const trace::ThroughputTrace& link, std::span<const SharedFlow> flows);

}  // namespace abr::testing
