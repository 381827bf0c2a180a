#include "testing/sharing_oracle.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <numeric>

namespace abr::testing {

std::vector<double> processor_sharing_reference(
    const trace::ThroughputTrace& link, std::span<const SharedFlow> flows) {
  constexpr double kNever = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> arrivals(flows.size());
  std::iota(arrivals.begin(), arrivals.end(), std::size_t{0});
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [&](std::size_t a, std::size_t b) {
                     return flows[a].arrival_s < flows[b].arrival_s;
                   });

  std::vector<double> left_kb(flows.size());
  std::vector<double> done_s(flows.size(), kNever);
  std::vector<std::size_t> active;
  std::size_t next = 0;
  double now = 0.0;
  while (next < arrivals.size() || !active.empty()) {
    double least_kb = kNever;
    double finish_s = kNever;
    if (!active.empty()) {
      for (const std::size_t i : active) {
        least_kb = std::min(least_kb, left_kb[i]);
      }
      finish_s = link.transfer_end_time(
          static_cast<double>(active.size()) * least_kb, now);
    }
    const double arrival_s =
        next < arrivals.size() ? flows[arrivals[next]].arrival_s : kNever;
    if (arrival_s < finish_s) {
      if (!active.empty()) {
        const double share_kb = link.kilobits_between(now, arrival_s) /
                                static_cast<double>(active.size());
        for (const std::size_t i : active) {
          left_kb[i] = std::max(0.0, left_kb[i] - share_kb);
        }
      }
      now = arrival_s;
      while (next < arrivals.size() &&
             flows[arrivals[next]].arrival_s == arrival_s) {
        left_kb[arrivals[next]] = flows[arrivals[next]].kilobits;
        active.push_back(arrivals[next++]);
      }
    } else {
      now = finish_s;
      std::erase_if(active, [&](std::size_t i) {
        left_kb[i] -= least_kb;
        if (left_kb[i] > 0.0) return false;
        done_s[i] = now;
        return true;
      });
    }
  }
  return done_s;
}

}  // namespace abr::testing
