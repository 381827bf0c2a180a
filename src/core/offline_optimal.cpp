#include "core/offline_optimal.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <unordered_map>

namespace abr::core {

namespace {

/// Packs the dedup key: quantized time (24 bits is plenty at 0.25 s over
/// hours), quantized buffer, previous level, playing flag.
std::uint64_t pack_key(std::uint32_t tq, std::uint32_t bq, std::size_t level,
                       bool playing) {
  return (static_cast<std::uint64_t>(tq) << 32) |
         (static_cast<std::uint64_t>(bq) << 10) |
         (static_cast<std::uint64_t>(level) << 1) |
         static_cast<std::uint64_t>(playing);
}

}  // namespace

OfflineOptimalPlanner::OfflineOptimalPlanner(
    const media::VideoManifest& manifest, const qoe::QoeModel& qoe,
    const sim::SessionConfig& session, PlannerConfig config)
    : manifest_(&manifest), qoe_(&qoe), session_(session), config_(config) {
  sim::Playback{session_};  // rejects a session no player can run
  if (config_.beam_width == 0) {
    throw std::invalid_argument("PlannerConfig: zero beam width");
  }
  if (config_.continuous_relaxation) {
    if (config_.relaxation_levels < 2) {
      throw std::invalid_argument("PlannerConfig: need >= 2 relaxation levels");
    }
    if (manifest.level_count() >= 2) {
      ladder_ = media::VideoManifest::geometric_ladder(
          manifest.bitrates_kbps().front(), manifest.bitrates_kbps().back(),
          config_.relaxation_levels);
    } else {
      ladder_ = manifest.bitrates_kbps();
    }
  } else {
    ladder_ = manifest.bitrates_kbps();
  }
  ladder_quality_.reserve(ladder_.size());
  for (const double rate : ladder_) ladder_quality_.push_back(qoe.quality(rate));

  // Per-chunk VBR complexity factor relative to nominal CBR size.
  const double nominal0 =
      manifest.chunk_duration_s() * manifest.bitrates_kbps().front();
  complexity_.reserve(manifest.chunk_count());
  for (std::size_t k = 0; k < manifest.chunk_count(); ++k) {
    complexity_.push_back(manifest.chunk_kilobits(k, 0) / nominal0);
  }
}

double OfflineOptimalPlanner::chunk_kilobits(std::size_t chunk,
                                             std::size_t level) const {
  if (!config_.continuous_relaxation) {
    return manifest_->chunk_kilobits(chunk, level);
  }
  return manifest_->chunk_duration_s() * ladder_[level] * complexity_[chunk];
}

/// The session clock and the player after a plan's chunks so far, with the
/// plan's Eq. (5) value and its stall total, both summed in chunk order.
struct OfflineOptimalPlanner::Node {
  double t_s;
  sim::Playback playback;
  double value;
  double rebuffer_s;
  std::uint16_t level;  ///< the last chunk's
};

OfflineOptimalPlanner::Node OfflineOptimalPlanner::step(
    const trace::ThroughputTrace& trace, const Node& from, std::size_t chunk,
    std::size_t level) const {
  const qoe::QoeWeights& w = qoe_->weights();
  Node to = from;
  double rebuffer = to.playback.start_if_due(from.t_s);
  const double end_s =
      trace.transfer_end_time(chunk_kilobits(chunk, level), from.t_s);
  rebuffer += to.playback.download(end_s - from.t_s, end_s,
                                   manifest_->chunk_duration_s());
  const sim::ChunkWait wait = to.playback.wait(end_s);
  to.t_s = end_s + wait.idle_s + wait.drain_s;
  if (chunk + 1 == manifest_->chunk_count()) to.playback.finish();

  double value = from.value + ladder_quality_[level] - w.mu * rebuffer -
                 (rebuffer > 0.0 ? w.mu_event : 0.0);
  if (chunk > 0) {
    value -= w.lambda * std::abs(ladder_quality_[level] -
                                 ladder_quality_[from.level]);
  }
  // Charge the startup penalty the moment playback begins so the beam's
  // dedup compares complete values.
  if (session_.include_startup_in_qoe && !from.playback.playing() &&
      to.playback.playing()) {
    value -= w.mu_startup * to.playback.startup_delay_s();
  }
  to.value = value;
  to.rebuffer_s = from.rebuffer_s + rebuffer;
  to.level = static_cast<std::uint16_t>(level);
  return to;
}

PlanResult OfflineOptimalPlanner::plan(
    const trace::ThroughputTrace& trace) const {
  const std::size_t chunk_count = manifest_->chunk_count();
  const std::size_t levels = ladder_.size();

  struct State {
    Node node;
    std::uint32_t parent;  ///< index into the previous step's states
  };

  std::vector<std::vector<State>> steps;
  steps.reserve(chunk_count + 1);
  steps.push_back({State{Node{0.0, sim::Playback(session_), 0.0, 0.0, 0}, 0}});

  std::vector<State> next;
  std::unordered_map<std::uint64_t, std::size_t> dedup;

  for (std::size_t k = 0; k < chunk_count; ++k) {
    const std::vector<State>& current = steps.back();
    next.clear();
    dedup.clear();

    for (std::size_t si = 0; si < current.size(); ++si) {
      for (std::size_t level = 0; level < levels; ++level) {
        const State ns{step(trace, current[si].node, k, level),
                       static_cast<std::uint32_t>(si)};
        const std::uint64_t key = pack_key(
            static_cast<std::uint32_t>(ns.node.t_s / config_.time_quant_s),
            static_cast<std::uint32_t>(std::min(
                ns.node.playback.buffer_s() / config_.buffer_quant_s, 500.0)),
            level, ns.node.playback.playing());
        const auto [it, inserted] = dedup.try_emplace(key, next.size());
        if (inserted) {
          next.push_back(ns);
        } else if (ns.node.value > next[it->second].node.value) {
          next[it->second] = ns;
        }
      }
    }

    if (next.size() > config_.beam_width) {
      const auto cut =
          next.begin() + static_cast<std::ptrdiff_t>(config_.beam_width);
      std::nth_element(next.begin(), cut, next.end(),
                       [](const State& a, const State& b) {
                         return a.node.value > b.node.value;
                       });
      next.erase(cut, next.end());
    }
    steps.push_back(next);
  }

  // Best terminal state; walk parents back to recover the plan.
  const std::vector<State>& final_states = steps.back();
  assert(!final_states.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < final_states.size(); ++i) {
    if (final_states[i].node.value > final_states[best].node.value) best = i;
  }

  PlanResult result;
  result.bitrates_kbps.resize(chunk_count);
  std::size_t index = best;
  for (std::size_t k = chunk_count; k-- > 0;) {
    const State& s = steps[k + 1][index];
    result.bitrates_kbps[k] = ladder_[s.node.level];
    index = s.parent;
  }
  const Node& end = final_states[best].node;
  result.qoe = end.value;
  result.startup_delay_s = end.playback.startup_delay_s();
  result.total_rebuffer_s = end.rebuffer_s;
  return result;
}

PlanResult OfflineOptimalPlanner::plan_exhaustive(
    const trace::ThroughputTrace& trace) const {
  const std::size_t chunk_count = manifest_->chunk_count();
  const std::size_t levels = ladder_.size();
  const double space = std::pow(static_cast<double>(levels),
                                static_cast<double>(chunk_count));
  if (space > 1e7) {
    throw std::invalid_argument(
        "plan_exhaustive: search space too large; use plan()");
  }

  const Node start{0.0, sim::Playback(session_), 0.0, 0.0, 0};
  Node best = start;
  best.value = -std::numeric_limits<double>::infinity();
  std::vector<std::size_t> best_path;
  std::vector<std::size_t> path(chunk_count);

  auto search = [&](auto&& self, const Node& node, std::size_t k) -> void {
    if (k == chunk_count) {
      if (node.value > best.value) {
        best = node;
        best_path = path;
      }
      return;
    }
    for (std::size_t level = 0; level < levels; ++level) {
      path[k] = level;
      self(self, step(trace, node, k, level), k + 1);
    }
  };
  search(search, start, 0);

  PlanResult result;
  result.qoe = best.value;
  result.startup_delay_s = best.playback.startup_delay_s();
  result.total_rebuffer_s = best.rebuffer_s;
  result.bitrates_kbps.reserve(chunk_count);
  for (const std::size_t level : best_path) {
    result.bitrates_kbps.push_back(ladder_[level]);
  }
  return result;
}

double normalized_qoe(double qoe, double optimal_qoe) {
  if (optimal_qoe <= 0.0) return 0.0;
  return qoe / optimal_qoe;
}

}  // namespace abr::core
