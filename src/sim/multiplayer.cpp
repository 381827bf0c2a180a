#include "sim/multiplayer.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/trace_event.hpp"

namespace abr::sim {

double jain_index(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq == 0.0) return 0.0;
  return sum * sum / (static_cast<double>(values.size()) * sum_sq);
}

namespace {

/// (key, player): a download's finish tag on the service clock, or the
/// fleet time of a join or buffer-full wake. Ties pop in ascending player
/// index.
using Event = std::pair<double, std::uint32_t>;
using MinHeap =
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>;

}  // namespace

MultiPlayerResult simulate_shared_link(
    const trace::ThroughputTrace& link, const media::VideoManifest& manifest,
    const qoe::QoeModel& qoe, const MultiPlayerConfig& config,
    std::span<BitrateController* const> controllers,
    std::span<predict::ThroughputPredictor* const> predictors) {
  if (controllers.empty() || controllers.size() != predictors.size()) {
    throw std::invalid_argument(
        "simulate_shared_link: need one controller and predictor per player");
  }
  if (config.session.startup_policy == StartupPolicy::kFixedDelay) {
    throw std::invalid_argument(
        "simulate_shared_link: fixed-delay startup is not supported");
  }

  const std::size_t n = controllers.size();
  const auto join_s = [&config](std::size_t i) {
    return static_cast<double>(i) * config.startup_stagger_s;
  };
  std::vector<PlayerKernel> players;
  players.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    players.emplace_back(manifest, qoe, config.session, *controllers[i],
                         *predictors[i]);
    players.back().seat_in_fleet(i, join_s(i), config.fleet);
  }
  obs::TraceWriter* tracer = config.session.trace_writer;
  if (tracer != nullptr && tracer->enabled()) {
    for (std::size_t i = 0; i < n; ++i) {
      tracer->set_thread_name("player " + std::to_string(i),
                              static_cast<int>(i));
    }
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Gauge& active_gauge = registry.gauge(obs::kFleetSessionsActive);

  // Egalitarian processor sharing on one per-flow service clock
  // V(t) = integral of C(t) / n(t): a download of S kilobits that starts at
  // t0 ends when V reaches its finish tag V(t0) + S, so the smallest tag
  // always finishes next, after n * (tag - V) more kilobits of the link. V
  // restarts at 0 whenever the link goes idle; a lone player then starts
  // every download at V = 0 and ends it at the instant TraceChunkSource
  // would, bit for bit.
  MinHeap downloads;                 // (finish tag, player)
  MinHeap wakes;                     // (fleet time, player)
  std::vector<double> started_s(n);  // fleet time the open download began
  for (std::size_t i = 0; i < n; ++i) {
    wakes.emplace(join_s(i), static_cast<std::uint32_t>(i));
  }
  double now = 0.0;
  double service = 0.0;  // V(now)
  std::size_t cursor = 0;
  double delivered_kb = 0.0;
  double last_end_s = 0.0;
  MultiPlayerResult result;
  result.players.resize(n);

  const auto start_download = [&](std::uint32_t i) {
    // The fair share is not the raw trace, so predictors get no truth.
    players[i].begin(now - join_s(i), nullptr);
    started_s[i] = now;
    downloads.emplace(service + players[i].open_record().size_kilobits, i);
  };
  const auto next_finish = [&] {
    const double share_kb = downloads.top().first - service;
    return link.transfer_end_time(
        static_cast<double>(downloads.size()) * share_kb, now, cursor);
  };

  // One batch per instant: completions come before wakes at the same
  // instant, and each batch runs in ascending player index.
  std::vector<std::uint32_t> batch;
  while (!downloads.empty() || !wakes.empty()) {
    const double finish_at = downloads.empty()
                                 ? std::numeric_limits<double>::infinity()
                                 : next_finish();
    batch.clear();
    if (!wakes.empty() && wakes.top().first < finish_at) {
      const double t = wakes.top().first;
      if (!downloads.empty()) {
        const double active = static_cast<double>(downloads.size());
        service = std::min(service + link.kilobits_between(now, t) / active,
                           downloads.top().first);
      }
      now = t;
      while (!wakes.empty() && wakes.top().first == t) {
        batch.push_back(wakes.top().second);
        wakes.pop();
      }
      for (const std::uint32_t i : batch) start_download(i);
    } else {
      now = finish_at;
      do {
        service = downloads.top().first;
        batch.push_back(downloads.top().second);
        downloads.pop();
      } while (!downloads.empty() && next_finish() == now);
      if (downloads.empty()) service = 0.0;
      std::sort(batch.begin(), batch.end());
      for (const std::uint32_t i : batch) {
        PlayerKernel& player = players[i];
        FetchOutcome outcome;
        outcome.duration_s = now - started_s[i];
        outcome.kilobits = player.open_record().size_kilobits;
        delivered_kb += outcome.kilobits;
        const double end_s = now - join_s(i);
        const ChunkWait wait = player.complete(outcome, end_s);
        if (player.done()) {
          result.players[i] = player.finish(end_s + wait.drain_s);
        } else if (wait.drain_s > 0.0) {
          wakes.emplace(now + wait.drain_s, i);
        } else {
          start_download(i);
        }
      }
      last_end_s = now;
    }
    active_gauge.set(static_cast<double>(downloads.size()));
    if (config.fleet != nullptr && !downloads.empty()) {
      config.fleet->note_active(now, downloads.size());
    }
  }

  std::vector<double> average_bitrates;
  average_bitrates.reserve(n);
  for (const SessionResult& player : result.players) {
    average_bitrates.push_back(player.average_bitrate_kbps);
  }
  result.jain_fairness = jain_index(average_bitrates);
  const double offered_kb = link.kilobits_between(0.0, last_end_s);
  result.link_utilization = offered_kb > 0.0 ? delivered_kb / offered_kb : 0.0;
  registry.gauge(obs::kMultiplayerJainFairness).set(result.jain_fairness);
  registry.gauge(obs::kMultiplayerLinkUtilization)
      .set(result.link_utilization);
  return result;
}

}  // namespace abr::sim
