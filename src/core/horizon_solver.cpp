#include "core/horizon_solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/names.hpp"

namespace abr::core {

namespace {

/// Relative float slack of the admissible bound (see the constructor).
constexpr double kBoundSlack = 1e-9;

}  // namespace

HorizonSolver::HorizonSolver(const media::VideoManifest& manifest,
                             const qoe::QoeModel& qoe)
    : manifest_(&manifest),
      qoe_(&qoe),
      nodes_histogram_(&obs::MetricsRegistry::global().histogram(
          obs::kHorizonNodesExpanded, "",
          obs::exponential_buckets(1.0, 2.0, 20))) {
  const std::size_t levels = manifest.level_count();
  const double lambda = qoe.weights().lambda;
  level_quality_.resize(levels);
  for (std::size_t level = 0; level < levels; ++level) {
    level_quality_[level] = qoe.quality(manifest.bitrate_kbps(level));
  }
  switch_cost_.resize(levels * levels);
  double max_switch = 0.0;
  for (std::size_t level = 0; level < levels; ++level) {
    step_scale_ = std::max(step_scale_, std::abs(level_quality_[level]));
    for (std::size_t prev = 0; prev < levels; ++prev) {
      const double cost =
          lambda * std::abs(level_quality_[level] - level_quality_[prev]);
      switch_cost_[level * levels + prev] = cost;
      max_switch = std::max(max_switch, cost);
    }
  }
  step_scale_ += max_switch;

  // Admissible bound on the `rest` chunks after choosing `level`. If m is
  // the best quality the remaining path plays, it earns at most rest * m
  // and switches at least lambda * (m - q_level)+ to climb there, and
  // rebuffering only subtracts; the bound is the maximum over rungs m.
  // Over the reals it is admissible. In floating point, summing `rest` more
  // steps onto a running value can land above the real sum by about
  // rest * 2^-53 times the magnitudes involved: the running value's (added
  // per node in solve()) and up to rest * step_scale_ from the steps. A
  // slack of 1e-9 of those magnitudes covers that for any horizon below
  // ~10^6 chunks.
  // Row 0 (no chunks left) stays 0 and is never read: the last depth takes
  // the exact leaf test instead.
  const std::size_t chunks = manifest.chunk_count();
  rest_bound_.assign(chunks * levels, 0.0);
  for (std::size_t rest = 1; rest < chunks; ++rest) {
    const double r = static_cast<double>(rest);
    const double slack = kBoundSlack * (r * step_scale_ + 1.0);
    for (std::size_t level = 0; level < levels; ++level) {
      double bound = -std::numeric_limits<double>::infinity();
      for (const double m : level_quality_) {
        bound = std::max(
            bound, r * m - lambda * std::max(0.0, m - level_quality_[level]));
      }
      rest_bound_[rest * levels + level] = bound + slack;
    }
  }

  // The level-dependent part of the switch-aware cap line (see solve()). On
  // a CBR ladder every chunk of a rung has one size S_m, so under a flat
  // forecast the `rest` chunks after `level` are worth at most
  //   max_m [rest * (q_m - s * R_m) - lambda * |q_m - q_level|]
  // plus a line in the buffer, for any s in [0, 1] (R_m = S_m / L). The
  // table keeps s = 1 - lambda / rest, the breakpoint of the convex bound
  // in s for the identity quality; it is +inf for a VBR ladder and where
  // lambda >= rest (s <= 0: the line is no better than rest_bound_).
  // Floats: solve() adds the slack, whose magnitudes cover these terms.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  bool cbr = true;
  for (std::size_t chunk = 1; chunk < chunks && cbr; ++chunk) {
    for (std::size_t level = 0; level < levels && cbr; ++level) {
      cbr = manifest.chunk_kilobits(chunk, level) ==
            manifest.chunk_kilobits(0, level);
    }
  }
  cap_line_.assign(chunks * levels, kInf);
  for (std::size_t rest = 1; rest < chunks && cbr; ++rest) {
    const double r = static_cast<double>(rest);
    const double s = 1.0 - lambda / r;
    if (!(s > 0.0)) continue;
    for (std::size_t level = 0; level < levels; ++level) {
      double bound = -kInf;
      for (std::size_t m = 0; m < levels; ++m) {
        const double rate =
            manifest.chunk_kilobits(0, m) / manifest.chunk_duration_s();
        const double climb = r * (level_quality_[m] - s * rate) -
                             switch_cost_[m * levels + level];
        bound = std::max(bound, climb);
      }
      cap_line_[rest * levels + level] = bound;
    }
  }
}

HorizonSolution HorizonSolver::solve(const HorizonProblem& problem) const {
  Workspace workspace;
  return solve(problem, workspace);
}

HorizonSolution HorizonSolver::solve(const HorizonProblem& problem,
                                     Workspace& ws) const {
  const media::VideoManifest& manifest = *manifest_;
  const qoe::QoeWeights& w = qoe_->weights();
  const std::size_t levels = manifest.level_count();
  const double chunk_duration = manifest.chunk_duration_s();

  if (problem.first_chunk >= manifest.chunk_count()) {
    throw std::invalid_argument("HorizonProblem: first_chunk out of range");
  }
  const std::size_t horizon =
      std::min(problem.predicted_kbps.size(),
               manifest.chunk_count() - problem.first_chunk);
  if (horizon == 0) {
    throw std::invalid_argument("HorizonProblem: empty horizon");
  }
  for (std::size_t i = 0; i < horizon; ++i) {
    if (!(problem.predicted_kbps[i] > 0.0)) {
      throw std::invalid_argument("HorizonProblem: non-positive forecast");
    }
  }
  const std::size_t last = horizon - 1;

  // --- Workspace preparation (no allocation once at high-water capacity) --
  // Throughput cap on the r = last - depth chunks after a node at `depth`
  // whose post-append buffer is b'. Their rebuffering totals at least
  // sum d_j - b' - (r - 1) * L: each step's buffer after the append is at
  // most its unclamped value, so rebuffer_j >= b_j - b_{j-1} + d_j - L, and
  // the last step contributes d_r - b_{r-1}; the sum telescopes, whatever
  // the Bmax clamp does. Rebuffering is also >= 0, so for any t in [0, 1]
  // the chunks are worth at most
  //   sum_j max_m (q_m - mu * t * d_{j,m}) + mu * t * (b' + (r - 1) * L)
  // (switching and mu_event only subtract). That is a line in b' per depth;
  // two of them are kept, for t = 1 and for t_low = C_0 / (mu * L) capped at
  // 1, where C_0 is the first forecast: for a CBR ladder under the identity
  // quality and a flat forecast every q_m - mu * t * d_m vanishes at t_low.
  // With mu = 0 the cap is sum max q, never below rest_bound_, so its lines
  // stay +inf.
  // The switch-aware cap line keeps the switching. On a CBR ladder under a
  // flat forecast C < mu * L, t = s * C / (mu * L) lies in [0, 1] for every
  // s in [0, 1] and turns mu * t * d_{j,m} into s * R_m for every chunk, so
  // each chunk earns the same relaxed reward and the best relaxed path
  // climbs once: the chunks are worth at most cap_line_[r][level] +
  // s * (C / L) * (b' + (r - 1) * L), with s = 1 - lambda / r.
  // The float slack is 1e-9 of every magnitude a remaining step can round:
  // the rest_bound_ terms, mu_event, mu times the chunk's longest download
  // (rebuffering) and mu times the buffer, which is below b' + r * L. A
  // buffer's rounding carries into every later rebuffer, so the error
  // grows like r^2 * 2^-53 of those magnitudes: covered below ~10^3 chunks.
  // The line's own terms are smaller than these (R_m < mu * d_m and
  // C / L < mu where it applies), so it takes the same slack.
  const bool capped = w.mu > 0.0;
  const double first_forecast = problem.predicted_kbps[0];
  const double t_low =
      capped ? std::min(1.0, first_forecast / (w.mu * chunk_duration)) : 0.0;
  // The cap line's per-solve conditions; a VBR ladder and lambda >= r
  // leave cap_line_ at +inf instead.
  bool line_applies = first_forecast < w.mu * chunk_duration;
  for (std::size_t i = 1; i < horizon && line_applies; ++i) {
    line_applies = problem.predicted_kbps[i] == first_forecast;
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ws.download_s_.resize(horizon * levels);
  ws.cap_.assign(horizon, Workspace::CapLines{kInf, kInf, kInf, 0.0});
  double chunk_slack = 0.0;
  // Each chunk's step is at most step_scale_ + mu_event + mu * its longest
  // download in magnitude; while these sum to a finite total, so does every
  // plan's objective.
  double worst_total = 0.0;
  for (std::size_t depth = 0; depth < horizon; ++depth) {
    const std::size_t chunk = problem.first_chunk + depth;
    const double forecast = problem.predicted_kbps[depth];
    double best_low = -kInf;
    double best_high = -kInf;
    double longest = 0.0;
    for (std::size_t level = 0; level < levels; ++level) {
      const double download_s =
          manifest.chunk_kilobits(chunk, level) / forecast;
      if (!std::isfinite(download_s)) {
        throw std::invalid_argument(
            "HorizonProblem: forecast makes a download time infinite");
      }
      ws.download_s_[depth * levels + level] = download_s;
      longest = std::max(longest, download_s);
      if (capped) {
        const double q = level_quality_[level];
        best_low = std::max(best_low, q - w.mu * t_low * download_s);
        best_high = std::max(best_high, q - w.mu * download_s);
      }
    }
    const double worst_step = step_scale_ + w.mu_event + w.mu * longest;
    worst_total += worst_step;
    if (capped) {
      // Under a flat forecast on a CBR ladder every chunk's slack is equal.
      chunk_slack = kBoundSlack * worst_step;
      const double low = best_low + chunk_slack;
      const double high = best_high + chunk_slack;
      // A chunk whose terms overflow leaves the cap at +inf for every depth
      // before it (the switch-aware bound still applies).
      if (std::isfinite(low) && std::isfinite(high)) {
        ws.cap_[depth] = Workspace::CapLines{low, high, kInf, 0.0};
      }
    }
  }
  if (!std::isfinite(worst_total)) {
    throw std::invalid_argument(
        "HorizonProblem: forecast makes the rebuffer penalty overflow");
  }
  // Suffix sums turn cap_[depth] into the intercepts for the chunks after
  // `depth`; cap_[last] is never read (the leaves take the exact test).
  double slope_low = 0.0;
  double slope_high = 0.0;
  if (capped) {
    Workspace::CapLines sum{0.0, 0.0, 0.0, 0.0};
    Workspace::CapLines next_chunk = ws.cap_[last];
    for (std::size_t depth = last; depth-- > 0;) {
      sum.low += next_chunk.low;
      sum.high += next_chunk.high;
      next_chunk = ws.cap_[depth];
      const double rest = static_cast<double>(last - depth);
      const double reach = (rest - 1.0) * chunk_duration;
      const double slack = kBoundSlack * (w.mu * rest * chunk_duration + 1.0);
      Workspace::CapLines& cap = ws.cap_[depth];
      cap.low = sum.low + w.mu * t_low * reach + slack;
      cap.high = sum.high + w.mu * reach + slack;
      if (line_applies) {
        const double rate = (1.0 - w.lambda / rest) * first_forecast /
                            chunk_duration;
        cap.line = rate * reach + rest * chunk_slack + slack;
        cap.line_slope = rate + w.mu * kBoundSlack;
      }
    }
    slope_low = w.mu * (t_low + kBoundSlack);
    slope_high = w.mu * (1.0 + kBoundSlack);
  }
  ws.frames_.resize(horizon);
  ws.current_levels_.resize(horizon);
  ws.best_levels_.clear();

  // One chunk's Eq. (5) term. The hint, the inner nodes and the leaves all
  // evaluate this one expression, so equal paths sum to equal doubles.
  const auto step_value = [&](std::size_t level, double rebuffer,
                              std::size_t prev_level, bool has_prev) {
    double value = level_quality_[level] - w.mu * rebuffer -
                   (rebuffer > 0.0 ? w.mu_event : 0.0);
    if (has_prev) value -= switch_cost_[level * levels + prev_level];
    return value;
  };

  std::size_t nodes_expanded = 0;
  double best_value = -std::numeric_limits<double>::infinity();
  // While false, the incumbent is only a bound (the warm-start hint): the
  // search prunes strictly-worse branches only and accepts ties, so the
  // first search-reached optimum — identical to the cold solve's — always
  // replaces the hint. This keeps warm-started results bit-identical.
  bool search_found = false;

  // --- Warm start: evaluate the hint with the exact step recurrence ------
  if (!problem.warm_hint.empty()) {
    ws.hint_levels_.resize(horizon);
    for (std::size_t depth = 0; depth < horizon; ++depth) {
      const std::size_t level = depth < problem.warm_hint.size()
                                    ? problem.warm_hint[depth]
                                    : ws.hint_levels_[depth - 1];
      if (level >= levels) {
        throw std::invalid_argument("HorizonProblem: warm_hint level range");
      }
      ws.hint_levels_[depth] = level;
    }
    double value = 0.0;
    double buffer = problem.buffer_s;
    std::size_t prev_level = problem.prev_level;
    bool has_prev = problem.has_prev;
    for (std::size_t depth = 0; depth < horizon; ++depth) {
      const std::size_t level = ws.hint_levels_[depth];
      const double download_s = ws.download_s_[depth * levels + level];
      const double rebuffer = std::max(0.0, download_s - buffer);
      buffer = std::min(std::max(buffer - download_s, 0.0) + chunk_duration,
                        problem.buffer_capacity_s);
      value = value + step_value(level, rebuffer, prev_level, has_prev);
      prev_level = level;
      has_prev = true;
    }
    best_value = value;
    ws.best_levels_.assign(ws.hint_levels_.begin(), ws.hint_levels_.end());
  }

  // --- Depth-first search over an explicit stack --------------------------
  // frames_[depth] is the node being expanded at `depth`; the level chosen
  // above it is current_levels_[depth - 1]. Children are tried from the
  // highest level down so the first incumbent is strong and the bound
  // prunes aggressively; nodes_expanded counts every child evaluated.
  ws.frames_[0] = Workspace::Frame{problem.buffer_s, 0.0, 0};
  std::size_t depth = 0;
  for (;;) {
    Workspace::Frame& frame = ws.frames_[depth];
    const std::size_t prev_level =
        depth == 0 ? problem.prev_level : ws.current_levels_[depth - 1];
    const bool has_prev = depth > 0 || problem.has_prev;
    const double* downloads = &ws.download_s_[depth * levels];

    if (depth == last) {
      // Leaves. With no chunks left the bound test is the acceptance test
      // itself: a leaf is kept exactly when it beats the incumbent (or ties
      // the provisional hint), and then becomes the incumbent.
      for (std::size_t i = 0; i < levels; ++i) {
        const std::size_t level = levels - 1 - i;
        const double rebuffer =
            std::max(0.0, downloads[level] - frame.buffer_s);
        const double value =
            frame.value + step_value(level, rebuffer, prev_level, has_prev);
        if (value > best_value || (!search_found && value == best_value)) {
          best_value = value;
          ws.current_levels_[last] = level;
          ws.best_levels_.assign(ws.current_levels_.begin(),
                                 ws.current_levels_.begin() +
                                     static_cast<std::ptrdiff_t>(horizon));
          search_found = true;
        }
      }
      nodes_expanded += levels;
    } else {
      const double* bounds = &rest_bound_[(last - depth) * levels];
      const double* lines = &cap_line_[(last - depth) * levels];
      const Workspace::CapLines cap = ws.cap_[depth];
      bool descended = false;
      while (frame.next_child < levels) {
        const std::size_t level = levels - 1 - frame.next_child++;
        ++nodes_expanded;

        const double download_s = downloads[level];
        const double rebuffer = std::max(0.0, download_s - frame.buffer_s);
        const double next_buffer = std::min(
            std::max(frame.buffer_s - download_s, 0.0) + chunk_duration,
            problem.buffer_capacity_s);

        const double next_value =
            frame.value + step_value(level, rebuffer, prev_level, has_prev);

        // Admissible bound: the switch-aware one, the throughput cap or the
        // switch-aware cap line, whichever is tightest (its slack grows with
        // the running value, whose rounding the remaining additions
        // inherit). While the incumbent is the provisional hint, branches
        // that could *tie* it survive so tie-breaking matches the cold solve
        // exactly.
        const double remaining =
            std::min({bounds[level], cap.low + slope_low * next_buffer,
                      cap.high + slope_high * next_buffer,
                      lines[level] + cap.line + cap.line_slope * next_buffer});
        const double optimistic =
            next_value + kBoundSlack * std::abs(next_value) + remaining;
        if (search_found ? optimistic <= best_value
                         : optimistic < best_value) {
          continue;
        }

        ws.current_levels_[depth] = level;
        ws.frames_[depth + 1] = Workspace::Frame{next_buffer, next_value, 0};
        descended = true;
        break;
      }
      if (descended) {
        ++depth;
        continue;
      }
    }
    if (depth == 0) break;
    --depth;
  }

  assert(!ws.best_levels_.empty());

  // Search-effort distribution (how well the prunings work per instance).
  nodes_histogram_->observe(static_cast<double>(nodes_expanded));

  HorizonSolution solution;
  solution.levels.assign(ws.best_levels_.begin(), ws.best_levels_.end());
  solution.objective = best_value;
  solution.nodes_expanded = nodes_expanded;
  return solution;
}

}  // namespace abr::core
