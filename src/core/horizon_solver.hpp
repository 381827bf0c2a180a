#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "media/manifest.hpp"
#include "obs/metrics.hpp"
#include "qoe/qoe.hpp"

namespace abr::core {

/// One instance of the moving-horizon problem QOE_MAX_STEADY (Fig. 3 of the
/// paper restricted to chunks [k, k+N-1]): given the buffer level, the
/// previously selected level, and a per-chunk throughput forecast, choose the
/// bitrate sequence maximizing the Eq. (5) objective over the horizon.
struct HorizonProblem {
  /// Buffer occupancy B_k at the decision point, seconds.
  double buffer_s = 0.0;

  /// Ladder index of the previous chunk. When !has_prev the smoothness term
  /// for the first horizon chunk is dropped (session start).
  std::size_t prev_level = 0;
  bool has_prev = false;

  /// Forecast throughput for each horizon chunk, kbps; its length defines
  /// the horizon N. Every entry must be > 0 and large enough that every
  /// rung's download time (chunk size over forecast) is finite, and that
  /// the horizon's worst steps -- the best |quality| and the largest switch
  /// penalty, plus mu_event and mu times the chunk's longest download --
  /// sum to a finite total: a denormal forecast overflows the first, one of
  /// ~1e-303 kbps the second, and solve() throws std::invalid_argument.
  std::span<const double> predicted_kbps;

  /// Index of the first horizon chunk in the manifest (for VBR sizes).
  /// Chunks past the end of the video are skipped (shorter tail horizon).
  std::size_t first_chunk = 0;

  /// Playout buffer capacity Bmax, seconds.
  double buffer_capacity_s = 30.0;

  /// Optional warm-start hint: a level sequence used to seed the
  /// branch-and-bound incumbent before the search starts. Seeding can only
  /// tighten pruning, never change the result: solve() returns a solution
  /// bit-identical (levels and objective) to the cold solve for any hint
  /// (see HorizonSolver). Shorter hints are padded with their last entry,
  /// longer hints truncated; entries must be < the manifest's level count.
  /// Natural hints: the previous chunk's solution shifted by one (online
  /// MPC), or the neighboring scenario's solution (FastMPC table sweep).
  std::span<const std::size_t> warm_hint;
};

/// Optimal levels for the horizon (levels[0] is the decision to apply), the
/// objective value achieved, and the search effort spent finding it.
struct HorizonSolution {
  std::vector<std::size_t> levels;
  double objective = 0.0;

  /// Number of branch-and-bound nodes expanded by this solve. Lives here —
  /// not on the solver — so that a solver shared across threads stays
  /// data-race free (each solve reports its own effort).
  std::size_t nodes_expanded = 0;
};

/// Exact solver for HorizonProblem.
///
/// Depth-first branch-and-bound over the |R|^N sequence space, levels tried
/// from highest quality down, with one exact pruning that leaves the result
/// optimal: a branch whose value plus an upper bound on the remaining
/// chunks cannot beat the incumbent is cut. The bound is the least of
/// three, each admissible:
///  - switch-aware: once a level with quality q is chosen, `rest` more
///    chunks whose best rung has quality m are worth at most
///    rest * m - lambda * (m - q)+ (reaching m from q costs at least that
///    much switching; rebuffering only subtracts), maximized over rungs m
///    and precomputed per (rest, level) per solver;
///  - throughput cap: the remaining chunks rebuffer at least
///    sum d - b' - (rest - 1) * L after a node whose buffer is b', which
///    caps their worth by a line in b' per depth, two lines set up per
///    solve (see solve());
///  - switch-aware cap line: on a CBR ladder under a flat forecast
///    C < mu * L every remaining chunk earns the same relaxed reward, so
///    the best relaxed path climbs once; one more line in b', its
///    level-dependent part precomputed per (rest, level) per solver.
/// The bound carries a relative float slack (1e-9 of the running value's
/// and the remaining steps' magnitudes), so it also holds for path values
/// summed step by step in floating point. At the last depth no bound is
/// needed: a leaf is kept exactly when it beats the incumbent. For the
/// paper's configuration (5 levels, N = 5) the raw space is 3125
/// sequences; with pruning the solver handles the Fig. 12b sweeps (N up to
/// 9) and flat forecasts on ladders of 10+ levels. It keeps no dominance
/// sets: one cuts only a prefix whose buffer and value are at most those of
/// a prefix expanded earlier at the same (depth, level), whose subtree
/// already holds a completion at least as good. They paid for themselves
/// only under per-chunk forecasts at N = 9 on 7+ rungs (cold solves,
/// geometric 350-3000 kbps ladders: 272 -> 340 us per solve on 7 rungs,
/// 0.88 -> 2.61 ms on 10, 1.92 -> 6.69 ms on 12 without them), a shape
/// that no workload, bench, test or tool runs.
///
/// Warm starting (HorizonProblem::warm_hint) seeds the incumbent with a
/// known level sequence. The incumbent is held *provisional* until the
/// search itself reaches a sequence at least as good: while provisional,
/// the bound prunes only strictly worse branches and a search solution that
/// ties the hint replaces it. This makes the returned solution — including
/// tie-breaking among equal optima (the first optimum in high-to-low
/// depth-first order) — bit-identical to a cold solve, while the hint's
/// value still prunes from the very first node. The invariant is pinned by
/// tests (random hints vs. exhaustive reference) and by the warm-vs-cold
/// FastMPC table equality check.
///
/// solve() is const and thread-safe: all per-solve scratch, including the
/// explicit per-depth search stack, lives in a Workspace. Reusing one
/// Workspace per thread across solves makes the hot path allocation-free in
/// steady state (buffers keep their high-water capacity).
class HorizonSolver {
 public:
  /// Reusable per-solve scratch: the flat per-(depth, level) array of
  /// precomputed download times, the per-depth cap lines, the search stack
  /// and the level sequences. A Workspace may be reused freely across
  /// solvers and problems; it must not be shared between concurrent solves.
  class Workspace {
   public:
    Workspace() = default;

   private:
    friend class HorizonSolver;

    /// One depth of the explicit search stack: the buffer and objective
    /// on entering the depth, and the next child (0 = highest level) to try.
    struct Frame {
      double buffer_s = 0.0;
      double value = 0.0;
      std::size_t next_child = 0;
    };

    /// Intercepts of the throughput cap's two lines in the post-append
    /// buffer (for t = t_low and t = 1; see solve()), and the per-solve
    /// intercept and slope of the switch-aware cap line, bounding what the
    /// chunks after a node at one depth can add; +inf where they cannot
    /// bind.
    struct CapLines {
      double low = 0.0;
      double high = 0.0;
      double line = 0.0;
      double line_slope = 0.0;
    };

    std::vector<double> download_s_;  ///< [depth * levels + level]
    std::vector<CapLines> cap_;       ///< [depth]
    std::vector<Frame> frames_;       ///< [depth]
    std::vector<std::size_t> best_levels_;
    std::vector<std::size_t> current_levels_;
    std::vector<std::size_t> hint_levels_;
  };

  /// The model and manifest must outlive the solver.
  HorizonSolver(const media::VideoManifest& manifest, const qoe::QoeModel& qoe);

  /// Solves with a solver-private temporary Workspace (allocates).
  HorizonSolution solve(const HorizonProblem& problem) const;

  /// Allocation-free in steady state: reuses `workspace` for all scratch.
  HorizonSolution solve(const HorizonProblem& problem,
                        Workspace& workspace) const;

 private:
  const media::VideoManifest* manifest_;
  const qoe::QoeModel* qoe_;

  /// Per-level q(R), the lambda-weighted |q_i - q_j| switching costs, and
  /// the admissible bound on the chunks after a choice, all pure functions
  /// of (manifest, qoe) — computed once here instead of per solve.
  std::vector<double> level_quality_;
  std::vector<double> switch_cost_;  ///< [level * levels + prev_level]
  /// [rest * levels + level]: max over rungs m of rest * q_m -
  /// lambda * (q_m - q_level)+, plus its float slack, for every rest below
  /// the manifest's chunk count (a horizon never exceeds it).
  std::vector<double> rest_bound_;
  /// [rest * levels + level]: max over rungs m of
  /// rest * (q_m - s * R_m) - lambda * |q_m - q_level| for s = 1 - lambda /
  /// rest and R_m a rung's chunk size over the chunk duration: the
  /// level-dependent part of the switch-aware cap line (see solve()). +inf
  /// where the line cannot apply: a VBR ladder, or lambda >= rest.
  std::vector<double> cap_line_;
  /// Largest |q| plus largest switching cost: the per-step magnitude that
  /// scales the bounds' float slack.
  double step_scale_ = 0.0;

  /// Search-effort distribution histogram, resolved at construction so the
  /// hot loop never runs a magic-static guard.
  obs::Histogram* nodes_histogram_;
};

}  // namespace abr::core
