#pragma once

#include "core/horizon_solver.hpp"
#include "media/manifest.hpp"
#include "qoe/qoe.hpp"

namespace abr::testing {

/// The horizon problem's optimum by exhaustive enumeration (levels^N
/// sequences), with HorizonSolver's exact step arithmetic and its exact
/// tie-break: levels are tried from highest quality down and an incumbent
/// is replaced only by a strictly better sequence, so the first optimum in
/// that order wins, the same sequence branch-and-bound returns. Every
/// arithmetic expression mirrors HorizonSolver::solve term for term, so a
/// caller can demand `==` on levels and objective, not a tolerance. The
/// warm-start hint is ignored and nodes_expanded stays 0. Throws
/// std::invalid_argument on a forecast solve() rejects: one that is not
/// positive, that makes some rung's download time infinite, or whose
/// rebuffer penalty overflows (HorizonProblem::predicted_kbps).
core::HorizonSolution exhaustive_reference(const media::VideoManifest& manifest,
                                           const qoe::QoeModel& qoe,
                                           const core::HorizonProblem& problem);

}  // namespace abr::testing
