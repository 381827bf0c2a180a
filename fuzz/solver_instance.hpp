// Shared structure-aware decoder for the solver-oracle fuzzers: turns an
// arbitrary byte string into a small but valid (manifest, QoE model,
// HorizonProblem) triple. Every byte string decodes successfully — exhausted
// input reads as zeros — so libFuzzer's mutations always land on the solver,
// never on input validation.

#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/horizon_solver.hpp"
#include "fuzz_input.hpp"
#include "media/manifest.hpp"
#include "media/quality.hpp"
#include "qoe/qoe.hpp"

namespace abr::fuzz {

/// Owns the storage the HorizonProblem spans point into. Must stay put after
/// decode (no copies/moves), so decode fills a caller-provided instance.
struct SolverInstance {
  abr::media::VideoManifest manifest;
  abr::qoe::QoeModel model{abr::media::QualityFunction::identity(),
                           abr::qoe::QoeWeights{}};
  std::vector<double> forecast;
  std::vector<std::size_t> hint;
  abr::core::HorizonProblem problem;
};

/// Decodes bytes into `out`. Ranges are chosen so branch-and-bound and
/// exhaustive enumeration (at most 5^5 = 3125 plans) both stay fast
/// (<~1ms per solve): ladders of 2-5 levels, horizons of 1-5 chunks, short
/// videos of 1-8 chunks, CBR or VBR sizes, buffer capacities of 5-30 s or
/// of at most one chunk duration, independent or flat forecasts, and four
/// quality families.
inline void decode_solver_instance(FuzzInput& in, SolverInstance& out) {
  const std::size_t levels = in.uniform_size(2, 5);
  std::vector<double> ladder;
  double rate = in.uniform_double(100.0, 1000.0);
  for (std::size_t i = 0; i < levels; ++i) {
    ladder.push_back(rate);
    rate += in.uniform_double(50.0, 2000.0);  // strictly ascending
  }
  const std::size_t chunks = in.uniform_size(1, 8);
  const double chunk_duration_s = in.boolean() ? 2.0 : 4.0;
  out.manifest = abr::media::VideoManifest::cbr(chunks, chunk_duration_s,
                                                std::move(ladder), "fuzz");

  abr::qoe::QoeWeights weights;
  weights.lambda = in.uniform_double(0.0, 4.0);
  weights.mu = in.uniform_double(0.0, 8000.0);
  weights.mu_startup = weights.mu;
  weights.mu_event = in.boolean() ? in.uniform_double(0.0, 2000.0) : 0.0;
  out.model = abr::qoe::QoeModel(abr::media::QualityFunction::identity(),
                                 weights);

  out.problem = abr::core::HorizonProblem{};
  out.problem.buffer_capacity_s = in.uniform_double(5.0, 30.0);
  out.problem.buffer_s = in.uniform_double(0.0, out.problem.buffer_capacity_s);
  out.problem.has_prev = in.boolean();
  out.problem.prev_level = in.uniform_size(0, levels - 1);
  out.problem.first_chunk = in.uniform_size(0, chunks - 1);

  const std::size_t horizon = in.uniform_size(1, 5);
  out.forecast.clear();
  for (std::size_t i = 0; i < horizon; ++i) {
    out.forecast.push_back(in.uniform_double(10.0, 10000.0));
  }
  out.problem.predicted_kbps = out.forecast;

  out.hint.clear();
  if (in.boolean()) {
    const std::size_t hint_len = in.uniform_size(1, horizon);
    for (std::size_t i = 0; i < hint_len; ++i) {
      out.hint.push_back(in.uniform_size(0, levels - 1));
    }
    out.problem.warm_hint = out.hint;
  }

  // Shapes added after the first corpus, read after every choice above so
  // that zeros keep the instance above. The gate is an integer choice like
  // the others (eight bytes); it reads 0 on every committed seed, so they
  // decode as before.
  if (in.uniform_size(0, 1) == 1) {
    if (in.boolean()) {
      // VBR: every (chunk, level) size scaled on its own, so a chunk's
      // largest download need not be its top rung's.
      std::vector<double> ladder = out.manifest.bitrates_kbps();
      std::vector<std::vector<double>> sizes(chunks);
      for (std::vector<double>& row : sizes) {
        for (const double kbps : ladder) {
          row.push_back(chunk_duration_s * kbps * in.uniform_double(0.25, 4.0));
        }
      }
      out.manifest = abr::media::VideoManifest::from_sizes(
          chunk_duration_s, std::move(ladder), std::move(sizes), "fuzz-vbr");
    }
    if (in.boolean()) {
      // A buffer capacity of at most one chunk duration: the Bmax clamp
      // binds after every append.
      out.problem.buffer_capacity_s =
          chunk_duration_s * in.uniform_double(0.05, 1.0);
      out.problem.buffer_s =
          in.uniform_double(0.0, out.problem.buffer_capacity_s);
    }
  }

  // Two more choices, read after every one above so that zeros keep the
  // instance above. A flat forecast is what RobustMPC and MPC solve (and
  // where the solver's switch-aware cap line applies); without it a flat
  // run over 2+ chunks appears only once the input runs out.
  if (in.boolean()) {
    std::fill(out.forecast.begin(), out.forecast.end(), out.forecast.front());
  }
  // The quality family: identity, logarithmic (negative below its
  // reference), device-saturating (flat above the knee at slope 0), or
  // piecewise through every rung with flat runs (rungs of equal quality).
  const std::vector<double>& rates = out.manifest.bitrates_kbps();
  abr::media::QualityFunction quality = abr::media::QualityFunction::identity();
  switch (in.uniform_size(0, 3)) {
    case 1:
      quality = abr::media::QualityFunction::logarithmic(
          rates.front() * in.uniform_double(0.5, 1.5),
          in.uniform_double(100.0, 2000.0));
      break;
    case 2:
      quality = abr::media::QualityFunction::device_saturating(
          in.uniform_double(rates.front(), rates.back()),
          in.boolean() ? 0.0 : in.unit());
      break;
    case 3: {
      std::vector<std::pair<double, double>> points;
      double q = in.uniform_double(0.0, 1000.0);
      for (const double rate : rates) {
        points.emplace_back(rate, q);
        q += in.boolean() ? 0.0 : in.uniform_double(1.0, 2000.0);
      }
      quality = abr::media::QualityFunction::piecewise(std::move(points));
      break;
    }
    default:
      break;
  }
  out.model = abr::qoe::QoeModel(std::move(quality), weights);
}

}  // namespace abr::fuzz
