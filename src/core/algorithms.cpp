#include "core/algorithms.hpp"

#include <stdexcept>

#include "core/bola.hpp"
#include "core/buffer_based.hpp"
#include "core/dashjs_rules.hpp"
#include "core/festive.hpp"
#include "core/mpc_controller.hpp"
#include "core/rate_based.hpp"

namespace abr::core {

static_assert(static_cast<std::size_t>(Algorithm::kBola) + 1 == kAlgorithmCount,
              "Algorithm enum and kAlgorithmCount out of sync: update the "
              "constant (and algorithm_name / make_algorithm) when adding a "
              "policy");

const char* algorithm_name(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kRateBased: return "RB";
    case Algorithm::kBufferBased: return "BB";
    case Algorithm::kFastMpc: return "FastMPC";
    case Algorithm::kRobustMpc: return "RobustMPC";
    case Algorithm::kMpc: return "MPC";
    case Algorithm::kMpcOpt: return "MPC-OPT";
    case Algorithm::kDashJs: return "dash.js";
    case Algorithm::kFestive: return "FESTIVE";
    case Algorithm::kBola: return "BOLA";
  }
  return "?";
}

std::vector<Algorithm> all_algorithms() {
  return {Algorithm::kRateBased,  Algorithm::kBufferBased,
          Algorithm::kFastMpc,    Algorithm::kRobustMpc,
          Algorithm::kDashJs,     Algorithm::kFestive};
}

std::vector<Algorithm> registered_algorithms() {
  std::vector<Algorithm> algorithms;
  algorithms.reserve(kAlgorithmCount);
  for (std::size_t i = 0; i < kAlgorithmCount; ++i) {
    algorithms.push_back(static_cast<Algorithm>(i));
  }
  return algorithms;
}

AlgorithmInstance make_algorithm(Algorithm algorithm,
                                 const media::VideoManifest& manifest,
                                 const qoe::QoeModel& qoe,
                                 const AlgorithmOptions& options) {
  AlgorithmInstance instance;
  instance.predictor =
      std::make_unique<predict::HarmonicMeanPredictor>(options.predictor_window);

  switch (algorithm) {
    case Algorithm::kRateBased:
      instance.controller = std::make_unique<RateBasedController>(1.0);
      break;
    case Algorithm::kBufferBased:
      instance.controller = std::make_unique<BufferBasedController>(5.0, 10.0);
      break;
    case Algorithm::kFastMpc: {
      std::shared_ptr<const FastMpcTable> table = options.fastmpc_table;
      if (table == nullptr) {
        table = default_fastmpc_table(manifest, qoe, options.buffer_capacity_s);
      }
      instance.controller = std::make_unique<FastMpcController>(std::move(table));
      break;
    }
    case Algorithm::kRobustMpc: {
      MpcConfig config;
      config.horizon = options.mpc_horizon;
      config.robust = true;
      config.error_window = options.predictor_window;
      config.buffer_capacity_s = options.buffer_capacity_s;
      instance.controller =
          std::make_unique<MpcController>(manifest, qoe, config);
      break;
    }
    case Algorithm::kMpc: {
      MpcConfig config;
      config.horizon = options.mpc_horizon;
      config.robust = false;
      config.buffer_capacity_s = options.buffer_capacity_s;
      instance.controller =
          std::make_unique<MpcController>(manifest, qoe, config);
      break;
    }
    case Algorithm::kMpcOpt: {
      MpcConfig config;
      config.horizon = options.mpc_horizon;
      config.robust = false;
      config.buffer_capacity_s = options.buffer_capacity_s;
      instance.controller =
          std::make_unique<MpcController>(manifest, qoe, config);
      instance.predictor = std::make_unique<predict::PerfectPredictor>();
      break;
    }
    case Algorithm::kDashJs:
      instance.controller = std::make_unique<DashJsRulesController>();
      break;
    case Algorithm::kFestive:
      instance.controller = std::make_unique<FestiveController>();
      break;
    case Algorithm::kBola: {
      BolaConfig config;
      config.buffer_capacity_s = options.buffer_capacity_s;
      instance.controller =
          std::make_unique<BolaController>(manifest, qoe, config);
      break;
    }
  }
  if (instance.controller == nullptr) {
    throw std::invalid_argument("make_algorithm: unknown algorithm");
  }
  return instance;
}

std::shared_ptr<const FastMpcTable> default_fastmpc_table(
    const media::VideoManifest& manifest, const qoe::QoeModel& qoe,
    double buffer_capacity_s) {
  FastMpcConfig config;
  config.buffer_capacity_s = buffer_capacity_s;
  // Serve online lookups from the decoded flat array; the RLE form still
  // backs serialization and the Table 1 size accounting.
  config.flat_lookup = true;
  return std::make_shared<const FastMpcTable>(
      FastMpcTable::build(manifest, qoe, config));
}

}  // namespace abr::core
