// Fleet-scale soak harness for the SoA shared-link engine
// (BENCH_fleet.json).
//
// Simulates a rolling-arrival fleet of N sessions on one shared link —
// joins staggered across an arrival window, every session streaming the
// same CBR ladder with a fixed rung — and reports:
//
//   - sessions/sec        (N / simulation wall time)
//   - p99 step latency    (abr_fleet_step_latency_us histogram)
//   - peak RSS            (getrusage ru_maxrss)
//   - deterministic outcome checksums (chunks, QoE sum, Jain, utilization)
//
// The deterministic metrics are gated hard against --baseline (the outcome
// of the soak is a pure function of the config); sessions/sec is gated
// loosely (--min-sessions-frac, default 0.25x baseline) so a noisy CI box
// does not flake while a real 4x regression still fails. --compare-reference
// additionally runs the reference engine on the same workload and reports
// the speedup (gated by --min-speedup when nonzero).
//
// Usage:
//   fleet_bench [--sessions N] [--engine soa|reference] [--out FILE]
//               [--baseline FILE] [--compare-reference] [--min-speedup X]
//               [--min-sessions-frac F] [--chunks N] [--chunk-duration S]
//               [--dt S] [--arrival-window-factor F] [--link-kbps-per-session K]

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "media/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "predict/predictor.hpp"
#include "qoe/qoe.hpp"
#include "sim/fleet_engine.hpp"
#include "sim/multiplayer.hpp"
#include "trace/throughput_trace.hpp"
#include "util/json.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::size_t sessions = 1000000;
  std::string engine = "soa";
  std::string out = "BENCH_fleet.json";
  std::string baseline;
  bool compare_reference = false;
  double min_speedup = 0.0;
  double min_sessions_frac = 0.25;
  std::size_t chunks = 32;
  double chunk_duration_s = 4.0;
  double dt_s = 0.02;
  double arrival_window_factor = 2.0;
  double link_kbps_per_session = 3000.0;
};

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "fleet_bench: missing value for " << flag << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--sessions") {
      options.sessions = std::stoul(next());
    } else if (flag == "--engine") {
      options.engine = next();
    } else if (flag == "--out") {
      options.out = next();
    } else if (flag == "--baseline") {
      options.baseline = next();
    } else if (flag == "--compare-reference") {
      options.compare_reference = true;
    } else if (flag == "--min-speedup") {
      options.min_speedup = std::stod(next());
    } else if (flag == "--min-sessions-frac") {
      options.min_sessions_frac = std::stod(next());
    } else if (flag == "--chunks") {
      options.chunks = std::stoul(next());
    } else if (flag == "--chunk-duration") {
      options.chunk_duration_s = std::stod(next());
    } else if (flag == "--dt") {
      options.dt_s = std::stod(next());
    } else if (flag == "--arrival-window-factor") {
      options.arrival_window_factor = std::stod(next());
    } else if (flag == "--link-kbps-per-session") {
      options.link_kbps_per_session = std::stod(next());
    } else {
      std::cerr << "fleet_bench: unknown flag " << flag << "\n";
      std::exit(2);
    }
  }
  if (options.sessions == 0 ||
      (options.engine != "soa" && options.engine != "reference")) {
    std::cerr << "fleet_bench: bad --sessions or --engine\n";
    std::exit(2);
  }
  return options;
}

/// Every session streams one fixed rung; the fleet mixes rungs round-robin.
class FixedRungController final : public abr::sim::BitrateController {
 public:
  explicit FixedRungController(std::size_t level) : level_(level) {}
  std::size_t decide(const abr::sim::AbrState&,
                     const abr::media::VideoManifest&) override {
    return level_;
  }
  std::string name() const override { return "fixed"; }

 private:
  std::size_t level_;
};

class FlatPredictor final : public abr::predict::ThroughputPredictor {
 public:
  explicit FlatPredictor(double kbps) : kbps_(kbps) {}
  std::vector<double> predict(const abr::predict::PredictionInput&,
                              std::size_t horizon) override {
    return std::vector<double>(horizon, kbps_);
  }
  std::string name() const override { return "flat"; }

 private:
  double kbps_;
};

struct SoakOutcome {
  double wall_s = 0.0;
  double sessions_per_sec = 0.0;
  std::size_t total_chunks = 0;
  double qoe_sum = 0.0;
  double jain = 0.0;
  double link_utilization = 0.0;
};

SoakOutcome run_soak(const Options& options, bool soa) {
  const auto ladder = abr::media::VideoManifest::envivio_default();
  const auto manifest = abr::media::VideoManifest::cbr(
      options.chunks, options.chunk_duration_s, ladder.bitrates_kbps());
  const abr::qoe::QoeModel qoe(abr::media::QualityFunction::identity(),
                               abr::qoe::QoeWeights::balanced());
  const std::size_t n = options.sessions;
  const auto link = abr::trace::ThroughputTrace::constant(
      options.link_kbps_per_session * static_cast<double>(n), 1000.0);

  std::vector<std::unique_ptr<FixedRungController>> controllers;
  std::vector<std::unique_ptr<FlatPredictor>> predictors;
  std::vector<abr::sim::BitrateController*> controller_ptrs;
  std::vector<abr::predict::ThroughputPredictor*> predictor_ptrs;
  controllers.reserve(n);
  predictors.reserve(n);
  controller_ptrs.reserve(n);
  predictor_ptrs.reserve(n);
  const std::size_t levels = manifest.level_count();
  for (std::size_t i = 0; i < n; ++i) {
    controllers.push_back(std::make_unique<FixedRungController>(i % levels));
    predictors.push_back(
        std::make_unique<FlatPredictor>(options.link_kbps_per_session));
    controller_ptrs.push_back(controllers.back().get());
    predictor_ptrs.push_back(predictors.back().get());
  }

  abr::sim::MultiPlayerConfig config;
  config.time_step_s = options.dt_s;
  config.startup_stagger_s = options.arrival_window_factor *
                             manifest.duration_s() / static_cast<double>(n);

  const std::span<abr::sim::BitrateController* const> cs(controller_ptrs);
  const std::span<abr::predict::ThroughputPredictor* const> ps(predictor_ptrs);
  const auto start = Clock::now();
  const abr::sim::MultiPlayerResult result =
      soa ? abr::sim::simulate_shared_link_soa(link, manifest, qoe, config,
                                               cs, ps)
          : abr::sim::simulate_shared_link(link, manifest, qoe, config, cs,
                                           ps);
  SoakOutcome outcome;
  outcome.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  outcome.sessions_per_sec = static_cast<double>(n) / outcome.wall_s;
  for (const abr::sim::SessionResult& player : result.players) {
    outcome.total_chunks += player.chunks.size();
    outcome.qoe_sum += player.qoe;
  }
  outcome.jain = result.jain_fairness;
  outcome.link_utilization = result.link_utilization;
  return outcome;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  bool failed = false;

  // Reference comparison first so the primary soak's histogram and RSS are
  // not polluted by the warm-up run's instruments.
  double reference_wall_s = 0.0;
  double speedup = 0.0;
  if (options.compare_reference) {
    const SoakOutcome reference = run_soak(options, /*soa=*/false);
    reference_wall_s = reference.wall_s;
    std::cout << "fleet_bench: reference engine " << reference.wall_s
              << " s (" << reference.sessions_per_sec << " sessions/sec)\n";
  }

  abr::obs::MetricsRegistry& registry = abr::obs::MetricsRegistry::global();
  registry.set_enabled(true);
  registry.reset();
  const SoakOutcome soak = run_soak(options, options.engine == "soa");
  const abr::obs::HistogramSnapshot step_latency =
      registry.histogram(abr::obs::kFleetStepLatencyUs).snapshot();
  const double rss_mb = peak_rss_mb();

  if (options.compare_reference) {
    speedup = reference_wall_s / soak.wall_s;
    std::cout << "fleet_bench: speedup " << speedup << "x over reference\n";
    if (options.min_speedup > 0.0 && speedup < options.min_speedup) {
      std::cerr << "fleet_bench: FAIL speedup " << speedup << "x < required "
                << options.min_speedup << "x\n";
      failed = true;
    }
  }

  using abr::util::json_number;
  std::ostringstream json;
  json << "{\n";
  json << "  \"config\": {\"sessions\": " << options.sessions
       << ", \"engine\": \"" << options.engine
       << "\", \"chunks\": " << options.chunks
       << ", \"chunk_duration_s\": " << json_number(options.chunk_duration_s)
       << ", \"dt_s\": " << json_number(options.dt_s)
       << ", \"arrival_window_factor\": "
       << json_number(options.arrival_window_factor)
       << ", \"link_kbps_per_session\": "
       << json_number(options.link_kbps_per_session) << "},\n";
  json << "  \"soak\": {\n";
  json << "    \"wall_s\": " << json_number(soak.wall_s) << ",\n";
  json << "    \"sessions_per_sec\": " << json_number(soak.sessions_per_sec)
       << ",\n";
  json << "    \"p50_step_us\": " << json_number(step_latency.p50) << ",\n";
  json << "    \"p99_step_us\": " << json_number(step_latency.p99) << ",\n";
  json << "    \"steps\": " << step_latency.count << ",\n";
  json << "    \"peak_rss_mb\": " << json_number(rss_mb) << ",\n";
  json << "    \"total_chunks\": " << soak.total_chunks << ",\n";
  json << "    \"qoe_sum\": " << json_number(soak.qoe_sum) << ",\n";
  json << "    \"jain_fairness\": " << json_number(soak.jain) << ",\n";
  json << "    \"link_utilization\": " << json_number(soak.link_utilization)
       << "\n";
  json << "  }";
  if (options.compare_reference) {
    json << ",\n  \"compare\": {\n";
    json << "    \"reference_wall_s\": " << json_number(reference_wall_s)
         << ",\n";
    json << "    \"speedup\": " << json_number(speedup) << "\n  }";
  }
  json << "\n}\n";

  std::ofstream out(options.out);
  out << json.str();
  if (!out) {
    std::cerr << "fleet_bench: cannot write " << options.out << "\n";
    return 2;
  }
  std::cout << json.str();

  if (!options.baseline.empty()) {
    std::ifstream in(options.baseline);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    abr::util::Json baseline;
    std::string error;
    if (!in || !abr::util::parse_json(buffer.str(), baseline, error)) {
      std::cerr << "fleet_bench: cannot read baseline " << options.baseline
                << " " << error << "\n";
      return 2;
    }

    // Deterministic outcome metrics: hard gate (pure function of config).
    struct Metric {
      const char* key;
      double value;
      double tolerance;
    };
    const Metric metrics[] = {
        {"soak.total_chunks", static_cast<double>(soak.total_chunks), 0.0},
        {"soak.qoe_sum", soak.qoe_sum, 1e-6},
        {"soak.jain_fairness", soak.jain, 1e-9},
        {"soak.link_utilization", soak.link_utilization, 1e-9},
    };
    for (const Metric& metric : metrics) {
      const abr::util::Json& found = baseline.get(metric.key);
      if (found.kind != abr::util::Json::Kind::kNumber) {
        std::cerr << "fleet_bench: baseline missing " << metric.key << "\n";
        failed = true;
        continue;
      }
      const double expected = found.number;
      const double drift = std::abs(metric.value - expected);
      if (drift > metric.tolerance * std::abs(expected)) {
        std::cerr << "fleet_bench: FAIL " << metric.key << " = "
                  << metric.value << " drifted from baseline " << expected
                  << "\n";
        failed = true;
      }
    }

    // Throughput: loose gate against the committed baseline.
    const double baseline_rate = baseline.get("soak.sessions_per_sec").number;
    if (baseline_rate > 0.0) {
      if (soak.sessions_per_sec < options.min_sessions_frac * baseline_rate) {
        std::cerr << "fleet_bench: FAIL sessions/sec "
                  << soak.sessions_per_sec << " < "
                  << options.min_sessions_frac << "x baseline "
                  << baseline_rate << "\n";
        failed = true;
      }
    } else {
      std::cerr << "fleet_bench: baseline missing sessions_per_sec\n";
      failed = true;
    }
  }

  if (failed) return 1;
  std::cout << "fleet_bench: OK (" << soak.sessions_per_sec
            << " sessions/sec, p99 step " << step_latency.p99 << " us, peak "
            << rss_mb << " MB)\n";
  return 0;
}
