// Reproduces the Section 7.4 overhead microbenchmarks: per-decision CPU
// cost of each controller and the memory footprint of the FastMPC table.
// Expected shape: FastMPC decisions cost within noise of BB/RB (a binary
// search), online MPC costs orders of magnitude more (the full horizon
// solve), and the 100x100x5 table is tens of kB compressed (the paper
// reports ~60 kB extra memory).
//
// Also benchmarks the obs/ layer itself: every BM_Decision_* runs with the
// global metrics registry disabled (the library default), the
// *_Instrumented variants enable it, and the BM_Obs_* group prices the
// primitives — so the cost of observability is itself observable.
#include <benchmark/benchmark.h>

#include <fstream>

#include "core/algorithms.hpp"
#include "core/buffer_based.hpp"
#include "core/dashjs_rules.hpp"
#include "core/fastmpc_table.hpp"
#include "core/festive.hpp"
#include "core/mpc_controller.hpp"
#include "core/rate_based.hpp"
#include "media/manifest.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/span.hpp"
#include "qoe/qoe.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace abr;

/// Turns the global registry on for one benchmark's scope.
class ScopedMetricsEnabled {
 public:
  ScopedMetricsEnabled() { obs::MetricsRegistry::global().set_enabled(true); }
  ~ScopedMetricsEnabled() {
    obs::MetricsRegistry::global().set_enabled(false);
  }
};

const media::VideoManifest& manifest() {
  static const media::VideoManifest m = media::VideoManifest::envivio_default();
  return m;
}

const qoe::QoeModel& qoe_model() {
  static const qoe::QoeModel q(media::QualityFunction::identity(),
                               qoe::QoeWeights::balanced());
  return q;
}

std::shared_ptr<const core::FastMpcTable> shared_table() {
  static const std::shared_ptr<const core::FastMpcTable> table =
      core::default_fastmpc_table(manifest(), qoe_model(), 30.0);
  return table;
}

/// Drives one controller through a stream of plausible random states.
template <typename MakeController>
void run_decision_bench(benchmark::State& state, MakeController make) {
  auto controller = make();
  util::Rng rng(7);
  std::vector<double> history = {1200.0, 900.0, 1500.0, 1100.0, 1300.0};
  std::vector<double> prediction(controller->prediction_horizon(), 1150.0);
  std::size_t prev = 2;
  std::size_t chunk = 1;
  for (auto _ : state) {
    sim::AbrState abr_state;
    abr_state.chunk_index = chunk;
    abr_state.buffer_s = rng.uniform(0.0, 30.0);
    abr_state.prev_level = prev;
    abr_state.has_prev = true;
    abr_state.throughput_history_kbps = history;
    abr_state.prediction_kbps = prediction;
    abr_state.playback_started = true;
    prev = controller->decide(abr_state, manifest());
    benchmark::DoNotOptimize(prev);
    chunk = chunk % 60 + 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_Decision_RB(benchmark::State& state) {
  run_decision_bench(state,
                     [] { return std::make_unique<core::RateBasedController>(); });
}
BENCHMARK(BM_Decision_RB);

void BM_Decision_BB(benchmark::State& state) {
  run_decision_bench(
      state, [] { return std::make_unique<core::BufferBasedController>(); });
}
BENCHMARK(BM_Decision_BB);

void BM_Decision_FastMPC(benchmark::State& state) {
  run_decision_bench(state, [] {
    return std::make_unique<core::FastMpcController>(shared_table());
  });
}
BENCHMARK(BM_Decision_FastMPC);

void BM_Decision_OnlineMPC(benchmark::State& state) {
  run_decision_bench(state, [] {
    return std::make_unique<core::MpcController>(manifest(), qoe_model(),
                                                 core::MpcConfig{});
  });
}
BENCHMARK(BM_Decision_OnlineMPC);

void BM_Decision_RobustMPC(benchmark::State& state) {
  run_decision_bench(state, [] {
    core::MpcConfig config;
    config.robust = true;
    return std::make_unique<core::MpcController>(manifest(), qoe_model(),
                                                 config);
  });
}
BENCHMARK(BM_Decision_RobustMPC);

void BM_Decision_Festive(benchmark::State& state) {
  run_decision_bench(
      state, [] { return std::make_unique<core::FestiveController>(); });
}
BENCHMARK(BM_Decision_Festive);

void BM_Decision_DashJs(benchmark::State& state) {
  run_decision_bench(
      state, [] { return std::make_unique<core::DashJsRulesController>(); });
}
BENCHMARK(BM_Decision_DashJs);

// --- Instrumented variants: same decision loops with metrics enabled, so
// --- the delta against the baseline BM_Decision_* is the live cost of the
// --- obs layer on each hot path.

void BM_Decision_FastMPC_Instrumented(benchmark::State& state) {
  ScopedMetricsEnabled metrics_on;
  run_decision_bench(state, [] {
    return std::make_unique<core::FastMpcController>(shared_table());
  });
}
BENCHMARK(BM_Decision_FastMPC_Instrumented);

void BM_Decision_OnlineMPC_Instrumented(benchmark::State& state) {
  ScopedMetricsEnabled metrics_on;
  run_decision_bench(state, [] {
    return std::make_unique<core::MpcController>(manifest(), qoe_model(),
                                                 core::MpcConfig{});
  });
}
BENCHMARK(BM_Decision_OnlineMPC_Instrumented);

void BM_Decision_RobustMPC_Instrumented(benchmark::State& state) {
  ScopedMetricsEnabled metrics_on;
  run_decision_bench(state, [] {
    core::MpcConfig config;
    config.robust = true;
    return std::make_unique<core::MpcController>(manifest(), qoe_model(),
                                                 config);
  });
}
BENCHMARK(BM_Decision_RobustMPC_Instrumented);

// --- Primitive costs of the obs layer. The *_Disabled numbers are what
// --- every production code path pays when nobody asked for metrics (the
// --- acceptance bar: small vs the cheapest decision, i.e. well under 2%).

void BM_Obs_CounterIncrement_Disabled(benchmark::State& state) {
  obs::Counter& counter =
      obs::MetricsRegistry::global().counter("bench_counter_disabled");
  for (auto _ : state) {
    counter.increment();
    benchmark::DoNotOptimize(&counter);
  }
}
BENCHMARK(BM_Obs_CounterIncrement_Disabled);

void BM_Obs_CounterIncrement_Enabled(benchmark::State& state) {
  ScopedMetricsEnabled metrics_on;
  obs::Counter& counter =
      obs::MetricsRegistry::global().counter("bench_counter_enabled");
  for (auto _ : state) {
    counter.increment();
    benchmark::DoNotOptimize(&counter);
  }
}
BENCHMARK(BM_Obs_CounterIncrement_Enabled);

void BM_Obs_HistogramObserve_Disabled(benchmark::State& state) {
  obs::Histogram& histogram =
      obs::MetricsRegistry::global().histogram("bench_histogram_disabled");
  util::Rng rng(11);
  for (auto _ : state) {
    histogram.observe(rng.uniform(0.0, 1e6));
    benchmark::DoNotOptimize(&histogram);
  }
}
BENCHMARK(BM_Obs_HistogramObserve_Disabled);

void BM_Obs_HistogramObserve_Enabled(benchmark::State& state) {
  ScopedMetricsEnabled metrics_on;
  obs::Histogram& histogram =
      obs::MetricsRegistry::global().histogram("bench_histogram_enabled");
  util::Rng rng(11);
  for (auto _ : state) {
    histogram.observe(rng.uniform(0.0, 1e6));
    benchmark::DoNotOptimize(&histogram);
  }
}
BENCHMARK(BM_Obs_HistogramObserve_Enabled);

void BM_Obs_LatencyTimer_Disabled(benchmark::State& state) {
  obs::Histogram& histogram =
      obs::MetricsRegistry::global().histogram("bench_timer_disabled");
  for (auto _ : state) {
    obs::LatencyTimer timer(&histogram);
    benchmark::DoNotOptimize(&timer);
  }
}
BENCHMARK(BM_Obs_LatencyTimer_Disabled);

void BM_Obs_LatencyTimer_Enabled(benchmark::State& state) {
  ScopedMetricsEnabled metrics_on;
  obs::Histogram& histogram =
      obs::MetricsRegistry::global().histogram("bench_timer_enabled");
  for (auto _ : state) {
    obs::LatencyTimer timer(&histogram);
    benchmark::DoNotOptimize(&timer);
  }
}
BENCHMARK(BM_Obs_LatencyTimer_Enabled);

// --- Journal emission cost: serialize one full chunk record (the Eq. 5
// --- attribution plus predictor/solver/provenance fields) and write the
// --- line. /dev/null isolates serialization + stream cost from the disk.

obs::ChunkJournalEntry bench_chunk_entry(util::Rng& rng) {
  obs::ChunkJournalEntry entry;
  entry.session = "s0";
  entry.algorithm = "RobustMPC";
  entry.chunk = static_cast<std::size_t>(rng.uniform_int(0, 64));
  entry.level = static_cast<std::size_t>(rng.uniform_int(0, 4));
  entry.t_s = rng.uniform(0.0, 260.0);
  entry.bitrate_kbps = 1200.0;
  entry.download_s = rng.uniform(0.5, 6.0);
  entry.throughput_kbps = rng.uniform(300.0, 4000.0);
  entry.buffer_before_s = rng.uniform(0.0, 30.0);
  entry.buffer_after_s = rng.uniform(0.0, 30.0);
  entry.qoe_utility = 1200.0;
  entry.qoe_switch_penalty = rng.uniform(0.0, 850.0);
  entry.qoe_chunk = entry.qoe_utility - entry.qoe_switch_penalty;
  entry.qoe_cumulative = rng.uniform(0.0, 70000.0);
  entry.predicted_kbps = rng.uniform(300.0, 4000.0);
  entry.effective_kbps = entry.predicted_kbps * 0.9;
  entry.error_window = rng.uniform(0.0, 0.4);
  entry.nodes_expanded = static_cast<std::size_t>(rng.uniform_int(0, 400));
  entry.warm_start = true;
  entry.solver_path = "online";
  return entry;
}

void BM_Journal_ChunkRecord(benchmark::State& state) {
  std::ofstream sink("/dev/null");
  obs::Journal journal(sink);
  util::Rng rng(13);
  for (auto _ : state) {
    journal.chunk(bench_chunk_entry(rng));
    benchmark::DoNotOptimize(&journal);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Journal_ChunkRecord);

void BM_Journal_NumberFormatting(benchmark::State& state) {
  util::Rng rng(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::json_number(rng.uniform(0.0, 70000.0)));
  }
}
BENCHMARK(BM_Journal_NumberFormatting);

/// Table construction cost (the offline step) and memory footprint counters.
void BM_FastMpcTableBuild_30x30(benchmark::State& state) {
  for (auto _ : state) {
    core::FastMpcConfig config;
    config.buffer_bins = 30;
    config.throughput_bins = 30;
    auto table = core::FastMpcTable::build(manifest(), qoe_model(), config);
    benchmark::DoNotOptimize(table);
  }
}
BENCHMARK(BM_FastMpcTableBuild_30x30)->Unit(benchmark::kMillisecond);

void BM_FastMpcTableLookup(benchmark::State& state) {
  const auto table = shared_table();
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->lookup(
        rng.uniform(0.0, 30.0), static_cast<std::size_t>(rng.uniform_int(0, 4)),
        rng.uniform(60.0, 8000.0)));
  }
  state.counters["table_rle_bytes"] =
      static_cast<double>(table->rle_binary_bytes());
  state.counters["table_full_bytes"] =
      static_cast<double>(table->full_table_bytes());
}
BENCHMARK(BM_FastMpcTableLookup);

}  // namespace

BENCHMARK_MAIN();
