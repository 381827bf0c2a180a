#include "testing/scenario_matrix.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "media/quality.hpp"
#include "net/origin_sim.hpp"
#include "sim/chunk_source.hpp"
#include "sim/player.hpp"
#include "testing/faulty_source.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace abr::testing {

namespace {

/// Forwards to an inner controller while summing the deterministic solver
/// effort (DecisionTelemetry::nodes_expanded) and decide() calls of a cell.
/// reset() forwards without clearing the counters: they accumulate across
/// the cell's sessions.
class CountingController final : public sim::BitrateController {
 public:
  explicit CountingController(sim::BitrateController& inner)
      : inner_(&inner) {}

  std::size_t decide(const sim::AbrState& state,
                     const media::VideoManifest& manifest) override {
    const std::size_t level = inner_->decide(state, manifest);
    ++decide_calls;
    if (const sim::DecisionTelemetry* telemetry = inner_->last_decision()) {
      solver_nodes += telemetry->nodes_expanded;
    }
    return level;
  }
  std::size_t prediction_horizon() const override {
    return inner_->prediction_horizon();
  }
  void reset() override { inner_->reset(); }
  std::string name() const override { return inner_->name(); }
  const sim::DecisionTelemetry* last_decision() const override {
    return inner_->last_decision();
  }

  std::size_t decide_calls = 0;
  std::size_t solver_nodes = 0;

 private:
  sim::BitrateController* inner_;
};

void fnv_absorb(std::uint64_t& hash, std::uint64_t value) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffULL;
    hash *= kPrime;
  }
}

struct CellTotals {
  double qoe = 0.0;
  double bitrate_kbps = 0.0;
  double rebuffer_s = 0.0;
  double video_s = 0.0;
  double switches = 0.0;
  std::size_t degraded = 0;
  std::size_t skipped = 0;
  std::size_t attempts = 0;
  std::size_t aborted = 0;
  std::size_t partial = 0;
  double wasted_kb = 0.0;
};

}  // namespace

const char* scenario_kind_name(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kClean: return "clean";
    case ScenarioKind::kFaultStorm: return "faults";
    case ScenarioKind::kOutage: return "outage";
    case ScenarioKind::kRangeChaos: return "range-chaos";
  }
  return "?";
}

Scenario Scenario::clean() { return Scenario{}; }

Scenario Scenario::fault_storm(std::uint64_t seed) {
  Scenario scenario;
  scenario.kind = ScenarioKind::kFaultStorm;
  scenario.name = "faults";
  scenario.faults.seed = seed;
  scenario.faults.latency_rate = 0.05;
  scenario.faults.stall_rate = 0.05;
  scenario.faults.partial_rate = 0.03;
  scenario.faults.reset_rate = 0.03;
  scenario.faults.http_error_rate = 0.04;
  scenario.faults.validate();
  return scenario;
}

Scenario Scenario::range_chaos(std::uint64_t seed) {
  Scenario scenario = fault_storm(seed);
  scenario.kind = ScenarioKind::kRangeChaos;
  scenario.name = "range-chaos";
  return scenario;
}

Scenario Scenario::outage(double down_s, double up_s, std::size_t origins) {
  Scenario scenario;
  scenario.kind = ScenarioKind::kOutage;
  scenario.name = "outage";
  scenario.origins = origins;
  scenario.outages.windows.push_back(OutageWindow{0, down_s, up_s});
  scenario.outages.validate();
  return scenario;
}

MatrixConfig MatrixConfig::smoke() {
  MatrixConfig config;
  config.families = {
      TraceFamily{trace::DatasetKind::kFcc, 2, 320.0, 20150817},
      TraceFamily{trace::DatasetKind::kHsdpa, 2, 320.0, 20150817},
  };
  config.scenarios = {Scenario::clean(), Scenario::fault_storm(42),
                      Scenario::outage(40.0, 80.0), Scenario::range_chaos(42)};
  return config;
}

MatrixConfig MatrixConfig::full() {
  MatrixConfig config = smoke();
  config.families = {
      TraceFamily{trace::DatasetKind::kFcc, 20, 320.0, 20150817},
      TraceFamily{trace::DatasetKind::kHsdpa, 20, 320.0, 20150817},
      TraceFamily{trace::DatasetKind::kMarkov, 20, 320.0, 20150817},
  };
  return config;
}

TournamentReport run_tournament(const MatrixConfig& config) {
  std::vector<core::Algorithm> algorithms = config.algorithms;
  if (algorithms.empty()) algorithms = core::registered_algorithms();
  if (config.families.empty()) {
    throw std::invalid_argument("run_tournament: no trace families");
  }
  if (config.scenarios.empty()) {
    throw std::invalid_argument("run_tournament: no scenarios");
  }

  const media::VideoManifest manifest = media::VideoManifest::envivio_default();
  const qoe::QoeModel qoe(media::QualityFunction::identity(),
                          qoe::preset_weights(config.preference));

  // Shared inputs, generated once: every algorithm competes on identical
  // traces, and the FastMPC table build is hoisted out of the cell sweep.
  std::vector<std::vector<trace::ThroughputTrace>> datasets;
  datasets.reserve(config.families.size());
  for (const TraceFamily& family : config.families) {
    datasets.push_back(trace::make_dataset(family.kind, family.count,
                                           family.duration_s, family.seed));
  }
  core::AlgorithmOptions options;
  options.buffer_capacity_s = config.buffer_capacity_s;
  options.mpc_horizon = config.mpc_horizon;
  if (std::find(algorithms.begin(), algorithms.end(),
                core::Algorithm::kFastMpc) != algorithms.end()) {
    options.fastmpc_table =
        core::default_fastmpc_table(manifest, qoe, config.buffer_capacity_s);
  }

  const std::size_t family_count = config.families.size();
  const std::size_t scenario_count = config.scenarios.size();
  const std::size_t cell_count =
      algorithms.size() * family_count * scenario_count;
  std::vector<CellResult> cells(cell_count);

  util::parallel_for(
      cell_count,
      [&](std::size_t index) {
        const std::size_t a = index / (family_count * scenario_count);
        const std::size_t f = (index / scenario_count) % family_count;
        const std::size_t s = index % scenario_count;
        const Scenario& scenario = config.scenarios[s];
        const std::vector<trace::ThroughputTrace>& traces = datasets[f];

        core::AlgorithmInstance instance =
            core::make_algorithm(algorithms[a], manifest, qoe, options);
        CountingController counting(*instance.controller);

        sim::SessionConfig session;
        session.buffer_capacity_s = config.buffer_capacity_s;
        session.abort_policy.enabled =
            scenario.kind == ScenarioKind::kRangeChaos;
        const sim::PlayerSession player(manifest, qoe, session);

        CellResult& cell = cells[index];
        cell.algorithm = core::algorithm_name(algorithms[a]);
        cell.family = trace::dataset_name(config.families[f].kind);
        cell.scenario = scenario.name;
        cell.decision_hash = 14695981039346656037ULL;  // FNV-1a offset basis

        CellTotals totals;
        for (std::size_t t = 0; t < traces.size(); ++t) {
          sim::TraceChunkSource base(traces[t], manifest);
          std::unique_ptr<FaultySource> faulty;
          std::unique_ptr<net::SimulatedOriginSource> chaotic;
          sim::ChunkSource* source = &base;
          switch (scenario.kind) {
            case ScenarioKind::kClean:
              break;
            case ScenarioKind::kRangeChaos:
            case ScenarioKind::kFaultStorm: {
              FaultPlan plan = scenario.faults;
              // Distinct-but-derived schedule per session.
              plan.seed = scenario.faults.seed + 1000003ULL * t;
              faulty = std::make_unique<FaultySource>(base, plan);
              source = faulty.get();
              break;
            }
            case ScenarioKind::kOutage: {
              net::SimulatedOriginOptions origin_options;
              origin_options.origins = scenario.origins;
              origin_options.seed = scenario.origin_seed + t;
              chaotic = std::make_unique<net::SimulatedOriginSource>(
                  traces[t], manifest, scenario.outages, origin_options);
              source = chaotic.get();
              break;
            }
          }
          const sim::SessionResult result =
              player.run(*source, counting, *instance.predictor);

          totals.qoe += result.qoe;
          totals.bitrate_kbps += result.average_bitrate_kbps;
          totals.rebuffer_s += result.total_rebuffer_s;
          totals.video_s += manifest.duration_s();
          totals.switches += static_cast<double>(result.switch_count);
          totals.degraded += result.degraded_chunks;
          totals.skipped += result.skipped_chunks;
          totals.attempts += result.total_attempts;
          totals.aborted += result.aborted_chunks;
          totals.partial += result.partial_chunks;
          totals.wasted_kb += result.wasted_kilobits;
          for (const sim::ChunkRecord& chunk : result.chunks) {
            fnv_absorb(cell.decision_hash, chunk.index);
            fnv_absorb(cell.decision_hash, chunk.level);
            fnv_absorb(cell.decision_hash, chunk.skipped ? 1 : 0);
          }
        }

        const double n = static_cast<double>(traces.size());
        cell.sessions = traces.size();
        cell.mean_qoe = totals.qoe / n;
        cell.mean_bitrate_kbps = totals.bitrate_kbps / n;
        cell.mean_rebuffer_s = totals.rebuffer_s / n;
        cell.rebuffer_ratio =
            totals.video_s > 0.0 ? totals.rebuffer_s / totals.video_s : 0.0;
        cell.mean_switches = totals.switches / n;
        cell.degraded_chunks = totals.degraded;
        cell.skipped_chunks = totals.skipped;
        cell.total_attempts = totals.attempts;
        cell.decide_calls = counting.decide_calls;
        cell.solver_nodes = counting.solver_nodes;
        cell.abort_enabled = scenario.kind == ScenarioKind::kRangeChaos;
        cell.aborted_chunks = totals.aborted;
        cell.partial_chunks = totals.partial;
        cell.wasted_kilobits = totals.wasted_kb;
      },
      config.threads);

  // Per-algorithm ranking across the whole matrix.
  TournamentReport report;
  report.cells = std::move(cells);
  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    AlgorithmRank rank;
    rank.algorithm = core::algorithm_name(algorithms[a]);
    double qoe_sum = 0.0, bitrate_sum = 0.0, switches_sum = 0.0;
    double rebuffer_sum = 0.0, video_sum = 0.0;
    for (std::size_t f = 0; f < family_count; ++f) {
      for (std::size_t s = 0; s < scenario_count; ++s) {
        const CellResult& cell =
            report.cells[(a * family_count + f) * scenario_count + s];
        const double n = static_cast<double>(cell.sessions);
        rank.sessions += cell.sessions;
        qoe_sum += cell.mean_qoe * n;
        bitrate_sum += cell.mean_bitrate_kbps * n;
        switches_sum += cell.mean_switches * n;
        rebuffer_sum += cell.mean_rebuffer_s * n;
        video_sum += manifest.duration_s() * n;
        rank.solver_nodes += cell.solver_nodes;
      }
    }
    const double n = static_cast<double>(rank.sessions);
    rank.mean_qoe = qoe_sum / n;
    rank.mean_bitrate_kbps = bitrate_sum / n;
    rank.mean_switches = switches_sum / n;
    rank.mean_rebuffer_ratio = video_sum > 0.0 ? rebuffer_sum / video_sum : 0.0;
    report.ranking.push_back(std::move(rank));
  }
  std::sort(report.ranking.begin(), report.ranking.end(),
            [](const AlgorithmRank& a, const AlgorithmRank& b) {
              if (a.mean_qoe != b.mean_qoe) return a.mean_qoe > b.mean_qoe;
              return a.algorithm < b.algorithm;
            });
  return report;
}

namespace {

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return std::string(buf);
}

}  // namespace

std::string TournamentReport::to_json() const {
  std::string out = "{\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    out += "    {\"algorithm\": \"" + util::json_escape(c.algorithm) +
           "\", \"family\": \"" + util::json_escape(c.family) +
           "\", \"scenario\": \"" + util::json_escape(c.scenario) +
           "\", \"sessions\": " + std::to_string(c.sessions) +
           ", \"mean_qoe\": " + util::json_number(c.mean_qoe) +
           ", \"mean_bitrate_kbps\": " +
           util::json_number(c.mean_bitrate_kbps) +
           ", \"mean_rebuffer_s\": " + util::json_number(c.mean_rebuffer_s) +
           ", \"rebuffer_ratio\": " + util::json_number(c.rebuffer_ratio) +
           ", \"mean_switches\": " + util::json_number(c.mean_switches) +
           ", \"degraded_chunks\": " + std::to_string(c.degraded_chunks) +
           ", \"skipped_chunks\": " + std::to_string(c.skipped_chunks) +
           ", \"total_attempts\": " + std::to_string(c.total_attempts) +
           ", \"decide_calls\": " + std::to_string(c.decide_calls) +
           ", \"solver_nodes\": " + std::to_string(c.solver_nodes) +
           ", \"decision_hash\": \"" + hex64(c.decision_hash) + "\"";
    if (c.abort_enabled) {
      // Sub-chunk attribution is emitted only for abort-enabled cells so
      // that every pre-existing baseline line stays byte-identical.
      out += ", \"aborted_chunks\": " + std::to_string(c.aborted_chunks) +
             ", \"partial_chunks\": " + std::to_string(c.partial_chunks) +
             ", \"wasted_kilobits\": " + util::json_number(c.wasted_kilobits);
    }
    out += "}";
    out += i + 1 < cells.size() ? ",\n" : "\n";
  }
  out += "  ],\n  \"ranking\": [\n";
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    const AlgorithmRank& r = ranking[i];
    out += "    {\"algorithm\": \"" + util::json_escape(r.algorithm) +
           "\", \"sessions\": " + std::to_string(r.sessions) +
           ", \"mean_qoe\": " + util::json_number(r.mean_qoe) +
           ", \"mean_rebuffer_ratio\": " +
           util::json_number(r.mean_rebuffer_ratio) +
           ", \"mean_bitrate_kbps\": " +
           util::json_number(r.mean_bitrate_kbps) +
           ", \"mean_switches\": " + util::json_number(r.mean_switches) +
           ", \"solver_nodes\": " + std::to_string(r.solver_nodes) + "}";
    out += i + 1 < ranking.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string TournamentReport::to_table() const {
  std::string out;
  char line[256];
  out += "# tournament ranking (mean over every cell; solver effort in "
         "search nodes)\n";
  std::snprintf(line, sizeof line, "%-4s %-12s %12s %14s %12s %10s %14s\n",
                "rank", "algorithm", "mean_qoe", "rebuf_ratio", "avg_kbps",
                "switches", "solver_nodes");
  out += line;
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    const AlgorithmRank& r = ranking[i];
    std::snprintf(line, sizeof line,
                  "%-4zu %-12s %12.2f %14.5f %12.1f %10.2f %14zu\n", i + 1,
                  r.algorithm.c_str(), r.mean_qoe, r.mean_rebuffer_ratio,
                  r.mean_bitrate_kbps, r.mean_switches, r.solver_nodes);
    out += line;
  }
  out += "\n# cells\n";
  std::snprintf(line, sizeof line, "%-12s %-10s %-8s %12s %14s %10s %10s\n",
                "algorithm", "family", "scenario", "mean_qoe", "rebuf_ratio",
                "degraded", "skipped");
  out += line;
  for (const CellResult& c : cells) {
    std::snprintf(line, sizeof line,
                  "%-12s %-10s %-8s %12.2f %14.5f %10zu %10zu\n",
                  c.algorithm.c_str(), c.family.c_str(), c.scenario.c_str(),
                  c.mean_qoe, c.rebuffer_ratio, c.degraded_chunks,
                  c.skipped_chunks);
    out += line;
  }
  return out;
}

}  // namespace abr::testing
