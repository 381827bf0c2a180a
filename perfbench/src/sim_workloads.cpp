// trace-sim: the sequential-session workload.

#include <time.h>

#include <algorithm>
#include <string>

#include "obs/metrics.hpp"
#include "sim/chunk_source.hpp"
#include "testing/invariant_checker.hpp"
#include "trace/generators.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 15;
/// Traces per dataset in the fixture. One pass streams every trace with
/// every algorithm and takes about half a second. Run cost varies a lot
/// from trace to trace, so a pass spans many of them (3 x 600) and its mix
/// moves little with the seed.
constexpr std::size_t kTracesPerDataset = 600;
/// The traced phase cycles through the first traces only (the fixture
/// interleaves the datasets, so any prefix is a balanced mix); the
/// deterministic per-layer counts are per pass over this prefix.
constexpr std::size_t kTracedTraces = 150;
constexpr double kTraceDurationS = 320.0;
/// Span rows a traced run writes to its CSV.
constexpr std::size_t kSpanDumpRows = 200000;

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double frac(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

abr::testing::InvariantChecker make_checker() {
  return abr::testing::InvariantChecker(abr::testing::InvariantOptions{});
}

}  // namespace

// --- fixture and sequential runner ------------------------------------------

std::unique_ptr<SimFixture> make_sim_fixture(std::uint64_t seed,
                                             std::size_t traces_per_dataset) {
  using abr::trace::DatasetKind;
  auto fixture = std::make_unique<SimFixture>();
  std::int64_t start = now_ns();
  std::vector<std::vector<abr::trace::ThroughputTrace>> datasets;
  for (const DatasetKind kind :
       {DatasetKind::kFcc, DatasetKind::kHsdpa, DatasetKind::kMarkov}) {
    datasets.push_back(abr::trace::make_dataset(
        kind, traces_per_dataset, kTraceDurationS,
        seed * 3 + static_cast<std::uint64_t>(kind)));
  }
  for (std::size_t i = 0; i < traces_per_dataset; ++i) {
    for (auto& dataset : datasets) {
      fixture->traces.push_back(std::move(dataset[i]));
    }
  }
  fixture->generate_s = seconds_since(start);

  start = now_ns();
  abr::core::AlgorithmOptions options;
  options.buffer_capacity_s = fixture->session.buffer_capacity_s;
  options.fastmpc_table = abr::core::default_fastmpc_table(
      fixture->manifest, fixture->qoe, options.buffer_capacity_s);
  fixture->table_build_s = seconds_since(start);

  for (const abr::core::Algorithm algorithm : abr::core::all_algorithms()) {
    fixture->algorithms.push_back(abr::core::make_algorithm(
        algorithm, fixture->manifest, fixture->qoe, options));
  }
  return fixture;
}

SimRunner::SimRunner(SimFixture& fixture, bool observed, SpanLog* log)
    : fixture_(&fixture), observed_(observed), log_(log), sink_(log) {
  if (observed_) {
    sink_stream_ = std::make_unique<std::ostream>(&sink_);
    journal_ = std::make_unique<abr::obs::Journal>(*sink_stream_);
  }
  if (log_ != nullptr) {
    for (auto& algorithm : fixture.algorithms) {
      controllers_.push_back(
          std::make_unique<TracedController>(*algorithm.controller, *log_));
      predictors_.push_back(
          std::make_unique<TracedPredictor>(*algorithm.predictor, *log_));
    }
  }
}

SimRunner::~SimRunner() = default;

SimRunner::Session SimRunner::run_session(std::size_t trace,
                                          std::size_t algorithm,
                                          Result& result) {
  SimFixture& f = *fixture_;
  abr::sim::SessionConfig config = f.session;
  if (observed_) {
    config.journal = journal_.get();
    if (!keep_text_) sink_.clear_buffer();
  }
  const std::uint64_t id = totals_.sessions;
  abr::sim::BitrateController* controller =
      f.algorithms[algorithm].controller.get();
  abr::predict::ThroughputPredictor* predictor =
      f.algorithms[algorithm].predictor.get();
  if (log_ != nullptr) {
    controllers_[algorithm]->set_id(id);
    predictors_[algorithm]->set_id(id);
    controller = controllers_[algorithm].get();
    predictor = predictors_[algorithm].get();
  }

  abr::obs::MetricsRegistry::global().set_enabled(observed_);
  const abr::sim::PlayerSession player(f.manifest, f.qoe, config);
  abr::sim::TraceChunkSource source(f.traces[trace], f.manifest);
  abr::sim::SessionResult session;
  const double cpu0 = thread_cpu_s();
  const std::int64_t start = now_ns();
  if (log_ != nullptr) {
    TracedSource traced(source, *log_, id);
    const ScopedSpan span(*log_, SpanKind::kSession, id);
    session = player.run(traced, *controller, *predictor);
  } else {
    session = player.run(source, *controller, *predictor);
  }
  const double wall_s = seconds_since(start);
  const double cpu_s = thread_cpu_s() - cpu0;
  abr::obs::MetricsRegistry::global().set_enabled(false);

  const abr::testing::InvariantReport report =
      make_checker().check_all(session, f.qoe);
  result.check(report.ok(), f.traces[trace].name() + " / " +
                                controller->name() + ": " +
                                report.to_string());
  ++totals_.sessions;
  totals_.chunks += session.chunks.size();
  totals_.qoe_sum += session.qoe;
  return {wall_s, cpu_s, session.qoe};
}

SimTotals SimRunner::totals() const {
  SimTotals totals = totals_;
  if (journal_ != nullptr) {
    totals.journal_records = journal_->records();
    totals.journal_bytes = sink_.bytes();
  }
  for (const auto& controller : controllers_) {
    totals.decide_calls += controller->calls();
    totals.solver_nodes += controller->nodes();
  }
  for (const auto& predictor : predictors_) {
    totals.predict_calls += predictor->calls();
  }
  return totals;
}

// --- trace-sim ---------------------------------------------------------------

namespace {

/// Untraced timed phase: after an untimed warm-up, whole passes over the
/// first `traces` traces with every algorithm until `seconds` have passed.
/// Each session (trace, algorithm) is a unit of the best times.
BestTimes time_sessions(SimFixture& fixture, std::size_t traces,
                        double seconds, Result& result) {
  SimRunner runner(fixture, false, nullptr);
  const std::size_t algorithms = fixture.algorithms.size();
  for (std::size_t t = 0; t < std::min<std::size_t>(30, traces); ++t) {
    for (std::size_t a = 0; a < algorithms; ++a) runner.run_session(t, a, result);
  }
  BestTimes times(traces * algorithms);
  const std::int64_t start = now_ns();
  while (times.samples == 0 || seconds_since(start) < seconds) {
    for (std::size_t t = 0; t < traces; ++t) {
      for (std::size_t a = 0; a < algorithms; ++a) {
        const SimRunner::Session session = runner.run_session(t, a, result);
        times.add(t * algorithms + a, session.wall_s, session.cpu_s);
      }
    }
  }
  return times;
}

/// One traced runner plus the span totals of its sessions.
struct TracedRunner {
  SpanLog log;
  SpanTotals spans;
  SimRunner runner;
  SimTotals first_pass;

  TracedRunner(SimFixture& fixture, bool observed)
      : runner(fixture, observed, &log) {}

  /// Runs one session, folds its spans, and returns its QoE.
  double run(std::size_t t, std::size_t a, Result& result, SpanDump& dump) {
    const double qoe = runner.run_session(t, a, result).qoe;
    spans.add(log.spans());
    if (!dump.write(log.spans())) result.check(false, "cannot write spans");
    log.clear();
    return qoe;
  }
};

}  // namespace

Result run_trace_sim(const RunOptions& options) {
  Result result;
  std::unique_ptr<SimFixture> fixture;
  std::vector<double> generate_s;
  std::vector<double> table_build_s;
  const double setup_s = median_setup_s(kSetupRepeats, [&] {
    fixture = make_sim_fixture(options.seed, kTracesPerDataset);
    generate_s.push_back(fixture->generate_s);
    table_build_s.push_back(fixture->table_build_s);
  });

  // A traced run's untraced half streams the same traces as its traced
  // half, so their ratio is the cost of tracing alone.
  const std::size_t traces =
      options.trace ? std::min(kTracedTraces, fixture->traces.size())
                    : fixture->traces.size();
  const BestTimes untraced = time_sessions(
      *fixture, traces, options.trace ? options.seconds / 2 : options.seconds,
      result);
  if (!options.trace) {
    add_end_to_end(result, summarize(untraced, setup_s));
    return result;
  }

  // Traced phase: whole passes. Every session runs twice: as timed above,
  // then with a journal and the metrics registry on. The first gives the
  // control, prediction and player figures; the difference between the two
  // gives observability's own cost.
  TracedRunner plain(*fixture, false);
  TracedRunner observed(*fixture, true);
  SpanDump dump(options.spans_path, options.spans_path.empty() ? 0 : kSpanDumpRows);
  std::size_t passes = 0;
  const std::int64_t start = now_ns();
  double first_qoe_sum = 0.0;
  while (passes == 0 || seconds_since(start) < options.seconds / 2) {
    double pass_qoe = 0.0;
    double observed_qoe = 0.0;
    for (std::size_t t = 0; t < traces; ++t) {
      for (std::size_t a = 0; a < fixture->algorithms.size(); ++a) {
        pass_qoe += plain.run(t, a, result, dump);
        observed_qoe += observed.run(t, a, result, dump);
      }
    }
    result.check(observed_qoe == pass_qoe, "the journal changes the QoE");
    if (passes == 0) {
      plain.first_pass = plain.runner.totals();
      observed.first_pass = observed.runner.totals();
      first_qoe_sum = pass_qoe;
    } else {
      result.check(pass_qoe == first_qoe_sum, "pass QoE differs from pass 1");
    }
    ++passes;
  }

  const SimTotals& first = plain.first_pass;
  const SpanTotals& s = plain.spans;
  const SpanTotals& o = observed.spans;
  const double session_s = s.total(SpanKind::kSession);
  const double player_self_s = s.self(SpanKind::kSession);
  const double obs_self_s = o.self(SpanKind::kSession) - player_self_s;
  const double traced_sessions = static_cast<double>(plain.runner.totals().sessions);
  const double all_records =
      static_cast<double>(observed.runner.totals().journal_records);

  Layers l;
  l.core_decide_calls = static_cast<double>(first.decide_calls);
  l.core_decide_us_p50 = percentile(s.durations(SpanKind::kDecide), 50.0);
  l.core_decide_us_p99 = percentile(s.durations(SpanKind::kDecide), 99.0);
  l.core_busy_frac = frac(s.total(SpanKind::kDecide), session_s);
  l.core_solver_nodes_per_decide =
      frac(static_cast<double>(first.solver_nodes),
           static_cast<double>(first.decide_calls));
  l.core_table_build_s = median(table_build_s);
  l.trace_generate_s = median(generate_s);
  l.predict_calls = static_cast<double>(first.predict_calls);
  l.predict_us_p50 = percentile(s.durations(SpanKind::kPredict), 50.0);
  l.predict_us_p99 = percentile(s.durations(SpanKind::kPredict), 99.0);
  l.predict_busy_frac = frac(s.total(SpanKind::kPredict), session_s);
  l.sim_fetch_us_p50 = percentile(s.durations(SpanKind::kFetch), 50.0);
  l.sim_fetch_us_p99 = percentile(s.durations(SpanKind::kFetch), 99.0);
  l.sim_player_self_frac = frac(player_self_s, session_s);
  l.sim_busy_frac = frac(player_self_s + s.total(SpanKind::kFetch), session_s);
  l.sim_qoe_mean = first.qoe_sum / static_cast<double>(first.sessions);
  l.sim_chunks = static_cast<double>(first.chunks);
  l.obs_journal_records = static_cast<double>(observed.first_pass.journal_records);
  l.obs_journal_bytes = static_cast<double>(observed.first_pass.journal_bytes);
  l.obs_sink_write_s =
      o.total(SpanKind::kSinkWrite) / static_cast<double>(passes);
  l.obs_self_us_per_record = frac(obs_self_s * 1e6, all_records);
  l.obs_busy_frac = frac(obs_self_s + o.total(SpanKind::kSinkWrite),
                         o.total(SpanKind::kSession));
  l.trace_overhead_ratio =
      frac(session_s * 1e6 / traced_sessions, untraced.mean_us());
  add_layers(result, l);
  return result;
}

}  // namespace perfbench
