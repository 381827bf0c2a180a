// perfbench_selftest: pins the tracing decorators and the benchmark's
// determinism contract.
//
//  - Every decorator forwards the members a wrapped object's behaviour
//    depends on (dropping prediction_horizon, say, would make MPC plan with
//    horizon 1 under tracing and silently change what is measured).
//  - A traced and an untraced run of one seed produce bit-identical
//    sessions, journals, decision counts and solver nodes.
//  - The deterministic per-layer figures repeat on one seed and change with
//    the seed.
//
// Exits 0 when every check passes.

#include <cstdint>
#include <iostream>
#include <map>
#include <string>

#include "util/checked_parse.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::cerr << "FAIL: " << what << "\n";
}

class FakeController final : public abr::sim::BitrateController {
 public:
  std::size_t decide(const abr::sim::AbrState&,
                     const abr::media::VideoManifest&) override {
    telemetry_.nodes_expanded = 11;
    return 1;
  }
  std::size_t prediction_horizon() const override { return 7; }
  void reset() override { ++resets; }
  const abr::sim::DecisionTelemetry* last_decision() const override {
    return &telemetry_;
  }
  std::string name() const override { return "fake"; }

  int resets = 0;

 private:
  abr::sim::DecisionTelemetry telemetry_;
};

class FakePredictor final : public abr::predict::ThroughputPredictor {
 public:
  std::vector<double> predict(const abr::predict::PredictionInput&,
                              std::size_t horizon) override {
    return std::vector<double>(horizon, 1234.0);
  }
  std::string name() const override { return "fake-predictor"; }
};

class FakeSource final : public abr::sim::ChunkSource {
 public:
  explicit FakeSource(const abr::trace::ThroughputTrace& trace)
      : trace_(&trace) {}
  abr::sim::FetchOutcome fetch(std::size_t, std::size_t) override {
    ++fetches;
    return {};
  }
  abr::sim::FetchOutcome fetch_controlled(
      std::size_t, std::size_t, const abr::sim::FetchControl& control) override {
    ++controlled;
    last_resume = control.resume_from_kilobits;
    return {};
  }
  bool supports_range() const override { return true; }
  void wait(double seconds) override { now_s += seconds; }
  double now() const override { return now_s; }
  const abr::trace::ThroughputTrace* truth() const override { return trace_; }

  int fetches = 0;
  int controlled = 0;
  double last_resume = 0.0;
  double now_s = 0.0;

 private:
  const abr::trace::ThroughputTrace* trace_;
};

void test_forwarding() {
  perfbench::SpanLog log;
  FakeController inner;
  perfbench::TracedController controller(inner, log);
  expect(controller.prediction_horizon() == 7, "prediction_horizon forwarded");
  controller.reset();
  expect(inner.resets == 1, "reset forwarded");
  expect(controller.name() == "fake", "controller name forwarded");
  const auto manifest = abr::media::VideoManifest::envivio_default();
  expect(controller.decide(abr::sim::AbrState{}, manifest) == 1,
         "decide forwarded");
  expect(controller.last_decision() == inner.last_decision(),
         "last_decision forwarded");
  expect(controller.calls() == 1 && controller.nodes() == 11,
         "decide counted with its solver nodes");

  FakePredictor inner_predictor;
  perfbench::TracedPredictor predictor(inner_predictor, log);
  expect(predictor.predict({}, 3) == std::vector<double>(3, 1234.0),
         "predict forwarded");
  expect(predictor.name() == "fake-predictor", "predictor name forwarded");

  const auto trace = abr::trace::ThroughputTrace::constant(1000.0, 10.0);
  FakeSource inner_source(trace);
  perfbench::TracedSource source(inner_source, log, 0);
  expect(source.truth() == &trace, "truth forwarded");
  expect(source.supports_range(), "supports_range forwarded");
  abr::sim::FetchControl control;
  control.resume_from_kilobits = 42.0;
  source.fetch_controlled(0, 0, control);
  expect(inner_source.controlled == 1 && inner_source.last_resume == 42.0,
         "fetch_controlled forwarded with its control");
  source.fetch(0, 0);
  expect(inner_source.fetches == 1, "fetch forwarded");
  source.wait(2.5);
  expect(source.now() == 2.5, "wait and now forwarded");

  int decides = 0;
  int predicts = 0;
  int fetches = 0;
  for (const perfbench::Span& span : log.spans()) {
    decides += span.kind == perfbench::SpanKind::kDecide;
    predicts += span.kind == perfbench::SpanKind::kPredict;
    fetches += span.kind == perfbench::SpanKind::kFetch;
  }
  expect(decides == 1 && predicts == 1 && fetches == 2,
         "one span per decorated call");
}

/// Sum of the journal's per-chunk "nodes" fields.
std::uint64_t journal_nodes(const std::string& text) {
  const std::string key = "\"nodes\":";
  std::uint64_t total = 0;
  for (std::size_t at = text.find(key); at != std::string::npos;
       at = text.find(key, at + key.size())) {
    const std::size_t begin = at + key.size();
    const std::size_t end = text.find_first_not_of("0123456789", begin);
    std::uint64_t nodes = 0;
    if (!abr::util::parse_u64(text.substr(begin, end - begin), nodes)) {
      expect(false, "journal nodes field parses");
    }
    total += nodes;
  }
  return total;
}

void test_traced_matches_untraced() {
  auto fixture = perfbench::make_sim_fixture(7, 2);
  perfbench::Result result;
  perfbench::SpanLog log;
  perfbench::SimRunner untraced(*fixture, true, nullptr);
  perfbench::SimRunner traced(*fixture, true, &log);
  untraced.keep_journal_text();
  traced.keep_journal_text();
  for (std::size_t t = 0; t < fixture->traces.size(); ++t) {
    for (std::size_t a = 0; a < fixture->algorithms.size(); ++a) {
      untraced.run_session(t, a, result);
      traced.run_session(t, a, result);
    }
  }
  expect(result.correct(), "every session passes check_all");
  const perfbench::SimTotals u = untraced.totals();
  const perfbench::SimTotals v = traced.totals();
  expect(u.qoe_sum == v.qoe_sum, "traced QoE is bit-identical");
  expect(u.chunks == v.chunks, "traced chunk count matches");
  expect(u.journal_bytes == v.journal_bytes && u.journal_bytes > 0,
         "traced journal bytes match");
  expect(untraced.journal_text() == traced.journal_text(),
         "traced journal text is byte-identical");
  expect(v.decide_calls == u.chunks, "one decide per chunk");
  expect(v.predict_calls == u.chunks, "one predict per chunk");
  expect(v.solver_nodes == journal_nodes(untraced.journal_text()) &&
             v.solver_nodes > 0,
         "traced solver nodes equal the untraced journal's");
}

std::map<std::string, double> layer_metrics(const std::string& workload,
                                            std::uint64_t seed) {
  perfbench::RunOptions options;
  options.workload = workload;
  options.seed = seed;
  options.seconds = 0.2;
  options.trace = true;
  perfbench::Result result;
  if (workload == "trace-sim") result = perfbench::run_trace_sim(options);
  expect(result.correct(), workload + " traced run passes its checks");
  std::map<std::string, double> metrics;
  for (const perfbench::Metric& metric : result.metrics) {
    metrics[metric.name] = metric.value;
  }
  return metrics;
}

void test_deterministic_layers() {
  const std::map<std::string, std::vector<std::string>> deterministic = {
      {"trace-sim",
       {"core.decide_calls", "core.solver_nodes_per_decide", "sim.qoe_mean",
        "sim.chunks", "predict.calls", "obs.journal_bytes",
        "obs.journal_records"}},
  };
  for (const auto& [workload, names] : deterministic) {
    const auto first = layer_metrics(workload, 1);
    const auto again = layer_metrics(workload, 1);
    const auto other = layer_metrics(workload, 2);
    for (const std::string& name : names) {
      expect(first.at(name) == again.at(name),
             workload + " " + name + " repeats on one seed");
    }
    expect(first.at("sim.qoe_mean") != other.at("sim.qoe_mean"),
           workload + " sim.qoe_mean changes with the seed");
  }
}

}  // namespace

int main() {
  test_forwarding();
  test_traced_matches_untraced();
  test_deterministic_layers();
  if (g_failures != 0) {
    std::cerr << "perfbench_selftest: " << g_failures << " failure(s)\n";
    return 1;
  }
  std::cout << "perfbench_selftest: OK\n";
  return 0;
}
