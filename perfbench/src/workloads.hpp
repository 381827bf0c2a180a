#pragma once

// The two workloads. Each builds its inputs from the seed, sets up several
// times (setup_s is the median), then measures for options.seconds
// (trace-sim finishes the pass it is in). An untraced run reports the
// end-to-end metrics; a traced run spends half its time untraced (for the
// tracing overhead ratio) and half traced, and reports the per-layer metrics.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/algorithms.hpp"
#include "media/manifest.hpp"
#include "obs/journal.hpp"
#include "qoe/qoe.hpp"
#include "report.hpp"
#include "sim/player.hpp"
#include "trace/throughput_trace.hpp"

namespace perfbench {

Result run_trace_sim(const RunOptions& options);
Result run_origin(const RunOptions& options);

/// Inputs of trace-sim: the paper's comparison set
/// (core::all_algorithms()) over seeded FCC-, HSDPA- and Markov-like traces.
/// One pass streams every trace once with every algorithm.
struct SimFixture {
  abr::media::VideoManifest manifest =
      abr::media::VideoManifest::envivio_default();
  abr::qoe::QoeModel qoe{abr::media::QualityFunction::identity(),
                         abr::qoe::QoeWeights::balanced()};
  abr::sim::SessionConfig session;
  std::vector<abr::trace::ThroughputTrace> traces;
  std::vector<abr::core::AlgorithmInstance> algorithms;
  double generate_s = 0.0;     ///< trace generation time
  double table_build_s = 0.0;  ///< FastMPC table build time
};

/// Builds the fixture: `traces_per_dataset` traces of each dataset, the
/// FastMPC table, and one controller/predictor pair per algorithm.
std::unique_ptr<SimFixture> make_sim_fixture(std::uint64_t seed,
                                             std::size_t traces_per_dataset);

/// Deterministic totals of sequential sessions.
struct SimTotals {
  std::uint64_t sessions = 0;
  std::uint64_t chunks = 0;
  double qoe_sum = 0.0;
  std::uint64_t journal_records = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t decide_calls = 0;   ///< traced runners only
  std::uint64_t solver_nodes = 0;   ///< traced runners only
  std::uint64_t predict_calls = 0;  ///< traced runners only
};

/// Streams fixture sessions one after another on the calling thread and
/// checks each against testing::InvariantChecker::check_all.
///
/// With `observed`, every session journals into an in-memory sink with the
/// global metrics registry enabled. With a span log, the controller,
/// predictor and chunk source are wrapped in the tracing decorators and
/// every session is a kSession span.
class SimRunner {
 public:
  SimRunner(SimFixture& fixture, bool observed, SpanLog* log);
  ~SimRunner();
  SimRunner(const SimRunner&) = delete;
  SimRunner& operator=(const SimRunner&) = delete;

  /// Streams trace `trace` with algorithm `algorithm`; returns the wall and
  /// thread CPU seconds of PlayerSession::run alone (checks are not timed)
  /// and the session's QoE.
  struct Session {
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double qoe = 0.0;
  };
  Session run_session(std::size_t trace, std::size_t algorithm,
                      Result& result);

  /// Totals so far (decorator counts included when traced).
  SimTotals totals() const;

  /// Keep every journal byte instead of clearing the sink per session.
  void keep_journal_text() { keep_text_ = true; }
  const std::string& journal_text() const { return sink_.buffer(); }

 private:
  SimFixture* fixture_;
  bool observed_;
  SpanLog* log_;
  bool keep_text_ = false;
  MemorySink sink_;
  std::unique_ptr<std::ostream> sink_stream_;
  std::unique_ptr<abr::obs::Journal> journal_;
  std::vector<std::unique_ptr<TracedController>> controllers_;
  std::vector<std::unique_ptr<TracedPredictor>> predictors_;
  SimTotals totals_;
};

}  // namespace perfbench
