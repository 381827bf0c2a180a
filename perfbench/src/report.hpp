#pragma once

// What one benchmark run reports, and the helpers every workload shares to
// compute it: percentiles, process CPU and RSS, and the JSON result line.

#include <cstdint>
#include <string>
#include <vector>

#include "tracing.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// CSV file the traced run writes its spans to; empty writes none.
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Run context recorded beside every result.
struct RunContext {
  std::string server_engine = "none";  ///< ChunkServer::engine() on origin
  std::size_t shards = 0;              ///< reactor shards on origin
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first failures, for stderr
  std::vector<Metric> metrics;
  RunContext context;

  bool correct() const { return failed == 0 && attempted > 0; }

  /// Counts one checked item; records `message` when `ok` is false.
  void check(bool ok, const std::string& message);
  void add(std::string name, double value, std::string unit);
};

/// Median of the values (0 when empty).
double median(std::vector<double> values);

/// Linear-interpolated percentile, p in [0, 100] (0 when empty).
double percentile(std::vector<double> values, double p);

/// Process user+system CPU time so far, seconds.
double process_cpu_s();

/// Peak resident set size of the process so far, bytes.
double peak_rss_bytes();

/// Seconds since `start_ns` (a now_ns() reading).
double seconds_since(std::int64_t start_ns);

/// Times `setup` `repeats` times and returns the median duration, seconds.
/// The last repetition's state is what the workload measures.
template <typename Setup>
double median_setup_s(int repeats, Setup&& setup) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const std::int64_t start = now_ns();
    setup();
    times.push_back(seconds_since(start));
  }
  return median(times);
}

/// The end-to-end metrics every workload reports (tracing off). An "op" is
/// one streaming session on trace-sim and one HTTP request on origin.
struct EndToEnd {
  double setup_s = 0.0;        ///< median of the set-up repetitions
  double ops_per_s = 0.0;      ///< ops completed per wall second
  double op_us_p50 = 0.0;      ///< wall time per op (see README)
  double op_us_p99 = 0.0;
  double cpu_us_per_op = 0.0;  ///< process user+sys CPU per op
  double peak_rss_mb = 0.0;
};

/// The per-layer metrics (traced run). Every workload prints every field;
/// a layer the workload does not exercise reads 0.
struct Layers {
  double core_decide_calls = 0.0;  ///< per pass (deterministic)
  double core_decide_us_p50 = 0.0;
  double core_decide_us_p99 = 0.0;
  double core_busy_frac = 0.0;
  double core_solver_nodes_per_decide = 0.0;
  double core_table_build_s = 0.0;
  double trace_generate_s = 0.0;
  double predict_calls = 0.0;  ///< per pass (deterministic)
  double predict_us_p50 = 0.0;
  double predict_us_p99 = 0.0;
  double predict_busy_frac = 0.0;
  double sim_fetch_us_p50 = 0.0;
  double sim_fetch_us_p99 = 0.0;
  double sim_player_self_frac = 0.0;
  double sim_busy_frac = 0.0;
  double sim_qoe_mean = 0.0;  ///< deterministic
  double sim_chunks = 0.0;    ///< per pass (deterministic)
  double obs_journal_records = 0.0;  ///< per pass (deterministic)
  double obs_journal_bytes = 0.0;    ///< per pass (deterministic)
  double obs_sink_write_s = 0.0;
  double obs_self_us_per_record = 0.0;
  double obs_busy_frac = 0.0;
  double net_segment_us_p50 = 0.0;
  double net_segment_us_p99 = 0.0;
  double net_range_us_p50 = 0.0;
  double net_range_us_p99 = 0.0;
  double net_ttfb_us_p99 = 0.0;
  double net_body_us_p50 = 0.0;
  double net_requests_served = 0.0;
  double net_shed = 0.0;
  double net_goodput_mb_per_s = 0.0;
  double net_busy_frac = 0.0;
  double trace_overhead_ratio = 0.0;  ///< traced / untraced wall per op
};

/// The requests of one time window of a concurrent phase (origin). A phase
/// is cut into kWindows equal windows, and each end-to-end figure is taken
/// near the favourable end of the windows (the 90th percentile of
/// throughput, the 10th of latency and CPU per op). Other tenants of a
/// shared host slow some windows; they cannot make a window faster than the
/// code allows, so the quicker windows measure the code.
struct Window {
  static constexpr int kWindows = 40;
  std::vector<double> op_us;  ///< wall time of each op ending in the window
  double ops = 0.0;
  double busy_s = 0.0;  ///< the window's length
  double cpu_s = 0.0;   ///< process CPU used in the window
};

/// Throughput, latency percentiles and CPU per op over the windows.
EndToEnd summarize(const std::vector<Window>& windows, double setup_s);

/// Best-of-passes timing of a serial phase. The phase streams the same
/// sessions (units) pass after pass, and each unit keeps the least wall and
/// CPU time any pass gave it. Other tenants of a shared host slow the code
/// for milliseconds to seconds at a time but cannot make it faster than the
/// code allows; over the passes of a long run each short unit meets a quiet
/// moment, so the best times vary far less from run to run than means do.
struct BestTimes {
  explicit BestTimes(std::size_t units);
  void add(std::size_t unit, double wall_s, double cpu_s);
  /// Mean wall time per unit over every sample, best or not, microseconds.
  double mean_us() const;

  std::vector<double> wall_us;  ///< best wall time per unit
  std::vector<double> cpu_us;   ///< best thread CPU time per unit
  double total_wall_s = 0.0;
  std::size_t samples = 0;
};

/// Throughput, latency percentiles and CPU per op from the units' best
/// times; one unit is one op.
EndToEnd summarize(const BestTimes& times, double setup_s);

void add_end_to_end(Result& result, const EndToEnd& e2e);
void add_layers(Result& result, const Layers& layers);

/// Prints the run-context line, then the result line (always last).
void print_result(const RunOptions& options, const Result& result);

}  // namespace perfbench
