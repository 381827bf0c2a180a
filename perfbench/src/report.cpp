#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>

#include "obs/journal.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void Result::check(bool ok, const std::string& message) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (errors.size() < 10) errors.push_back(message);
}

void Result::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double process_cpu_s() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_bytes() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;  // KB on Linux
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

EndToEnd summarize(const std::vector<Window>& windows, double setup_s) {
  std::vector<double> rate;
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> cpu;
  for (const Window& window : windows) {
    if (window.ops <= 0.0 || window.busy_s <= 0.0) continue;
    rate.push_back(window.ops / window.busy_s);
    p50.push_back(percentile(window.op_us, 50.0));
    p99.push_back(percentile(window.op_us, 99.0));
    cpu.push_back(window.cpu_s * 1e6 / window.ops);
  }
  EndToEnd e2e;
  e2e.setup_s = setup_s;
  e2e.ops_per_s = percentile(rate, 90.0);
  e2e.op_us_p50 = percentile(p50, 10.0);
  e2e.op_us_p99 = percentile(p99, 10.0);
  e2e.cpu_us_per_op = percentile(cpu, 10.0);
  e2e.peak_rss_mb = peak_rss_bytes() / (1024.0 * 1024.0);
  return e2e;
}

BestTimes::BestTimes(std::size_t units)
    : wall_us(units, std::numeric_limits<double>::infinity()),
      cpu_us(units, std::numeric_limits<double>::infinity()) {}

void BestTimes::add(std::size_t unit, double wall_s, double cpu_s) {
  wall_us[unit] = std::min(wall_us[unit], wall_s * 1e6);
  cpu_us[unit] = std::min(cpu_us[unit], cpu_s * 1e6);
  total_wall_s += wall_s;
  ++samples;
}

double BestTimes::mean_us() const {
  return samples == 0 ? 0.0
                      : total_wall_s * 1e6 / static_cast<double>(samples);
}

EndToEnd summarize(const BestTimes& times, double setup_s) {
  double wall_us = 0.0;
  double cpu_us = 0.0;
  for (std::size_t i = 0; i < times.wall_us.size(); ++i) {
    wall_us += times.wall_us[i];
    cpu_us += times.cpu_us[i];
  }
  const auto ops = static_cast<double>(times.wall_us.size());
  EndToEnd e2e;
  e2e.setup_s = setup_s;
  e2e.ops_per_s = ops * 1e6 / wall_us;
  e2e.op_us_p50 = percentile(times.wall_us, 50.0);
  e2e.op_us_p99 = percentile(times.wall_us, 99.0);
  e2e.cpu_us_per_op = cpu_us / ops;
  e2e.peak_rss_mb = peak_rss_bytes() / (1024.0 * 1024.0);
  return e2e;
}

void add_end_to_end(Result& result, const EndToEnd& e2e) {
  result.add("setup_s", e2e.setup_s, "s");
  result.add("ops_per_s", e2e.ops_per_s, "1/s");
  result.add("op_us_p50", e2e.op_us_p50, "us");
  result.add("op_us_p99", e2e.op_us_p99, "us");
  result.add("cpu_us_per_op", e2e.cpu_us_per_op, "us");
  result.add("peak_rss_mb", e2e.peak_rss_mb, "MB");
}

void add_layers(Result& result, const Layers& l) {
  result.add("core.decide_calls", l.core_decide_calls, "count");
  result.add("core.decide_us_p50", l.core_decide_us_p50, "us");
  result.add("core.decide_us_p99", l.core_decide_us_p99, "us");
  result.add("core.busy_frac", l.core_busy_frac, "frac");
  result.add("core.solver_nodes_per_decide", l.core_solver_nodes_per_decide,
             "count");
  result.add("core.table_build_s", l.core_table_build_s, "s");
  result.add("trace.generate_s", l.trace_generate_s, "s");
  result.add("predict.calls", l.predict_calls, "count");
  result.add("predict.us_p50", l.predict_us_p50, "us");
  result.add("predict.us_p99", l.predict_us_p99, "us");
  result.add("predict.busy_frac", l.predict_busy_frac, "frac");
  result.add("sim.fetch_us_p50", l.sim_fetch_us_p50, "us");
  result.add("sim.fetch_us_p99", l.sim_fetch_us_p99, "us");
  result.add("sim.player_self_frac", l.sim_player_self_frac, "frac");
  result.add("sim.busy_frac", l.sim_busy_frac, "frac");
  result.add("sim.qoe_mean", l.sim_qoe_mean, "qoe");
  result.add("sim.chunks", l.sim_chunks, "count");
  result.add("obs.journal_records", l.obs_journal_records, "count");
  result.add("obs.journal_bytes", l.obs_journal_bytes, "bytes");
  result.add("obs.sink_write_s", l.obs_sink_write_s, "s");
  result.add("obs.self_us_per_record", l.obs_self_us_per_record, "us");
  result.add("obs.busy_frac", l.obs_busy_frac, "frac");
  result.add("net.segment_us_p50", l.net_segment_us_p50, "us");
  result.add("net.segment_us_p99", l.net_segment_us_p99, "us");
  result.add("net.range_us_p50", l.net_range_us_p50, "us");
  result.add("net.range_us_p99", l.net_range_us_p99, "us");
  result.add("net.ttfb_us_p99", l.net_ttfb_us_p99, "us");
  result.add("net.body_us_p50", l.net_body_us_p50, "us");
  result.add("net.requests_served", l.net_requests_served, "count");
  result.add("net.shed", l.net_shed, "count");
  result.add("net.goodput_mb_per_s", l.net_goodput_mb_per_s, "MB/s");
  result.add("net.busy_frac", l.net_busy_frac, "frac");
  result.add("trace_overhead_ratio", l.trace_overhead_ratio, "ratio");
}

void print_result(const RunOptions& options, const Result& result) {
  for (const std::string& error : result.errors) {
    std::cerr << "perfbench: check failed: " << error << "\n";
  }
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  std::cout << "{\"context\": {\"workload\": \""
            << abr::obs::json_escape(options.workload)
            << "\", \"seed\": " << options.seed
            << ", \"seconds\": " << abr::obs::json_number(options.seconds)
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"nproc\": " << cpus << ", \"server_engine\": \""
            << result.context.server_engine
            << "\", \"shards\": " << result.context.shards
            << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"}}\n";
  std::cout << "{\"correct\": " << (result.correct() ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\""
              << abr::obs::json_escape(metric.name)
              << "\": {\"value\": " << abr::obs::json_number(metric.value)
              << ", \"unit\": \"" << abr::obs::json_escape(metric.unit)
              << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace perfbench
