#include "abrreport.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/exposition.hpp"
#include "util/checked_parse.hpp"
#include "util/json.hpp"

namespace abr::tools {

bool parse_flat_json(const std::string& line, JsonObject& out,
                     std::string& error) {
  out.clear();
  util::Json document;
  if (!util::parse_json(line, document, error)) return false;
  if (document.kind != util::Json::Kind::kObject) {
    error = "expected a JSON object";
    return false;
  }
  // The journal schema is flat: every value must be a scalar, and a
  // repeated key keeps its last value.
  for (auto& [key, value] : document.members) {
    if (value.kind != JsonValue::Kind::kString &&
        value.kind != JsonValue::Kind::kNumber &&
        value.kind != JsonValue::Kind::kBoolean) {
      error = "bad value for key \"" + key + "\"";
      return false;
    }
    out[key] = std::move(value);
  }
  return true;
}

namespace {

std::string get_string(const JsonObject& object, const std::string& key) {
  const auto it = object.find(key);
  if (it == object.end() || it->second.kind != JsonValue::Kind::kString) {
    return {};
  }
  return it->second.text;
}

double get_number(const JsonObject& object, const std::string& key) {
  const auto it = object.find(key);
  if (it == object.end() || it->second.kind != JsonValue::Kind::kNumber) {
    return 0.0;
  }
  return it->second.number;
}

std::size_t get_count(const JsonObject& object, const std::string& key) {
  // Checked conversion: llround on a huge double is UB, and journal counts
  // are small — treat anything non-integral or out of range as 0.
  std::size_t count = 0;
  const double value = get_number(object, key);
  if (value > 0.0 && util::size_from_double(std::floor(value + 0.5), count)) {
    return count;
  }
  return 0;
}

AlgorithmSummary& algorithm_entry(std::vector<AlgorithmSummary>& algorithms,
                                  const std::string& name) {
  for (AlgorithmSummary& existing : algorithms) {
    if (existing.algorithm == name) return existing;
  }
  AlgorithmSummary fresh;
  fresh.algorithm = name;
  algorithms.push_back(std::move(fresh));
  return algorithms.back();
}

}  // namespace

ReportSummary summarize_journal(std::istream& in) {
  ReportSummary summary;
  std::string line;
  JsonObject record;
  std::string error;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++summary.lines;
    if (!parse_flat_json(line, record, error)) {
      ++summary.malformed_lines;
      if (summary.first_error.empty()) {
        summary.first_error =
            "line " + std::to_string(summary.lines) + ": " + error;
      }
      continue;
    }
    const std::string type = get_string(record, "type");
    const std::string algorithm = get_string(record, "algo");
    if (type == "chunk") {
      ++summary.chunk_records;
      AlgorithmSummary& algo = algorithm_entry(summary.algorithms, algorithm);
      ++algo.chunks;
      const std::string path = get_string(record, "path");
      if (path == "online") ++algo.online_chunks;
      else if (path == "table") ++algo.table_chunks;
      const auto warm = record.find("warm_start");
      if (warm != record.end() &&
          warm->second.kind == JsonValue::Kind::kBoolean &&
          warm->second.boolean) {
        ++algo.warm_starts;
      }
      algo.nodes_expanded += get_count(record, "nodes");
    } else if (type == "session") {
      ++summary.session_records;
      AlgorithmSummary& algo = algorithm_entry(summary.algorithms, algorithm);
      ++algo.sessions;
      const double qoe = get_number(record, "qoe");
      algo.session_qoe.push_back(qoe);
      algo.qoe_sum += qoe;
      algo.utility_sum += get_number(record, "qoe_utility");
      algo.switch_penalty_sum += get_number(record, "qoe_switch_penalty");
      algo.rebuffer_charge_sum += get_number(record, "qoe_rebuffer_charge");
      algo.startup_charge_sum += get_number(record, "qoe_startup_charge");
      algo.bitrate_kbps_sum += get_number(record, "avg_bitrate_kbps");
      algo.rebuffer_s_sum += get_number(record, "rebuffer_s");
      algo.switches += get_count(record, "switches");
      algo.degraded_chunks += get_count(record, "degraded");
      algo.skipped_chunks += get_count(record, "skipped");
      algo.attempts += get_count(record, "attempts");
      algo.faults += get_count(record, "faults");
      algo.aborted_chunks += get_count(record, "aborted");
      algo.partial_chunks += get_count(record, "partial");
      algo.resumes += get_count(record, "resumes");
      algo.wasted_kb += get_number(record, "wasted_kb");
    }
    // Unknown record types are skipped: the schema may grow and old
    // abrreport builds should still summarize what they understand.
  }
  std::sort(summary.algorithms.begin(), summary.algorithms.end(),
            [](const AlgorithmSummary& a, const AlgorithmSummary& b) {
              return a.algorithm < b.algorithm;
            });
  return summary;
}

ReportSummary load_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("abrreport: cannot open " + path);
  }
  return summarize_journal(in);
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::min(rank == 0 ? 0 : rank - 1, samples.size() - 1)];
}

namespace {

void append_row(std::string& out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void append_row(std::string& out, const char* format, ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof buffer, format, args);
  va_end(args);
  out += buffer;
}

double per_session(double sum, std::size_t sessions) {
  return sessions > 0 ? sum / static_cast<double>(sessions) : 0.0;
}

}  // namespace

std::string render_report(const ReportSummary& summary) {
  std::string out;
  append_row(out, "journal: %zu lines (%zu chunk, %zu session records",
             summary.lines, summary.chunk_records, summary.session_records);
  if (summary.malformed_lines > 0) {
    append_row(out, ", %zu malformed — first: %s", summary.malformed_lines,
               summary.first_error.c_str());
  }
  out += ")\n\n";

  out += "QoE per session (Fig. 9 style)\n";
  append_row(out, "%-12s %8s %10s %10s %10s %10s %9s %8s\n", "algorithm",
             "sessions", "QoE mean", "QoE p50", "QoE p90", "kbps", "rebuf_s",
             "switches");
  for (const AlgorithmSummary& algo : summary.algorithms) {
    append_row(out, "%-12s %8zu %10.1f %10.1f %10.1f %10.0f %9.2f %8zu\n",
               algo.algorithm.c_str(), algo.sessions,
               per_session(algo.qoe_sum, algo.sessions),
               percentile(algo.session_qoe, 0.50),
               percentile(algo.session_qoe, 0.90),
               per_session(algo.bitrate_kbps_sum, algo.sessions),
               per_session(algo.rebuffer_s_sum, algo.sessions), algo.switches);
  }

  out += "\nEq. (5) attribution, per-session mean (Fig. 11 style)\n";
  append_row(out, "%-12s %10s %10s %10s %10s %12s\n", "algorithm", "utility",
             "-switch", "-rebuffer", "-startup", "= QoE");
  for (const AlgorithmSummary& algo : summary.algorithms) {
    append_row(out, "%-12s %10.1f %10.1f %10.1f %10.1f %12.1f\n",
               algo.algorithm.c_str(),
               per_session(algo.utility_sum, algo.sessions),
               per_session(algo.switch_penalty_sum, algo.sessions),
               per_session(algo.rebuffer_charge_sum, algo.sessions),
               per_session(algo.startup_charge_sum, algo.sessions),
               per_session(algo.qoe_sum, algo.sessions));
  }

  out += "\nsolver and delivery provenance (chunk records)\n";
  append_row(out,
             "%-12s %8s %8s %8s %7s %12s %9s %7s %9s %8s %8s %8s %10s\n",
             "algorithm", "chunks", "online", "table", "warm%", "nodes/chunk",
             "attempts", "faults", "degraded", "skipped", "aborted", "resumed",
             "wasted_kb");
  for (const AlgorithmSummary& algo : summary.algorithms) {
    const double warm_pct =
        algo.chunks > 0 ? 100.0 * static_cast<double>(algo.warm_starts) /
                              static_cast<double>(algo.chunks)
                        : 0.0;
    const double nodes_per_chunk =
        algo.chunks > 0 ? static_cast<double>(algo.nodes_expanded) /
                              static_cast<double>(algo.chunks)
                        : 0.0;
    append_row(out,
               "%-12s %8zu %8zu %8zu %6.1f%% %12.1f %9zu %7zu %9zu %8zu %8zu "
               "%8zu %10.0f\n",
               algo.algorithm.c_str(), algo.chunks, algo.online_chunks,
               algo.table_chunks, warm_pct, nodes_per_chunk, algo.attempts,
               algo.faults, algo.degraded_chunks, algo.skipped_chunks,
               algo.aborted_chunks, algo.resumes, algo.wasted_kb);
  }
  return out;
}

int check_metrics_file(const std::string& path, std::ostream& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    out << "abrreport: cannot open " << path << "\n";
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::vector<obs::ExpositionIssue> issues =
      obs::validate_prometheus_text(buffer.str());
  if (issues.empty()) {
    out << path << ": valid Prometheus text exposition\n";
    return 0;
  }
  out << path << ": " << issues.size() << " exposition issue"
      << (issues.size() == 1 ? "" : "s") << "\n"
      << obs::format_exposition_issues(issues);
  return 1;
}

}  // namespace abr::tools
