#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"

// abrreport: offline summarizer for the structured session journal
// (obs::Journal JSONL) and validator for Prometheus scrape bodies. Reads
// the one-object-per-line records abrsim/multiplayer emit and renders the
// per-algorithm tables of the paper's evaluation (Fig. 9's QoE comparison,
// Fig. 11's attribution breakdown), plus solver/delivery columns the paper
// aggregates by hand. `--check-metrics` reuses obs::validate_prometheus_text
// so CI's telemetry smoke job and local scrapes gate on one validator.

namespace abr::tools {

/// One scalar from a flat journal record: a string, number, or boolean.
/// The journal schema is flat by design (no nesting).
using JsonValue = util::Json;

/// One parsed journal line, keyed by field name.
using JsonObject = std::map<std::string, JsonValue>;

/// Parses one journal record: a JSON document (util::parse_json) whose top
/// level is an object and whose values are all strings, numbers, or
/// booleans. Returns false and sets `error` on malformed input; `out` is
/// cleared first either way.
bool parse_flat_json(const std::string& line, JsonObject& out,
                     std::string& error);

/// Per-algorithm aggregate over the journal's session and chunk records.
struct AlgorithmSummary {
  std::string algorithm;

  // From "session" records.
  std::size_t sessions = 0;
  std::vector<double> session_qoe;  ///< one entry per session record
  double qoe_sum = 0.0;
  double utility_sum = 0.0;
  double switch_penalty_sum = 0.0;
  double rebuffer_charge_sum = 0.0;
  double startup_charge_sum = 0.0;
  double bitrate_kbps_sum = 0.0;  ///< sum of per-session averages
  double rebuffer_s_sum = 0.0;
  std::size_t switches = 0;
  std::size_t degraded_chunks = 0;
  std::size_t skipped_chunks = 0;
  std::size_t attempts = 0;
  std::size_t faults = 0;
  // Sub-chunk delivery attribution (absent in pre-abort journals => 0).
  std::size_t aborted_chunks = 0;
  std::size_t partial_chunks = 0;
  std::size_t resumes = 0;
  double wasted_kb = 0.0;

  // From "chunk" records (solver provenance).
  std::size_t chunks = 0;
  std::size_t online_chunks = 0;  ///< solver_path == "online"
  std::size_t table_chunks = 0;   ///< solver_path == "table"
  std::size_t warm_starts = 0;
  std::size_t nodes_expanded = 0;
};

/// Whole-journal aggregate.
struct ReportSummary {
  std::size_t lines = 0;
  std::size_t chunk_records = 0;
  std::size_t session_records = 0;
  std::size_t malformed_lines = 0;
  std::string first_error;  ///< first parse error, "" when none
  std::vector<AlgorithmSummary> algorithms;  ///< sorted by algorithm name
};

/// Aggregates a journal stream (JSONL, one record per line).
ReportSummary summarize_journal(std::istream& in);

/// Opens and aggregates `path`; throws std::runtime_error when unreadable.
ReportSummary load_journal(const std::string& path);

/// Nearest-rank percentile (q in [0,1]) over an unsorted sample; 0 when
/// empty.
double percentile(std::vector<double> samples, double q);

/// Renders the per-algorithm QoE table (Fig. 9 style), the Eq. (5)
/// attribution breakdown (Fig. 11 style), and solver/delivery columns.
std::string render_report(const ReportSummary& summary);

/// Validates `path` as Prometheus text exposition, writing issues to `out`.
/// Returns 0 when valid, 1 when issues were found, 2 when unreadable.
int check_metrics_file(const std::string& path, std::ostream& out);

}  // namespace abr::tools
