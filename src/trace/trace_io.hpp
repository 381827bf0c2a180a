#pragma once

#include <string>
#include <vector>

#include "trace/throughput_trace.hpp"

namespace abr::trace {

/// Serializes a trace as CSV with header "duration_s,rate_kbps". Each
/// number is util::json_number's text, which reads back as the same double
/// (a rate of -0 as 0), so from_csv(to_csv(t)) has t's segments.
std::string to_csv(const ThroughputTrace& trace);

/// Parses the CSV format written by to_csv. Throws std::invalid_argument on
/// malformed input.
ThroughputTrace from_csv(std::string_view text, std::string name = {});

/// Writes a trace to a file. Throws std::runtime_error on I/O failure.
void save_csv(const ThroughputTrace& trace, const std::string& path);

/// Reads a trace from a file written by save_csv.
ThroughputTrace load_csv(const std::string& path);

/// Saves every trace in `traces` as `<directory>/<prefix>-<index>.csv`.
/// Creates the directory if needed.
void save_dataset(const std::vector<ThroughputTrace>& traces,
                  const std::string& directory, const std::string& prefix);

/// Loads every `*.csv` in a directory (sorted by filename).
std::vector<ThroughputTrace> load_dataset(const std::string& directory);

}  // namespace abr::trace
