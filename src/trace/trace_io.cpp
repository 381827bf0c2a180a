#include "trace/trace_io.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace abr::trace {

std::string to_csv(const ThroughputTrace& trace) {
  std::string out = "duration_s,rate_kbps\n";
  for (const TraceSegment& seg : trace.segments()) {
    out += util::json_number(seg.duration_s);
    out += ',';
    out += util::json_number(seg.rate_kbps);
    out += '\n';
  }
  return out;
}

ThroughputTrace from_csv(std::string_view text, std::string name) {
  const util::CsvTable table = util::CsvTable::parse(text, /*has_header=*/true);
  if (table.column_count() != 2) {
    throw std::invalid_argument("trace CSV: expected 2 columns");
  }
  std::vector<TraceSegment> segments;
  segments.reserve(table.row_count());
  for (std::size_t r = 0; r < table.row_count(); ++r) {
    segments.push_back({table.number(r, 0), table.number(r, 1)});
  }
  return ThroughputTrace(std::move(segments), std::move(name));
}

void save_csv(const ThroughputTrace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("trace: cannot write " + path);
  out << to_csv(trace);
  if (!out) throw std::runtime_error("trace: write failed for " + path);
}

ThroughputTrace load_csv(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("trace: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_csv(buffer.str(), std::filesystem::path(path).stem().string());
}

void save_dataset(const std::vector<ThroughputTrace>& traces,
                  const std::string& directory, const std::string& prefix) {
  std::filesystem::create_directories(directory);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const std::string path =
        directory + "/" + prefix + "-" + std::to_string(i) + ".csv";
    save_csv(traces[i], path);
  }
}

std::vector<ThroughputTrace> load_dataset(const std::string& directory) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(directory)) {
    if (entry.is_regular_file() && entry.path().extension() == ".csv") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<ThroughputTrace> traces;
  traces.reserve(paths.size());
  for (const auto& path : paths) traces.push_back(load_csv(path.string()));
  return traces;
}

}  // namespace abr::trace
