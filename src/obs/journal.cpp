#include "obs/journal.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/names.hpp"

namespace abr::obs {

namespace {

/// Builds one flat JSON object; keys are emitted in call order, so a given
/// entry type always serializes its fields in the same sequence.
class LineBuilder {
 public:
  void string(const char* key, std::string_view value) {
    field(key) += '"';
    line_ += util::json_escape(value);
    line_ += '"';
  }
  void number(const char* key, double value) {
    field(key) += util::json_number(value);
  }
  void integer(const char* key, std::size_t value) {
    field(key) += std::to_string(value);
  }
  void boolean(const char* key, bool value) {
    field(key) += value ? "true" : "false";
  }
  std::string finish() {
    line_ += '}';
    return std::move(line_);
  }

 private:
  std::string& field(const char* key) {
    line_ += line_.empty() ? '{' : ',';
    line_ += '"';
    line_ += key;
    line_ += "\":";
    return line_;
  }
  std::string line_;
};

}  // namespace

Journal::Journal(std::ostream& out)
    : out_(&out),
      records_counter_(
          &MetricsRegistry::global().counter(kJournalRecordsTotal)) {}

Journal::Journal(const std::string& path)
    : owned_(std::make_unique<std::ofstream>(path, std::ios::binary)),
      out_(owned_.get()),
      records_counter_(
          &MetricsRegistry::global().counter(kJournalRecordsTotal)) {
  if (!*owned_) {
    throw std::runtime_error("Journal: cannot open " + path);
  }
}

void Journal::write_line(const std::string& line) {
  const util::MutexLock lock(mutex_);
  *out_ << line << '\n';
  ++records_;
  records_counter_->increment();
}

void Journal::flush() {
  const util::MutexLock lock(mutex_);
  out_->flush();
}

std::size_t Journal::records() const {
  const util::MutexLock lock(mutex_);
  return records_;
}

void Journal::chunk(const ChunkJournalEntry& entry) {
  LineBuilder line;
  line.string("type", "chunk");
  line.string("session", entry.session);
  line.string("algo", entry.algorithm);
  line.integer("chunk", entry.chunk);
  line.integer("level", entry.level);
  line.number("t_s", entry.t_s);
  line.number("bitrate_kbps", entry.bitrate_kbps);
  line.number("download_s", entry.download_s);
  line.number("throughput_kbps", entry.throughput_kbps);
  line.number("buffer_before_s", entry.buffer_before_s);
  line.number("buffer_after_s", entry.buffer_after_s);
  line.number("rebuffer_s", entry.rebuffer_s);
  line.number("wait_s", entry.wait_s);
  line.number("qoe_utility", entry.qoe_utility);
  line.number("qoe_switch_penalty", entry.qoe_switch_penalty);
  line.number("qoe_rebuffer_charge", entry.qoe_rebuffer_charge);
  line.number("qoe_chunk", entry.qoe_chunk);
  line.number("qoe_cum", entry.qoe_cumulative);
  line.number("predicted_kbps", entry.predicted_kbps);
  line.number("effective_kbps", entry.effective_kbps);
  line.number("error_window", entry.error_window);
  line.integer("nodes", entry.nodes_expanded);
  line.boolean("warm_start", entry.warm_start);
  line.string("path", entry.solver_path);
  line.integer("origin", entry.origin);
  line.integer("attempts", entry.attempts);
  line.integer("faults", entry.faults);
  line.boolean("degraded", entry.degraded);
  line.boolean("skipped", entry.skipped);
  line.boolean("aborted", entry.aborted);
  line.boolean("partial", entry.partial);
  line.number("wasted_kb", entry.wasted_kb);
  line.integer("resumed_from_byte", entry.resumed_from_byte);
  write_line(line.finish());
}

void Journal::session(const SessionJournalEntry& entry) {
  LineBuilder line;
  line.string("type", "session");
  line.string("session", entry.session);
  line.string("algo", entry.algorithm);
  line.integer("chunks", entry.chunks);
  line.number("duration_s", entry.duration_s);
  line.number("startup_delay_s", entry.startup_delay_s);
  line.number("qoe", entry.qoe);
  line.number("qoe_utility", entry.qoe_utility);
  line.number("qoe_switch_penalty", entry.qoe_switch_penalty);
  line.number("qoe_rebuffer_charge", entry.qoe_rebuffer_charge);
  line.number("qoe_startup_charge", entry.qoe_startup_charge);
  line.number("avg_bitrate_kbps", entry.average_bitrate_kbps);
  line.number("rebuffer_s", entry.rebuffer_s);
  line.integer("switches", entry.switches);
  line.integer("degraded", entry.degraded_chunks);
  line.integer("skipped", entry.skipped_chunks);
  line.integer("attempts", entry.attempts);
  line.integer("faults", entry.faults);
  line.integer("aborted", entry.aborted_chunks);
  line.integer("partial", entry.partial_chunks);
  line.integer("resumes", entry.resumes);
  line.number("wasted_kb", entry.wasted_kb);
  write_line(line.finish());
}

}  // namespace abr::obs
