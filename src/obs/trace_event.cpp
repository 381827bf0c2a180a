#include "obs/trace_event.hpp"

#include <cmath>
#include <fstream>
#include <stdexcept>

#include "util/json.hpp"

namespace abr::obs {

namespace {

std::int64_t to_us(double seconds) {
  return static_cast<std::int64_t>(std::llround(seconds * 1e6));
}

void append_args(std::string& out, const std::vector<TraceArg>& args) {
  out += "{";
  bool first = true;
  for (const TraceArg& arg : args) {
    if (!first) out += ",";
    first = false;
    out += '"' + util::json_escape(arg.key) + '"';
    out += ":";
    if (const auto* i = std::get_if<std::int64_t>(&arg.value)) {
      out += std::to_string(*i);
    } else if (const auto* d = std::get_if<double>(&arg.value)) {
      out += util::json_number(*d);
    } else {
      out += '"' + util::json_escape(std::get<std::string>(arg.value)) + '"';
    }
  }
  out += "}";
}

}  // namespace

void TraceWriter::push(TraceEvent event) {
  const util::MutexLock lock(mutex_);
  events_.push_back(std::move(event));
}

void TraceWriter::complete(std::string name, std::string category,
                           double start_s, double duration_s, int tid,
                           std::vector<TraceArg> args) {
  if (!enabled_) return;
  TraceEvent event;
  event.name = std::move(name);
  event.category = std::move(category);
  event.phase = 'X';
  event.ts_us = to_us(start_s);
  event.dur_us = std::max<std::int64_t>(to_us(duration_s), 0);
  event.tid = tid;
  event.args = std::move(args);
  push(std::move(event));
}

void TraceWriter::instant(std::string name, std::string category, double ts_s,
                          int tid, std::vector<TraceArg> args) {
  if (!enabled_) return;
  TraceEvent event;
  event.name = std::move(name);
  event.category = std::move(category);
  event.phase = 'i';
  event.ts_us = to_us(ts_s);
  event.tid = tid;
  event.args = std::move(args);
  push(std::move(event));
}

void TraceWriter::counter(std::string name, double ts_s, double value) {
  if (!enabled_) return;
  TraceEvent event;
  event.name = std::move(name);
  event.phase = 'C';
  event.ts_us = to_us(ts_s);
  event.args.emplace_back("value", value);
  push(std::move(event));
}

void TraceWriter::set_process_name(std::string name, int pid) {
  if (!enabled_) return;
  TraceEvent event;
  event.name = "process_name";
  event.phase = 'M';
  event.pid = pid;
  event.args.emplace_back("name", std::move(name));
  push(std::move(event));
}

void TraceWriter::set_thread_name(std::string name, int tid, int pid) {
  if (!enabled_) return;
  TraceEvent event;
  event.name = "thread_name";
  event.phase = 'M';
  event.pid = pid;
  event.tid = tid;
  event.args.emplace_back("name", std::move(name));
  push(std::move(event));
}

std::size_t TraceWriter::event_count() const {
  const util::MutexLock lock(mutex_);
  return events_.size();
}

std::size_t TraceWriter::event_count(std::string_view name) const {
  const util::MutexLock lock(mutex_);
  std::size_t count = 0;
  for (const TraceEvent& event : events_) {
    if (event.name == name) ++count;
  }
  return count;
}

std::vector<TraceEvent> TraceWriter::events() const {
  const util::MutexLock lock(mutex_);
  return events_;
}

void TraceWriter::write(std::ostream& out) const {
  const util::MutexLock lock(mutex_);
  std::string json;
  json.reserve(events_.size() * 96 + 128);
  json += "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events_) {
    if (!first) json += ",\n";
    first = false;
    json += "{\"name\":";
    json += '"' + util::json_escape(event.name) + '"';
    if (!event.category.empty()) {
      json += ",\"cat\":";
      json += '"' + util::json_escape(event.category) + '"';
    }
    json += ",\"ph\":\"";
    json += event.phase;
    json += "\"";
    if (event.phase != 'M') {
      json += ",\"ts\":" + std::to_string(event.ts_us);
    }
    if (event.phase == 'X') {
      json += ",\"dur\":" + std::to_string(event.dur_us);
    }
    if (event.phase == 'i') {
      json += ",\"s\":\"t\"";  // instant scope: thread
    }
    json += ",\"pid\":" + std::to_string(event.pid);
    json += ",\"tid\":" + std::to_string(event.tid);
    if (!event.args.empty()) {
      json += ",\"args\":";
      append_args(json, event.args);
    }
    json += "}";
  }
  json += "],\"displayTimeUnit\":\"ms\",";
  json += "\"otherData\":{\"generator\":\"mpc-abr/obs\"}}";
  out << json;
}

void TraceWriter::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("TraceWriter: cannot open " + path);
  }
  write(out);
  out << "\n";
}

}  // namespace abr::obs
