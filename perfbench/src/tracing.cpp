#include "tracing.hpp"

#include <fstream>

namespace perfbench {

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSession:
      return "session";
    case SpanKind::kDecide:
      return "decide";
    case SpanKind::kPredict:
      return "predict";
    case SpanKind::kFetch:
      return "fetch";
    case SpanKind::kSinkWrite:
      return "sink_write";
    case SpanKind::kRequest:
      return "request";
    case SpanKind::kBody:
      return "body";
    case SpanKind::kCount:
      break;
  }
  return "?";
}

std::uint32_t SpanLog::open(SpanKind kind, std::uint64_t id) {
  Span span;
  span.kind = kind;
  span.id = id;
  span.parent = open_.empty() ? Span::kNoParent : open_.back();
  const auto index = static_cast<std::uint32_t>(spans_.size());
  open_.push_back(index);
  span.start_ns = now_ns();
  spans_.push_back(span);
  return index;
}

void SpanLog::close(std::uint32_t index) {
  spans_[index].end_ns = now_ns();
  open_.pop_back();
}

void SpanLog::add(SpanKind kind, std::uint64_t id, std::int64_t start_ns,
                  std::int64_t end_ns) {
  Span span;
  span.kind = kind;
  span.id = id;
  span.parent = open_.empty() ? Span::kNoParent : open_.back();
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

void SpanTotals::add(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double seconds =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    self[i] += seconds;
    if (spans[i].parent != Span::kNoParent) self[spans[i].parent] -= seconds;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto kind = static_cast<int>(spans[i].kind);
    const double seconds =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    total_s[kind] += seconds;
    self_s[kind] += self[i];
    if (durations_us[kind].size() < kMaxDurations) {
      durations_us[kind].push_back(seconds * 1e6);
    }
  }
}

bool SpanDump::write(const std::vector<Span>& spans) {
  if (rows_ >= max_rows_ || spans.empty()) return true;
  std::ofstream out(path_, started_ ? std::ios::app : std::ios::trunc);
  if (!out) return false;
  if (!started_) out << "kind,id,parent,start_ns,end_ns\n";
  started_ = true;
  const std::int64_t origin = spans.front().start_ns;
  const std::size_t base = rows_;
  for (const Span& span : spans) {
    if (rows_ >= max_rows_) break;
    out << span_name(span.kind) << ',' << span.id << ',';
    if (span.parent == Span::kNoParent) {
      out << -1;
    } else {
      out << base + span.parent;
    }
    out << ',' << span.start_ns - origin << ',' << span.end_ns - origin
        << '\n';
    ++rows_;
  }
  return static_cast<bool>(out);
}

std::size_t TracedController::decide(
    const abr::sim::AbrState& state,
    const abr::media::VideoManifest& manifest) {
  std::size_t level = 0;
  {
    const ScopedSpan span(*log_, SpanKind::kDecide, id_);
    level = inner_->decide(state, manifest);
  }
  ++calls_;
  if (const abr::sim::DecisionTelemetry* telemetry = inner_->last_decision()) {
    nodes_ += telemetry->nodes_expanded;
  }
  return level;
}

std::vector<double> TracedPredictor::predict(
    const abr::predict::PredictionInput& input, std::size_t horizon) {
  ++calls_;
  const ScopedSpan span(*log_, SpanKind::kPredict, id_);
  return inner_->predict(input, horizon);
}

abr::sim::FetchOutcome TracedSource::fetch(std::size_t chunk,
                                           std::size_t level) {
  const ScopedSpan span(*log_, SpanKind::kFetch, id_);
  return inner_->fetch(chunk, level);
}

abr::sim::FetchOutcome TracedSource::fetch_controlled(
    std::size_t chunk, std::size_t level,
    const abr::sim::FetchControl& control) {
  const ScopedSpan span(*log_, SpanKind::kFetch, id_);
  return inner_->fetch_controlled(chunk, level, control);
}

std::streamsize MemorySink::xsputn(const char* data, std::streamsize count) {
  const std::int64_t start = log_ != nullptr ? now_ns() : 0;
  buffer_.append(data, static_cast<std::size_t>(count));
  bytes_ += static_cast<std::uint64_t>(count);
  if (log_ != nullptr) log_->add(SpanKind::kSinkWrite, 0, start, now_ns());
  return count;
}

MemorySink::int_type MemorySink::overflow(int_type ch) {
  if (traits_type::eq_int_type(ch, traits_type::eof())) {
    return traits_type::not_eof(ch);
  }
  const char c = traits_type::to_char_type(ch);
  xsputn(&c, 1);
  return ch;
}

}  // namespace perfbench
