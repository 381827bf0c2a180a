#pragma once

// Benchmark-side tracing: spans recorded at the public layer boundaries the
// workloads call, plus the forwarding decorators that record them. Nothing
// here reaches inside src/; every span brackets a call into a library
// interface (BitrateController, ThroughputPredictor, ChunkSource, the
// journal's std::ostream sink, HttpClient).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "predict/predictor.hpp"
#include "sim/chunk_source.hpp"
#include "sim/controller.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// What a span brackets; the layer each kind belongs to is in parentheses.
enum class SpanKind : std::uint8_t {
  kSession,    ///< one PlayerSession::run (sim)
  kDecide,     ///< BitrateController::decide (core)
  kPredict,    ///< ThroughputPredictor::predict (predict)
  kFetch,      ///< ChunkSource::fetch / fetch_controlled (sim source)
  kSinkWrite,  ///< one write into the journal's stream sink (obs)
  kRequest,    ///< one HttpClient::request, client-observed (net)
  kBody,       ///< first body byte to last, inside a request (net)
  kCount,
};

const char* span_name(SpanKind kind);

/// One recorded span. `parent` indexes the same log (kNoParent for roots);
/// `id` is the session or request the span belongs to.
struct Span {
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint32_t parent = kNoParent;
  SpanKind kind = SpanKind::kSession;
};

/// Per-thread, append-only span log. Workloads fold it into SpanTotals and
/// clear it after each unit of work (a session, a batch of requests), so memory stays bounded by one unit's spans.
class SpanLog {
 public:
  /// Opens a span under the innermost open span; returns its index.
  std::uint32_t open(SpanKind kind, std::uint64_t id);
  void close(std::uint32_t index);

  /// Records an already-finished span under the innermost open span.
  void add(SpanKind kind, std::uint64_t id, std::int64_t start_ns,
           std::int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  /// Drops every span; only valid while no span is open.
  void clear() { spans_.clear(); }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  ///< stack of open span indices
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, SpanKind kind, std::uint64_t id)
      : log_(log), index_(log.open(kind, id)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::uint32_t index_;
};

/// Totals derived from a span log: per kind, the summed duration, the summed
/// self time (duration minus the time its direct children cover), and the
/// durations in microseconds of the first kMaxDurations spans, for
/// percentiles (a traced run makes millions of spans; the first million of
/// a kind cover many whole passes).
struct SpanTotals {
  static constexpr std::size_t kMaxDurations = std::size_t{1} << 20;
  double total_s[static_cast<int>(SpanKind::kCount)] = {};
  double self_s[static_cast<int>(SpanKind::kCount)] = {};
  std::vector<double> durations_us[static_cast<int>(SpanKind::kCount)];

  void add(const std::vector<Span>& spans);
  double total(SpanKind kind) const { return total_s[static_cast<int>(kind)]; }
  double self(SpanKind kind) const { return self_s[static_cast<int>(kind)]; }
  const std::vector<double>& durations(SpanKind kind) const {
    return durations_us[static_cast<int>(kind)];
  }
};

/// Writes spans as CSV rows (kind,id,parent,start_ns,end_ns) to a file,
/// up to a row budget so a long traced run leaves a bounded artifact. Each
/// write() appends a folded log; parents are rebased to file row numbers.
class SpanDump {
 public:
  SpanDump(std::string path, std::size_t max_rows)
      : path_(std::move(path)), max_rows_(max_rows) {}

  /// Appends spans while the budget lasts. Returns false on an I/O error.
  bool write(const std::vector<Span>& spans);

 private:
  std::string path_;
  std::size_t max_rows_;
  std::size_t rows_ = 0;
  bool started_ = false;
};

/// Forwards every BitrateController member to `inner`, recording a kDecide
/// span around decide() and counting calls and solver nodes (from
/// last_decision(), read right after each decide).
class TracedController final : public abr::sim::BitrateController {
 public:
  TracedController(abr::sim::BitrateController& inner, SpanLog& log)
      : inner_(&inner), log_(&log) {}

  std::size_t decide(const abr::sim::AbrState& state,
                     const abr::media::VideoManifest& manifest) override;
  std::size_t prediction_horizon() const override {
    return inner_->prediction_horizon();
  }
  void reset() override { inner_->reset(); }
  const abr::sim::DecisionTelemetry* last_decision() const override {
    return inner_->last_decision();
  }
  std::string name() const override { return inner_->name(); }

  void set_id(std::uint64_t id) { id_ = id; }
  std::uint64_t calls() const { return calls_; }
  std::uint64_t nodes() const { return nodes_; }

 private:
  abr::sim::BitrateController* inner_;
  SpanLog* log_;
  std::uint64_t id_ = 0;
  std::uint64_t calls_ = 0;
  std::uint64_t nodes_ = 0;
};

/// Forwards ThroughputPredictor calls, recording a kPredict span each.
class TracedPredictor final : public abr::predict::ThroughputPredictor {
 public:
  TracedPredictor(abr::predict::ThroughputPredictor& inner, SpanLog& log)
      : inner_(&inner), log_(&log) {}

  std::vector<double> predict(const abr::predict::PredictionInput& input,
                              std::size_t horizon) override;
  std::string name() const override { return inner_->name(); }

  void set_id(std::uint64_t id) { id_ = id; }
  std::uint64_t calls() const { return calls_; }

 private:
  abr::predict::ThroughputPredictor* inner_;
  SpanLog* log_;
  std::uint64_t id_ = 0;
  std::uint64_t calls_ = 0;
};

/// Forwards every ChunkSource member, recording a kFetch span around fetch()
/// and fetch_controlled().
class TracedSource final : public abr::sim::ChunkSource {
 public:
  TracedSource(abr::sim::ChunkSource& inner, SpanLog& log, std::uint64_t id)
      : inner_(&inner), log_(&log), id_(id) {}

  abr::sim::FetchOutcome fetch(std::size_t chunk, std::size_t level) override;
  abr::sim::FetchOutcome fetch_controlled(
      std::size_t chunk, std::size_t level,
      const abr::sim::FetchControl& control) override;
  bool supports_range() const override { return inner_->supports_range(); }
  void wait(double seconds) override { inner_->wait(seconds); }
  double now() const override { return inner_->now(); }
  const abr::trace::ThroughputTrace* truth() const override {
    return inner_->truth();
  }

 private:
  abr::sim::ChunkSource* inner_;
  SpanLog* log_;
  std::uint64_t id_;
};

/// In-memory journal sink: appends every byte to a reusable buffer and
/// counts them. With a span log attached, each write is a kSinkWrite span.
class MemorySink final : public std::streambuf {
 public:
  explicit MemorySink(SpanLog* log = nullptr) : log_(log) {}

  /// Drops the buffered text (capacity is kept); the byte count keeps going.
  void clear_buffer() { buffer_.clear(); }
  const std::string& buffer() const { return buffer_; }
  std::uint64_t bytes() const { return bytes_; }

 protected:
  std::streamsize xsputn(const char* data, std::streamsize count) override;
  int_type overflow(int_type ch) override;

 private:
  SpanLog* log_;
  std::string buffer_;
  std::uint64_t bytes_ = 0;
};

}  // namespace perfbench
