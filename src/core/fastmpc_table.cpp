#include "core/fastmpc_table.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/horizon_solver.hpp"
#include "obs/names.hpp"
#include "obs/span.hpp"
#include "util/parallel.hpp"

namespace abr::core {

namespace {

constexpr char kMagic[8] = {'F', 'M', 'P', 'C', 'T', 'B', 'L', '1'};

void append_u32(std::string& out, std::uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out.append(buf, 4);
}

void append_f64(std::string& out, double v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    std::memcpy(&v, bytes_.data() + pos_, 4);
    pos_ += 4;
    return v;
  }

  double f64() {
    need(8);
    double v = 0.0;
    std::memcpy(&v, bytes_.data() + pos_, 8);
    pos_ += 8;
    return v;
  }

  std::string_view rest() const { return bytes_.substr(pos_); }

  void expect_magic() {
    need(8);
    if (std::memcmp(bytes_.data(), kMagic, 8) != 0) {
      throw std::invalid_argument("FastMpcTable: bad magic");
    }
    pos_ += 8;
  }

 private:
  void need(std::size_t n) const {
    if (bytes_.size() - pos_ < n) {
      throw std::invalid_argument("FastMpcTable: truncated input");
    }
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

FastMpcTable::FastMpcTable(FastMpcConfig config, std::vector<double> ladder,
                           double chunk_duration_s,
                           util::RleSequence decisions)
    : config_(config),
      ladder_(std::move(ladder)),
      chunk_duration_s_(chunk_duration_s),
      buffer_binner_(0.0, config.buffer_capacity_s, config.buffer_bins),
      throughput_binner_(config.throughput_lo_kbps, config.throughput_hi_kbps,
                         config.throughput_bins),
      decisions_(std::move(decisions)),
      lookup_histogram_(&obs::MetricsRegistry::global().histogram(
          obs::kSolveLatencyUs, obs::solve_algorithm_label("FastMPC"))) {
  if (ladder_.empty()) {
    throw std::invalid_argument("FastMpcTable: empty ladder");
  }
  if (decisions_.size() != cell_count()) {
    throw std::invalid_argument("FastMpcTable: decision count mismatch");
  }
  if (config_.flat_lookup) {
    flat_decisions_ = util::rle_decode(decisions_.runs());
  }
}

std::size_t FastMpcTable::cell_count() const {
  return config_.buffer_bins * ladder_.size() * config_.throughput_bins;
}

std::size_t FastMpcTable::flat_index(std::size_t buffer_bin,
                                     std::size_t prev_level,
                                     std::size_t throughput_bin) const {
  // Buffer is the innermost dimension: the optimal decision changes slowly
  // along the buffer axis, which maximizes run lengths for the RLE
  // compression of Section 5.2.
  return (throughput_bin * ladder_.size() + prev_level) * config_.buffer_bins +
         buffer_bin;
}

FastMpcTable FastMpcTable::build(const media::VideoManifest& manifest,
                                 const qoe::QoeModel& qoe,
                                 FastMpcConfig config,
                                 FastMpcBuildStats* stats) {
  if (config.buffer_bins == 0 || config.throughput_bins == 0 ||
      config.horizon == 0) {
    throw std::invalid_argument("FastMpcConfig: zero dimension");
  }
  // The offline solves run against a chunk-agnostic CBR video with the same
  // ladder: `horizon` identical chunks suffice.
  const media::VideoManifest generic = media::VideoManifest::cbr(
      config.horizon, manifest.chunk_duration_s(), manifest.bitrates_kbps());

  const std::size_t levels = generic.level_count();
  const util::LinearBinner buffer_binner(0.0, config.buffer_capacity_s,
                                         config.buffer_bins);
  const util::LogBinner throughput_binner(config.throughput_lo_kbps,
                                          config.throughput_hi_kbps,
                                          config.throughput_bins);

  std::vector<std::uint8_t> decisions(config.buffer_bins * levels *
                                      config.throughput_bins);
  std::atomic<std::size_t> total_nodes{0};

  // One task per throughput bin (the outermost table dimension); workers
  // solve the full (previous level x buffer bin) plane of that bin,
  // sweeping the buffer dimension in order and seeding each solve with the
  // neighboring cell's solution (warm_start). A throwing solve propagates
  // out of parallel_for instead of terminating.
  const auto build_start = std::chrono::steady_clock::now();
  util::parallel_for(
      config.throughput_bins,
      [&](std::size_t c) {
        const std::vector<double> forecast(config.horizon,
                                           throughput_binner.center(c));
        HorizonSolver solver(generic, qoe);
        HorizonSolver::Workspace workspace;
        std::vector<std::size_t> neighbor_plan;
        std::size_t bin_nodes = 0;
        for (std::size_t prev = 0; prev < levels; ++prev) {
          for (std::size_t b = 0; b < config.buffer_bins; ++b) {
            HorizonProblem problem;
            problem.buffer_s = buffer_binner.center(b);
            problem.prev_level = prev;
            problem.has_prev = true;
            problem.predicted_kbps = forecast;
            problem.first_chunk = 0;
            problem.buffer_capacity_s = config.buffer_capacity_s;
            if (config.warm_start) problem.warm_hint = neighbor_plan;
            HorizonSolution solution = solver.solve(problem, workspace);
            decisions[(c * levels + prev) * config.buffer_bins + b] =
                static_cast<std::uint8_t>(solution.levels.front());
            bin_nodes += solution.nodes_expanded;
            if (config.warm_start) {
              neighbor_plan = std::move(solution.levels);
            }
          }
        }
        total_nodes.fetch_add(bin_nodes, std::memory_order_relaxed);
      },
      config.threads);
  const double build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    build_start)
          .count();
  obs::MetricsRegistry::global()
      .histogram(obs::kTableBuildSeconds, "",
                 obs::exponential_buckets(0.001, 2.0, 20))
      .observe(build_seconds);
  if (stats != nullptr) {
    stats->total_nodes_expanded = total_nodes.load(std::memory_order_relaxed);
    stats->solves = decisions.size();
    stats->wall_seconds = build_seconds;
  }

  return FastMpcTable(config, manifest.bitrates_kbps(),
                      manifest.chunk_duration_s(),
                      util::RleSequence::from_raw(decisions));
}

std::size_t FastMpcTable::lookup(double buffer_s, std::size_t prev_level,
                                 double throughput_kbps) const {
  assert(prev_level < ladder_.size());
  obs::LatencyTimer timer(lookup_histogram_);
  const std::size_t b = buffer_binner_.bin(buffer_s);
  const std::size_t c = throughput_binner_.bin(throughput_kbps);
  const std::size_t index = flat_index(b, prev_level, c);
  if (!flat_decisions_.empty()) return flat_decisions_[index];
  return decisions_.at(index);
}

std::string FastMpcTable::serialize() const {
  std::string out;
  out.append(kMagic, 8);
  append_u32(out, static_cast<std::uint32_t>(config_.buffer_bins));
  append_u32(out, static_cast<std::uint32_t>(config_.throughput_bins));
  append_u32(out, static_cast<std::uint32_t>(config_.horizon));
  append_u32(out, static_cast<std::uint32_t>(ladder_.size()));
  append_f64(out, config_.throughput_lo_kbps);
  append_f64(out, config_.throughput_hi_kbps);
  append_f64(out, config_.buffer_capacity_s);
  append_f64(out, chunk_duration_s_);
  for (const double rate : ladder_) append_f64(out, rate);
  out += decisions_.serialize();
  return out;
}

FastMpcTable FastMpcTable::deserialize(std::string_view bytes) {
  Reader reader(bytes);
  reader.expect_magic();
  FastMpcConfig config;
  config.buffer_bins = reader.u32();
  config.throughput_bins = reader.u32();
  config.horizon = reader.u32();
  const std::uint32_t levels = reader.u32();
  config.throughput_lo_kbps = reader.f64();
  config.throughput_hi_kbps = reader.f64();
  config.buffer_capacity_s = reader.f64();
  const double chunk_duration_s = reader.f64();
  if (levels == 0 || levels > 255) {
    throw std::invalid_argument("FastMpcTable: bad level count");
  }
  std::vector<double> ladder(levels);
  for (double& rate : ladder) rate = reader.f64();
  util::RleSequence decisions = util::RleSequence::deserialize(reader.rest());
  // Validate decision values are in range.
  for (const util::RleRun& run : decisions.runs()) {
    if (run.value >= levels) {
      throw std::invalid_argument("FastMpcTable: decision out of range");
    }
  }
  return FastMpcTable(config, std::move(ladder), chunk_duration_s,
                      std::move(decisions));
}

void FastMpcTable::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("FastMpcTable: cannot write " + path);
  const std::string bytes = serialize();
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("FastMpcTable: write failed " + path);
}

FastMpcTable FastMpcTable::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("FastMpcTable: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return deserialize(buffer.str());
}

bool operator==(const FastMpcTable& a, const FastMpcTable& b) {
  // `threads` is a build-time knob, not table content; everything else must
  // match (bins, ranges, horizon, ladder, and every decision).
  const FastMpcConfig& ca = a.config_;
  const FastMpcConfig& cb = b.config_;
  return ca.buffer_bins == cb.buffer_bins &&
         ca.throughput_bins == cb.throughput_bins &&
         ca.throughput_lo_kbps == cb.throughput_lo_kbps &&
         ca.throughput_hi_kbps == cb.throughput_hi_kbps &&
         ca.horizon == cb.horizon &&
         ca.buffer_capacity_s == cb.buffer_capacity_s &&
         a.ladder_ == b.ladder_ &&
         a.chunk_duration_s_ == b.chunk_duration_s_ &&
         a.decisions_ == b.decisions_;
}

FastMpcController::FastMpcController(std::shared_ptr<const FastMpcTable> table)
    : table_(std::move(table)) {
  if (table_ == nullptr) {
    throw std::invalid_argument("FastMpcController: null table");
  }
}

std::size_t FastMpcController::prediction_horizon() const {
  return table_->config().horizon;
}

std::size_t FastMpcController::decide(const sim::AbrState& state,
                                      const media::VideoManifest& manifest) {
  if (manifest.level_count() != table_->level_count()) {
    throw std::logic_error("FastMpcController: manifest/table ladder mismatch");
  }
  if (state.prediction_kbps.empty() || state.prediction_kbps.front() <= 0.0) {
    telemetry_ = sim::DecisionTelemetry{};  // cold start is a rule decision
    return 0;  // no throughput information yet: start lowest
  }
  const std::size_t prev = state.has_prev ? state.prev_level : 0;
  telemetry_ = sim::DecisionTelemetry{};
  telemetry_.path = "table";
  telemetry_.effective_forecast_kbps = state.prediction_kbps.front();
  return table_->lookup(state.buffer_s, prev, state.prediction_kbps.front());
}

}  // namespace abr::core
