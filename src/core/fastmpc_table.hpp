#pragma once

#include <memory>
#include <string>
#include <vector>

#include "media/manifest.hpp"
#include "obs/metrics.hpp"
#include "qoe/qoe.hpp"
#include "sim/controller.hpp"
#include "util/binning.hpp"
#include "util/rle.hpp"

namespace abr::core {

/// Discretization and horizon parameters of the FastMPC table (Section 5).
struct FastMpcConfig {
  /// Bins for the buffer-level dimension (linear over [0, Bmax]); the paper
  /// finds 100 near-optimal (Section 5.2, Fig. 12a).
  std::size_t buffer_bins = 100;

  /// Bins for the predicted-throughput dimension (log-spaced over
  /// [throughput_lo, throughput_hi]).
  std::size_t throughput_bins = 100;
  double throughput_lo_kbps = 50.0;
  double throughput_hi_kbps = 10000.0;

  /// MPC look-ahead horizon used for the offline solves.
  std::size_t horizon = 5;

  /// Bmax assumed during offline solves; must match the player.
  double buffer_capacity_s = 30.0;

  /// Worker threads for the offline enumeration; 0 = hardware concurrency.
  std::size_t threads = 0;

  /// Warm-start the offline enumeration: sweep each throughput bin in
  /// buffer-bin order and seed every solve with its neighbor cell's
  /// solution (adjacent cells differ only in initial buffer). Exactness
  /// preserving — the built table is `==` to a cold build (pinned by test
  /// and by solver_bench); the switch exists so the bench can measure the
  /// node-count collapse.
  bool warm_start = true;

  /// Keep a decoded one-byte-per-cell copy of the table (~50 kB at the
  /// paper's 100x5x100 defaults) and serve lookups from it by direct
  /// indexing instead of the RLE binary search. Representation only:
  /// lookups return identical decisions, serialization stays RLE, and the
  /// Table 1 size accounting is unaffected.
  bool flat_lookup = false;

  friend bool operator==(const FastMpcConfig&, const FastMpcConfig&) = default;
};

/// Offline-enumeration effort report for FastMpcTable::build.
/// total_nodes_expanded and solves are deterministic for a given
/// (manifest, qoe, config) — wall_seconds is not.
struct FastMpcBuildStats {
  std::size_t total_nodes_expanded = 0;  ///< summed over all cell solves
  std::size_t solves = 0;                ///< == cell count
  double wall_seconds = 0.0;
};

/// The FastMPC decision table (Fig. 5 of the paper): for every
/// (buffer bin, previous level, throughput bin) scenario, the optimal first
/// bitrate of the exact horizon solve, computed offline, stored run-length
/// compressed, and queried online by binary search — no solver in the player.
class FastMpcTable {
 public:
  /// Enumerates the scenario space and solves each instance exactly.
  /// Sizes are taken as CBR at the ladder's nominal bitrates (the table is
  /// chunk-agnostic; the paper's test video is CBR). When `stats` is
  /// non-null it receives the enumeration effort (node counts, wall time).
  static FastMpcTable build(const media::VideoManifest& manifest,
                            const qoe::QoeModel& qoe, FastMpcConfig config,
                            FastMpcBuildStats* stats = nullptr);

  /// Optimal ladder index for the scenario closest to the query (clamped
  /// binning, Section 5.1). Served from the decoded flat array when
  /// config().flat_lookup is set, from the RLE binary search otherwise;
  /// both return identical decisions.
  std::size_t lookup(double buffer_s, std::size_t prev_level,
                     double throughput_kbps) const;

  const FastMpcConfig& config() const { return config_; }
  const std::vector<double>& ladder_kbps() const { return ladder_; }
  std::size_t level_count() const { return ladder_.size(); }

  /// Scenario count = buffer_bins * levels * throughput_bins.
  std::size_t cell_count() const;

  // --- Table 1 size accounting -------------------------------------------
  /// Uncompressed binary footprint: one byte per cell.
  std::size_t full_table_bytes() const { return cell_count(); }
  /// Compressed binary footprint (our on-disk format).
  std::size_t rle_binary_bytes() const { return decisions_.binary_size_bytes(); }
  /// Modeled size as JavaScript text, uncompressed ("v,v,v,...").
  std::size_t js_full_bytes() const {
    return decisions_.javascript_full_table_size_bytes();
  }
  /// Modeled size as JavaScript text, run-length coded ("v,len,...").
  std::size_t js_rle_bytes() const {
    return decisions_.javascript_text_size_bytes();
  }
  std::size_t run_count() const { return decisions_.run_count(); }

  /// Binary round-trip (config + ladder + RLE payload). deserialize()
  /// throws std::invalid_argument on malformed input.
  std::string serialize() const;
  static FastMpcTable deserialize(std::string_view bytes);

  void save(const std::string& path) const;
  static FastMpcTable load(const std::string& path);

  friend bool operator==(const FastMpcTable& a, const FastMpcTable& b);

 private:
  FastMpcTable(FastMpcConfig config, std::vector<double> ladder,
               double chunk_duration_s, util::RleSequence decisions);

  std::size_t flat_index(std::size_t buffer_bin, std::size_t prev_level,
                         std::size_t throughput_bin) const;

  FastMpcConfig config_;
  std::vector<double> ladder_;
  double chunk_duration_s_ = 0.0;
  util::LinearBinner buffer_binner_;
  util::LogBinner throughput_binner_;
  util::RleSequence decisions_;
  /// Decoded copy of decisions_ for O(1) lookups; empty unless
  /// config_.flat_lookup. Never serialized (the on-disk format stays RLE).
  std::vector<std::uint8_t> flat_decisions_;
  /// Online lookup latency, labeled algorithm="FastMPC" — the FastMPC half
  /// of the Table 1 overhead comparison against the MPC solve histogram.
  obs::Histogram* lookup_histogram_;
};

/// The online half of FastMPC: a BitrateController that consults a
/// prebuilt table. Adds only a binary search per decision (the paper
/// measures ~zero CPU overhead and ~60 kB of memory, Section 7.4).
class FastMpcController final : public sim::BitrateController {
 public:
  explicit FastMpcController(std::shared_ptr<const FastMpcTable> table);

  std::size_t decide(const sim::AbrState& state,
                     const media::VideoManifest& manifest) override;
  std::size_t prediction_horizon() const override;
  std::string name() const override { return "FastMPC"; }
  void reset() override { telemetry_ = sim::DecisionTelemetry{}; }
  const sim::DecisionTelemetry* last_decision() const override {
    return &telemetry_;
  }

 private:
  std::shared_ptr<const FastMpcTable> table_;
  sim::DecisionTelemetry telemetry_;  ///< refreshed by each decide()
};

}  // namespace abr::core
