#pragma once

#include <cstddef>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>

#include "util/json.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace abr::obs {

class Counter;

/// One journal line per chunk decision: the full Eq. (5) attribution for
/// that chunk, the predictor/solver state the decision was made from, and
/// the delivery provenance of the bytes. Every field is caller-supplied and
/// derived from virtual session time, so two seeded runs of the same
/// configuration serialize byte-identical journals (the determinism
/// contract `abrsim --faults` already honours for chunk logs).
struct ChunkJournalEntry {
  std::string session;    ///< e.g. "s0" (single player) or "p3" (fleet)
  std::string algorithm;  ///< BitrateController::name()
  std::size_t chunk = 0;
  std::size_t level = 0;
  double t_s = 0.0;  ///< virtual session time the download began

  double bitrate_kbps = 0.0;
  double download_s = 0.0;
  double throughput_kbps = 0.0;
  double buffer_before_s = 0.0;
  double buffer_after_s = 0.0;
  double rebuffer_s = 0.0;
  double wait_s = 0.0;

  // Eq. (5) attribution for this chunk: QoE = sum(utility) -
  // sum(switch_penalty) - sum(rebuffer_charge) - startup_charge. The
  // per-chunk contribution is utility - switch_penalty - rebuffer_charge;
  // the startup charge lives on the session record.
  double qoe_utility = 0.0;          ///< q(R_k)
  double qoe_switch_penalty = 0.0;   ///< lambda * |q_k - q_{k-1}|
  double qoe_rebuffer_charge = 0.0;  ///< mu * rebuffer + mu_event per stall
  double qoe_chunk = 0.0;            ///< this chunk's net contribution
  double qoe_cumulative = 0.0;       ///< running sum (startup term excluded)

  // Predictor state at decision time.
  double predicted_kbps = 0.0;  ///< raw forecast (harmonic mean et al.)
  double effective_kbps = 0.0;  ///< post-robustness deflation; == predicted
                                ///< when no deflation applies
  double error_window = 0.0;    ///< max abs fractional prediction error over
                                ///< the tracker window (RobustMPC state)

  // Solver effort behind the decision.
  std::size_t nodes_expanded = 0;  ///< branch-and-bound nodes (0 off-solver)
  bool warm_start = false;         ///< solve seeded with the previous plan
  std::string solver_path = "rule";  ///< "online" | "table" | "rule"

  // Delivery provenance.
  std::size_t origin = 0;
  std::size_t attempts = 1;
  std::size_t faults = 0;  ///< faults/attempt failures hit by this fetch
  bool degraded = false;
  bool skipped = false;

  // Sub-chunk delivery (zero/false outside an abort policy).
  bool aborted = false;   ///< a transfer was cancelled by the abort monitor
  bool partial = false;   ///< only a prefix of the chunk was played
  double wasted_kb = 0.0; ///< delivered kilobits discarded by aborts/switches
  std::size_t resumed_from_byte = 0;  ///< last range-resume offset (0 = none)
};

/// One journal line per finished session: totals plus the startup charge
/// that completes the Eq. (5) decomposition begun by the chunk records.
struct SessionJournalEntry {
  std::string session;
  std::string algorithm;
  std::size_t chunks = 0;
  double duration_s = 0.0;
  double startup_delay_s = 0.0;

  double qoe = 0.0;  ///< Eq. (5) total, == sum(qoe_chunk) - startup charge
  double qoe_utility = 0.0;
  double qoe_switch_penalty = 0.0;
  double qoe_rebuffer_charge = 0.0;
  double qoe_startup_charge = 0.0;  ///< mu_startup * startup_delay_s

  double average_bitrate_kbps = 0.0;
  double rebuffer_s = 0.0;
  std::size_t switches = 0;
  std::size_t degraded_chunks = 0;
  std::size_t skipped_chunks = 0;
  std::size_t attempts = 0;
  std::size_t faults = 0;

  // Sub-chunk delivery aggregates (zero outside an abort policy).
  std::size_t aborted_chunks = 0;
  std::size_t partial_chunks = 0;
  std::size_t resumes = 0;
  double wasted_kb = 0.0;
};

// The JSON layer lives in util/json.hpp; perfbench/src/report.cpp still
// reaches these two through obs.
using util::json_escape;
using util::json_number;

/// Structured session journal: one flat JSON object per line (JSONL).
/// Thread-safe (fleet simulations share one journal across players); record
/// order is the emit order, which is deterministic wherever the caller is.
/// The journal never reads a clock — timestamps are the caller's virtual
/// time — so it is safe to use from the deterministic layers.
class Journal {
 public:
  /// Writes to a caller-owned stream (must outlive the journal).
  explicit Journal(std::ostream& out);

  /// Opens `path` for writing; throws std::runtime_error on failure.
  explicit Journal(const std::string& path);

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  void chunk(const ChunkJournalEntry& entry) ABR_EXCLUDES(mutex_);
  void session(const SessionJournalEntry& entry) ABR_EXCLUDES(mutex_);

  /// Flushes the underlying stream (drain paths call this so partial
  /// journals survive a hard shutdown).
  void flush() ABR_EXCLUDES(mutex_);

  std::size_t records() const ABR_EXCLUDES(mutex_);

 private:
  void write_line(const std::string& line) ABR_EXCLUDES(mutex_);

  std::unique_ptr<std::ofstream> owned_;
  std::ostream* out_;
  Counter* records_counter_;
  mutable util::Mutex mutex_;
  std::size_t records_ ABR_GUARDED_BY(mutex_) = 0;
};

}  // namespace abr::obs
