#pragma once

#include <span>
#include <string>

#include "media/quality.hpp"

namespace abr::qoe {

/// Weights of the QoE objective, Eq. (5) of the paper:
///
///   QoE = sum q(R_k) - lambda * sum |q(R_{k+1}) - q(R_k)|
///         - mu * total_rebuffer_s - mu_startup * startup_delay_s
///
/// Units (with the identity quality function): quality terms are kbps, so
/// mu = 3000 means one second of rebuffering costs as much QoE as lowering
/// one chunk by 3000 kbps (Section 7.1.1).
struct QoeWeights {
  double lambda = 1.0;       ///< quality-variation penalty
  double mu = 3000.0;        ///< rebuffer penalty, per second
  double mu_startup = 3000.0;///< startup-delay penalty, per second

  /// Penalty per rebuffering *event* (footnote 3 of the paper: the count
  /// formulation of the rebuffer term). 0 — the paper's default — charges
  /// duration only; a positive value additionally charges each stall.
  double mu_event = 0.0;

  /// The paper's three preference presets (Fig. 11b).
  static QoeWeights balanced() { return {1.0, 3000.0, 3000.0}; }
  static QoeWeights avoid_instability() { return {3.0, 3000.0, 3000.0}; }
  static QoeWeights avoid_rebuffering() { return {1.0, 6000.0, 6000.0}; }

  friend bool operator==(const QoeWeights&, const QoeWeights&) = default;
};

/// Named preset selector used by benches and examples.
enum class QoePreference { kBalanced, kAvoidInstability, kAvoidRebuffering };

QoeWeights preset_weights(QoePreference preference);
const char* preference_name(QoePreference preference);

/// One chunk's Eq. (5) terms as the Accumulator charges them (the journal's
/// and the fleet series' per-chunk attribution).
struct ChunkTerms {
  double utility = 0.0;          ///< q(R_k)
  double switch_penalty = 0.0;   ///< lambda * |q(R_k) - q(R_{k-1})|
  double rebuffer_charge = 0.0;  ///< mu * stall, plus mu_event if it stalled

  double qoe() const { return utility - switch_penalty - rebuffer_charge; }
};

/// Evaluates the Eq. (5) objective: quality function q(.) plus weights.
///
/// Two usage modes:
///  - batch: session_qoe() over complete per-chunk vectors (used by the
///    offline planners and by result post-processing);
///  - incremental: an Accumulator fed one chunk at a time (used by the
///    player session as it runs).
class QoeModel {
 public:
  QoeModel(media::QualityFunction quality, QoeWeights weights);

  const QoeWeights& weights() const { return weights_; }
  const media::QualityFunction& quality_function() const { return quality_; }

  /// q(R) for a bitrate in kbps.
  double quality(double bitrate_kbps) const { return quality_(bitrate_kbps); }

  /// Total QoE for a finished session. `bitrates_kbps` and `rebuffer_s`
  /// must have equal length (per-chunk); `startup_delay_s` may be 0 when the
  /// startup term is excluded (Fig. 11d).
  double session_qoe(std::span<const double> bitrates_kbps,
                     std::span<const double> rebuffer_s,
                     double startup_delay_s) const;

  /// Incremental evaluator with identical semantics to session_qoe.
  class Accumulator {
   public:
    explicit Accumulator(const QoeModel& model) : model_(&model) {}

    /// Adds chunk k with its selected bitrate and the rebuffering incurred
    /// while downloading it, and returns the chunk's terms. Skipped chunks
    /// (bitrate 0) play q(0), and a transition through 0 counts as a switch.
    ChunkTerms add_chunk(double bitrate_kbps, double rebuffer_s);

    void set_startup_delay(double seconds);

    double total() const;
    double total_quality() const { return quality_sum_; }
    double total_smoothness_penalty() const { return smoothness_sum_; }
    double total_rebuffer_s() const { return rebuffer_sum_; }
    std::size_t rebuffer_events() const { return rebuffer_events_; }
    std::size_t chunk_count() const { return chunks_; }
    /// The chunks' ChunkTerms::qoe() summed in chunk order.
    double chunk_qoe_sum() const { return chunk_qoe_sum_; }

   private:
    const QoeModel* model_;
    double quality_sum_ = 0.0;
    double smoothness_sum_ = 0.0;  ///< sum |q_k - q_{k-1}|, unweighted
    double rebuffer_sum_ = 0.0;
    std::size_t rebuffer_events_ = 0;
    double startup_s_ = 0.0;
    double prev_quality_ = 0.0;
    bool has_prev_ = false;
    std::size_t chunks_ = 0;
    double chunk_qoe_sum_ = 0.0;
  };

 private:
  media::QualityFunction quality_;
  QoeWeights weights_;
};

}  // namespace abr::qoe
