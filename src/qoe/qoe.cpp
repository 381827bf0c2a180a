#include "qoe/qoe.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace abr::qoe {

QoeWeights preset_weights(QoePreference preference) {
  switch (preference) {
    case QoePreference::kBalanced:
      return QoeWeights::balanced();
    case QoePreference::kAvoidInstability:
      return QoeWeights::avoid_instability();
    case QoePreference::kAvoidRebuffering:
      return QoeWeights::avoid_rebuffering();
  }
  return QoeWeights::balanced();
}

const char* preference_name(QoePreference preference) {
  switch (preference) {
    case QoePreference::kBalanced:
      return "Balanced";
    case QoePreference::kAvoidInstability:
      return "AvoidInstability";
    case QoePreference::kAvoidRebuffering:
      return "AvoidRebuffering";
  }
  return "?";
}

QoeModel::QoeModel(media::QualityFunction quality, QoeWeights weights)
    : quality_(std::move(quality)), weights_(weights) {
  if (weights_.lambda < 0.0 || weights_.mu < 0.0 ||
      weights_.mu_startup < 0.0 || weights_.mu_event < 0.0) {
    throw std::invalid_argument("QoeWeights must be non-negative");
  }
}

double QoeModel::session_qoe(std::span<const double> bitrates_kbps,
                             std::span<const double> rebuffer_s,
                             double startup_delay_s) const {
  if (bitrates_kbps.size() != rebuffer_s.size()) {
    throw std::invalid_argument("session_qoe: per-chunk vectors differ in size");
  }
  Accumulator acc(*this);
  for (std::size_t k = 0; k < bitrates_kbps.size(); ++k) {
    acc.add_chunk(bitrates_kbps[k], rebuffer_s[k]);
  }
  acc.set_startup_delay(startup_delay_s);
  return acc.total();
}

ChunkTerms QoeModel::Accumulator::add_chunk(double bitrate_kbps,
                                            double rebuffer_s) {
  assert(rebuffer_s >= 0.0);
  const QoeWeights& w = model_->weights();
  const double q = model_->quality(bitrate_kbps);
  const double change = has_prev_ ? std::abs(q - prev_quality_) : 0.0;
  const ChunkTerms terms{
      q, w.lambda * change,
      w.mu * rebuffer_s + (rebuffer_s > 0.0 ? w.mu_event : 0.0)};
  quality_sum_ += q;
  smoothness_sum_ += change;
  prev_quality_ = q;
  has_prev_ = true;
  rebuffer_sum_ += rebuffer_s;
  if (rebuffer_s > 0.0) ++rebuffer_events_;
  chunk_qoe_sum_ += terms.qoe();
  ++chunks_;
  return terms;
}

void QoeModel::Accumulator::set_startup_delay(double seconds) {
  assert(seconds >= 0.0);
  startup_s_ = seconds;
}

double QoeModel::Accumulator::total() const {
  const QoeWeights& w = model_->weights();
  return quality_sum_ - w.lambda * smoothness_sum_ - w.mu * rebuffer_sum_ -
         w.mu_event * static_cast<double>(rebuffer_events_) -
         w.mu_startup * startup_s_;
}

}  // namespace abr::qoe
