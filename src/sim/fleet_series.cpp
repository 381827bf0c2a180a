#include "sim/fleet_series.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace abr::sim {

FleetSeries::FleetSeries(FleetSeriesConfig config) : config_(config) {
  if (config_.bucket_s <= 0.0) {
    throw std::invalid_argument("FleetSeries: bucket_s must be positive");
  }
  if (config_.capacity == 0) {
    throw std::invalid_argument("FleetSeries: capacity must be >= 1");
  }
}

FleetSeries::Bucket& FleetSeries::bucket_at(double t_s) {
  const auto index =
      static_cast<std::size_t>(std::max(0.0, t_s) / config_.bucket_s);
  // Time is monotonic in the simulator, so the wanted bucket is the newest
  // (or a brand-new one); a stray out-of-order sample lands in the newest
  // bucket rather than resurrecting an evicted one.
  if (buckets_.empty() || buckets_.back().index < index) {
    Bucket bucket;
    bucket.index = index;
    buckets_.push_back(std::move(bucket));
    if (buckets_.size() > config_.capacity) {
      buckets_.pop_front();
      ++evicted_;
      obs::MetricsRegistry::global()
          .counter(obs::kFleetBucketsEvictedTotal)
          .increment();
    }
  }
  return buckets_.back();
}

void FleetSeries::record_chunk(double end_s, const ChunkRecord& record,
                               double qoe_chunk) {
  Bucket& bucket = bucket_at(end_s);
  bucket.qoe_samples.push_back(qoe_chunk);
  bucket.rebuffer_s += record.rebuffer_s;
  ++bucket.chunks;
  ++bucket.bitrate_chunks[static_cast<long>(std::lround(record.bitrate_kbps))];
}

void FleetSeries::note_active(double t_s, std::size_t active) {
  Bucket& bucket = bucket_at(t_s);
  bucket.peak_active = std::max(bucket.peak_active, active);
}

std::string FleetSeries::to_json() const {
  std::string out = "{";
  out += "\"bucket_s\":" + util::json_number(config_.bucket_s);
  out +=
      ",\"chunk_duration_s\":" + util::json_number(config_.chunk_duration_s);
  out += ",\"evicted\":" + std::to_string(evicted_);
  out += ",\"buckets\":[";
  bool first = true;
  for (const Bucket& bucket : buckets_) {
    if (!first) out += ',';
    first = false;
    std::vector<double> sorted = bucket.qoe_samples;
    std::sort(sorted.begin(), sorted.end());
    const auto qoe_percentile = [&sorted](double q) {
      return util::json_number(util::nearest_rank_percentile(sorted, q));
    };
    const double played =
        static_cast<double>(bucket.chunks) * config_.chunk_duration_s;
    const double denom = played + bucket.rebuffer_s;
    out += "{\"t0_s\":" +
           util::json_number(static_cast<double>(bucket.index) *
                             config_.bucket_s);
    out += ",\"chunks\":" + std::to_string(bucket.chunks);
    out += ",\"sessions_active\":" + std::to_string(bucket.peak_active);
    out += ",\"qoe_p50\":" + qoe_percentile(0.50);
    out += ",\"qoe_p90\":" + qoe_percentile(0.90);
    out += ",\"qoe_p99\":" + qoe_percentile(0.99);
    out += ",\"rebuffer_s\":" + util::json_number(bucket.rebuffer_s);
    out += ",\"rebuffer_ratio\":" +
           util::json_number(denom > 0.0 ? bucket.rebuffer_s / denom : 0.0);
    out += ",\"bitrates\":[";
    bool first_rate = true;
    for (const auto& [kbps, chunks] : bucket.bitrate_chunks) {
      if (!first_rate) out += ',';
      first_rate = false;
      out += "{\"kbps\":" + std::to_string(kbps) +
             ",\"chunks\":" + std::to_string(chunks) + "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

void FleetSeries::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("FleetSeries: cannot open " + path);
  }
  out << to_json() << '\n';
}

}  // namespace abr::sim
