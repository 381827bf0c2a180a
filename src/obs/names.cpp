#include "obs/names.hpp"

#include "obs/metrics.hpp"

namespace abr::obs {

std::string solve_algorithm_label(const std::string& algorithm) {
  return "algorithm=\"" + algorithm + "\"";
}

std::string fault_kind_label(const std::string& kind) {
  return "kind=\"" + kind + "\"";
}

std::string origin_label(std::size_t origin) {
  return "origin=\"" + std::to_string(origin) + "\"";
}

std::string breaker_transition_label(std::size_t origin, const char* to) {
  return "origin=\"" + std::to_string(origin) + "\",to=\"" + to + "\"";
}

std::string bad_request_label(const char* reason) {
  return std::string("reason=\"") + reason + "\"";
}

std::string telemetry_endpoint_label(const char* endpoint) {
  return std::string("endpoint=\"") + endpoint + "\"";
}

std::string shard_label(std::size_t shard) {
  return "shard=\"" + std::to_string(shard) + "\"";
}

void register_standard_metrics(MetricsRegistry& registry) {
  for (const char* algorithm : {"MPC", "RobustMPC", "FastMPC"}) {
    registry.histogram(kSolveLatencyUs, solve_algorithm_label(algorithm));
  }
  registry.histogram(kHorizonNodesExpanded, "",
                     exponential_buckets(1.0, 2.0, 20));
  registry.histogram(kTableBuildSeconds, "",
                     exponential_buckets(0.001, 2.0, 20));
  registry.counter(kChunksDownloadedTotal);
  registry.counter(kRebufferSecondsTotal);
  registry.counter(kWaitSecondsTotal);
  registry.counter(kSessionsTotal);
  registry.histogram(kChunkDownloadSeconds, "",
                     exponential_buckets(0.01, 2.0, 16));
  registry.gauge(kBufferLevelSeconds);
  registry.counter(kHttpRequestsTotal);
  registry.counter(kHttpBytesServedTotal);
  registry.gauge(kHttpActiveConnections);
  registry.histogram(kHttpRequestLatencyUs);
  registry.histogram(kHttpFetchLatencyUs);
  registry.counter(kFetchRetriesTotal);
  registry.counter(kFetchTimeoutsTotal);
  registry.counter(kFetchAttemptFailuresTotal);
  registry.counter(kChunksDegradedTotal);
  registry.counter(kChunksSkippedTotal);
  for (const char* kind :
       {"latency_spike", "stall", "partial_body", "reset", "http_error"}) {
    registry.counter(kFaultsInjectedTotal, fault_kind_label(kind));
  }
  registry.counter(kOriginShedTotal);
  registry.counter(kOriginFailoversTotal);
  registry.counter(kHedgedRequestsTotal);
  registry.counter(kHedgeWinsTotal);
  registry.gauge(kHttpPeakConnections);
  registry.counter(kDrainForcedClosesTotal);
  for (const char* reason : {"malformed", "method", "not_found", "range"}) {
    registry.counter(kHttpBadRequestsTotal, bad_request_label(reason));
  }
  registry.counter(kChunksAbortedTotal);
  registry.counter(kChunksPartialTotal);
  registry.counter(kWastedKilobitsTotal);
  registry.counter(kRangeResumesTotal);
  registry.counter(kHttpRangeRequestsTotal);
  for (const char* endpoint : {"/metrics", "/statusz"}) {
    registry.counter(kTelemetryRequestsTotal,
                     telemetry_endpoint_label(endpoint));
  }
  registry.histogram(kTelemetryScrapeLatencyUs, "",
                     exponential_buckets(10.0, 2.0, 16));
  registry.counter(kTelemetryDeadlineExceededTotal);
  registry.counter(kJournalRecordsTotal);
  registry.gauge(kFleetSessionsActive);
  registry.counter(kFleetBucketsEvictedTotal);
  registry.gauge(kServerShardConnections, shard_label(0));
}

}  // namespace abr::obs
