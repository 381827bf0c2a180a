#pragma once

#include <cstddef>
#include <string>

namespace abr::obs {

class MetricsRegistry;

// Canonical metric names shared by the built-in instrumentation, so that
// dashboards, tests, and the Prometheus dump all agree. All latency
// histograms are in microseconds (suffix _us); accumulating counters of
// seconds carry _seconds_total.

// Controller decision path (core/).
inline constexpr char kSolveLatencyUs[] = "abr_solve_latency_us";
inline constexpr char kDecideLatencyUs[] = "abr_decide_latency_us";
inline constexpr char kHorizonNodesExpanded[] = "abr_horizon_nodes_expanded";
inline constexpr char kTableBuildSeconds[] = "abr_table_build_seconds";

// Player session (sim/).
inline constexpr char kChunksDownloadedTotal[] = "abr_chunks_downloaded_total";
inline constexpr char kRebufferSecondsTotal[] = "abr_rebuffer_seconds_total";
inline constexpr char kWaitSecondsTotal[] = "abr_wait_seconds_total";
inline constexpr char kChunkDownloadSeconds[] = "abr_chunk_download_seconds";
inline constexpr char kBufferLevelSeconds[] = "abr_buffer_level_s";
inline constexpr char kSessionsTotal[] = "abr_sessions_total";

// Shared-link multi-player simulation (sim/multiplayer).
inline constexpr char kMultiplayerJainFairness[] =
    "abr_multiplayer_jain_fairness";
inline constexpr char kMultiplayerLinkUtilization[] =
    "abr_multiplayer_link_utilization";

// HTTP origin + client (net/).
inline constexpr char kHttpRequestsTotal[] = "abr_http_requests_total";
inline constexpr char kHttpBytesServedTotal[] = "abr_http_bytes_served_total";
inline constexpr char kHttpActiveConnections[] = "abr_http_active_connections";
inline constexpr char kHttpRequestLatencyUs[] = "abr_http_request_latency_us";
inline constexpr char kHttpFetchLatencyUs[] =
    "abr_http_client_fetch_latency_us";

// Fault injection and resilience (testing/, net/, sim/).
inline constexpr char kFetchRetriesTotal[] = "abr_fetch_retries_total";
inline constexpr char kFetchTimeoutsTotal[] = "abr_fetch_timeouts_total";
inline constexpr char kFetchAttemptFailuresTotal[] =
    "abr_fetch_attempt_failures_total";
inline constexpr char kChunksDegradedTotal[] = "abr_chunks_degraded_total";
inline constexpr char kChunksSkippedTotal[] = "abr_chunks_skipped_total";
inline constexpr char kFaultsInjectedTotal[] = "abr_faults_injected_total";

// Origin failover and overload hardening (net/). The shed counter and the
// breaker fast-fail counter are deliberately distinct families: the first
// means "origin overloaded" (admission control sent a 503), the second means
// "origin considered down" (the client refused to even try). Dashboards need
// to tell those apart.
inline constexpr char kOriginShedTotal[] = "abr_origin_shed_total";
inline constexpr char kBreakerFastFailTotal[] =
    "abr_origin_breaker_fastfail_total";
inline constexpr char kBreakerTransitionsTotal[] =
    "abr_origin_breaker_transitions_total";
inline constexpr char kOriginFailoversTotal[] = "abr_origin_failovers_total";
inline constexpr char kHedgedRequestsTotal[] = "abr_hedged_requests_total";
inline constexpr char kHedgeWinsTotal[] = "abr_hedge_wins_total";
inline constexpr char kHttpBadRequestsTotal[] = "abr_http_bad_requests_total";
inline constexpr char kHttpPeakConnections[] = "abr_http_peak_connections";
inline constexpr char kDrainForcedClosesTotal[] =
    "abr_server_drain_forced_closes_total";

// Sub-chunk delivery: mid-chunk abort/re-decide, range resume, partial
// playback (sim/, net/). Wasted kilobits are bytes that flowed but were
// discarded (aborted suffixes, prefix credit lost to a level switch) — the
// honest cost of acting inside a chunk.
inline constexpr char kChunksAbortedTotal[] = "abr_chunks_aborted_total";
inline constexpr char kChunksPartialTotal[] = "abr_chunks_partial_total";
inline constexpr char kWastedKilobitsTotal[] = "abr_wasted_kilobits_total";
inline constexpr char kRangeResumesTotal[] = "abr_range_resumes_total";
inline constexpr char kHttpRangeRequestsTotal[] =
    "abr_http_range_requests_total";

// Live telemetry plane (net/telemetry, obs/journal, sim/fleet_series).
inline constexpr char kTelemetryRequestsTotal[] =
    "abr_telemetry_requests_total";
inline constexpr char kTelemetryScrapeLatencyUs[] =
    "abr_telemetry_scrape_latency_us";
inline constexpr char kTelemetryDeadlineExceededTotal[] =
    "abr_telemetry_deadline_exceeded_total";
inline constexpr char kJournalRecordsTotal[] = "abr_journal_records_total";
inline constexpr char kFleetSessionsActive[] = "abr_fleet_sessions_active";
inline constexpr char kFleetBucketsEvictedTotal[] =
    "abr_fleet_buckets_evicted_total";

// Sharded serving core (net/epoll_server).
inline constexpr char kServerShardConnections[] =
    "abr_server_shard_connections";

/// Label body for a solve-latency histogram, e.g. algorithm="MPC".
std::string solve_algorithm_label(const std::string& algorithm);

/// Label body for a fault counter, e.g. kind="reset".
std::string fault_kind_label(const std::string& kind);

/// Label body for a per-origin counter, e.g. origin="2".
std::string origin_label(std::size_t origin);

/// Label body for a breaker transition counter, e.g. origin="0",to="open".
std::string breaker_transition_label(std::size_t origin, const char* to);

/// Label body for a bad-request counter, e.g. reason="malformed".
std::string bad_request_label(const char* reason);

/// Label body for a telemetry request counter, e.g. endpoint="/metrics".
std::string telemetry_endpoint_label(const char* endpoint);

/// Label body for a per-reactor-shard gauge, e.g. shard="3".
std::string shard_label(std::size_t shard);

/// Pre-registers the standard metric families above (with the solve-latency
/// histograms for MPC, RobustMPC, and FastMPC) so a metrics dump shows the
/// full schema, zero-valued, even for instruments the current run never
/// touched.
void register_standard_metrics(MetricsRegistry& registry);

}  // namespace abr::obs
