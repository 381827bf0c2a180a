#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "net/epoll_server.hpp"
#include "net/http.hpp"
#include "obs/metrics.hpp"

namespace abr::net {

/// Content type of a Prometheus text-format (0.0.4) scrape body.
inline constexpr char kPrometheusContentType[] =
    "text/plain; version=0.0.4; charset=utf-8";

/// Point-in-time server state rendered by /statusz.
struct TelemetryStatus {
  double uptime_s = 0.0;
  bool draining = false;
  std::size_t active_connections = 0;
  std::size_t peak_connections = 0;
  std::size_t shed_connections = 0;
  std::size_t requests_served = 0;
};

/// Compact single-line JSON for /statusz.
std::string statusz_json(const TelemetryStatus& status);

/// True for the request targets served by the telemetry plane (/metrics and
/// /statusz). Telemetry responses bypass traffic shaping and are written
/// under a hard per-request deadline, so a scrape can never worsen overload.
bool is_telemetry_target(std::string_view target);

/// Builds the /metrics (Prometheus text exposition) or /statusz (JSON)
/// response. `target` must satisfy is_telemetry_target().
HttpResponse telemetry_response(obs::MetricsRegistry& registry,
                                std::string_view target,
                                const TelemetryStatus& status);

/// Per-progress deadline on every telemetry exchange, milliseconds: a
/// scraper that stalls its request or stops reading the response is
/// disconnected (shed), never queued. Both the standalone TelemetryServer
/// and ChunkServer's /metrics and /statusz use it.
inline constexpr int kTelemetryDeadlineMs = 250;

/// Admission cap of the standalone TelemetryServer: scrapers past it get a
/// terse 503.
inline constexpr std::size_t kTelemetryMaxConnections = 4;

/// Standalone scrape endpoint for client-side processes (`abrsim
/// --telemetry-port`): serves GET /metrics, /statusz, and /healthz from a
/// registry, one request per connection, on one EpollServer shard with
/// kTelemetryMaxConnections admission and kTelemetryDeadlineMs deadlines.
/// The registry must outlive the server.
class TelemetryServer : private EpollServer::Handler {
 public:
  /// Optional callback supplying the /statusz payload; when absent the
  /// server reports its own uptime and transport counters.
  using StatusSource = std::function<TelemetryStatus()>;

  explicit TelemetryServer(obs::MetricsRegistry& registry,
                           StatusSource status = nullptr);
  ~TelemetryServer() override;

  /// Port 0 picks an ephemeral port.
  void start(std::uint16_t port = 0);
  void stop();

  std::uint16_t port() const { return server_.port(); }
  std::size_t requests_served() const { return requests_served_.load(); }
  std::size_t shed_connections() const {
    return server_.rejected_connections();
  }
  const EpollServer& transport() const { return server_; }

 private:
  // EpollServer::Handler, on the reactor thread.
  EpollServer::Response on_request(const HttpRequest& request) override;
  EpollServer::Response on_bad_request() override;
  EpollServer::Response on_reject() override;
  void on_response_done(const EpollServer::Response& response,
                        EpollServer::Response::Kind kind, double wall_us,
                        EpollServer::Outcome outcome) override;
  TelemetryStatus status();

  obs::MetricsRegistry* registry_;
  StatusSource status_source_;
  std::chrono::steady_clock::time_point started_;
  std::atomic<std::size_t> requests_served_{0};

  obs::Counter* metrics_requests_;
  obs::Counter* statusz_requests_;
  obs::Histogram* scrape_latency_;
  obs::Counter* deadline_exceeded_;

  EpollServer server_;  ///< last: its threads stop before the rest goes
};

}  // namespace abr::net
