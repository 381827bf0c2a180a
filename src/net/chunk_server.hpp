#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <string>

#include "media/manifest.hpp"
#include "net/epoll_server.hpp"
#include "net/http.hpp"
#include "obs/metrics.hpp"
#include "trace/throughput_trace.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace abr::net {

class FaultInjector;

/// A run-context label only: every ChunkServer runs on the sharded epoll
/// reactor, and engine() always returns kSharded. The enum survives so
/// that benchmark reports keep their engine field.
enum class ServerEngine { kThreaded, kSharded };

/// Serving-path knobs for ChunkServer (all optional).
struct ChunkServerOptions {
  /// Reactor shard count; 0 picks a small default from the host.
  std::size_t shards = 0;

  /// Admission cap on concurrent connections; 0 = unlimited. Connections
  /// past the cap get "503 Service Unavailable" with a Retry-After header.
  std::size_t max_connections = 0;

  /// Per-progress socket deadline per connection (slowloris guard): a peer
  /// that dribbles or stalls for longer than this gets disconnected.
  int idle_timeout_ms = 120000;

  /// Value of the Retry-After header on shed connections, seconds.
  int retry_after_s = 1;
};

/// A synthetic DASH origin: serves the MPD and fixed-size segment payloads
/// for a manifest, with every response body paced by a trace-driven shaper.
/// Together with HttpChunkSource this reproduces the paper's emulation
/// testbed (Section 7.2: node.js static server + tc shaping) in-process.
///
/// Requests are parsed and answered by a sharded EpollServer; bodies pass
/// one ShaperGate, the emulated access link.
///
/// URL layout (matches the MPD's SegmentTemplate):
///   GET /manifest.mpd
///   GET /video/<representation-id>/seg-<number>.m4s
///   GET /healthz            -> 200 "ok" (503 "draining" during drain)
///   GET /metrics            -> Prometheus text exposition (live scrape)
///   GET /statusz            -> compact JSON server status
class ChunkServer : private EpollServer::Handler {
 public:
  /// The manifest and trace must outlive the server.
  ChunkServer(const media::VideoManifest& manifest,
              const trace::ThroughputTrace& trace, double speedup = 1.0,
              ChunkServerOptions options = {});
  ~ChunkServer() override;

  /// Port 0 picks an ephemeral port; a stopped server can be restarted on
  /// its previous port() (the chaos harness's kill/restart path).
  void start(std::uint16_t port = 0);
  void stop();

  /// Graceful shutdown; see EpollServer::drain. Returns forced-close count.
  std::size_t drain(double deadline_s);
  bool draining() const { return server_.draining(); }

  std::uint16_t port() const { return server_.port(); }

  /// Attaches a fault injector that decides the fate of each segment
  /// request (latency spike, mid-body stall, truncation, reset, 5xx). Must
  /// be set before start(); the injector must outlive the server. Pass
  /// nullptr to serve faithfully (the default).
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// Resets the shaper's trace clock to "now" (call right before the client
  /// starts streaming so client session time and trace time align).
  void reset_trace_clock() { gate_.reset_epoch(); }

  /// Total requests served (observability for tests).
  std::size_t requests_served() const { return requests_served_.load(); }

  /// Connections shed by admission control.
  std::size_t shed_connections() const {
    return server_.rejected_connections();
  }

  const EpollServer& transport() const { return server_; }

  /// Always ServerEngine::kSharded; see ServerEngine.
  ServerEngine engine() const { return ServerEngine::kSharded; }

 private:
  /// A routed response before delivery (defined in chunk_server.cpp).
  struct RoutedResponse;

  RoutedResponse route(const HttpRequest& request) const;

  // EpollServer::Handler, on reactor threads.
  EpollServer::Response on_request(const HttpRequest& request) override;
  EpollServer::Response on_bad_request() override;
  EpollServer::Response on_reject() override;
  void on_response_done(const EpollServer::Response& response,
                        EpollServer::Response::Kind kind, double wall_us,
                        EpollServer::Outcome outcome) override;

  /// Shared fill buffer of at least `size` bytes of `fill` (segment bodies
  /// are single-character runs, so one buffer per fill character serves
  /// every request size as a prefix slice).
  std::shared_ptr<const std::string> fill_buffer(char fill,
                                                 std::size_t size) const;

  /// Reconciles registry state with transport truth (shed connections, the
  /// transport's peak and live counts) so drain()/stop() leave the final
  /// dump complete.
  void flush_metrics();
  double uptime_s() const;

  const media::VideoManifest* manifest_;
  std::string mpd_;
  double speedup_;
  ChunkServerOptions options_;
  FaultInjector* injector_ = nullptr;
  std::atomic<std::size_t> requests_served_{0};
  /// Shed connections already counted into shed_counter_ (reconciled against
  /// the transport's rejected_connections() by flush_metrics()).
  std::atomic<std::size_t> shed_handled_{0};
  std::chrono::steady_clock::time_point started_{};

  // Origin-side metrics (global registry; no-ops unless it is enabled).
  obs::Counter* requests_counter_;
  obs::Counter* bytes_counter_;
  obs::Gauge* connections_gauge_;
  obs::Gauge* peak_connections_gauge_;
  obs::Counter* shed_counter_;
  obs::Counter* drain_forced_counter_;
  obs::Counter* bad_request_malformed_;
  obs::Counter* bad_request_method_;
  obs::Counter* bad_request_not_found_;
  obs::Counter* bad_request_range_;  ///< 416s (unsatisfiable Range)
  obs::Counter* range_requests_;     ///< 206s served
  obs::Histogram* request_latency_;  ///< includes the shaped body send
  obs::Counter* telemetry_metrics_requests_;
  obs::Counter* telemetry_statusz_requests_;
  obs::Histogram* telemetry_scrape_latency_;
  obs::Counter* telemetry_deadline_counter_;

  mutable util::Mutex fill_mutex_;
  /// One lazily grown buffer per fill character ('A'..'Z').
  mutable std::shared_ptr<const std::string> fill_buffers_[26]
      ABR_GUARDED_BY(fill_mutex_);

  ShaperGate gate_;
  EpollServer server_;  ///< last: its threads stop before the rest goes
};

/// Parses "/video/<level>/seg-<number>.m4s"; returns false on any other
/// shape. Exposed for tests.
bool parse_segment_path(std::string_view target, std::size_t& level,
                        std::size_t& number);

}  // namespace abr::net
