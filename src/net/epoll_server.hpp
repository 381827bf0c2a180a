#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/http.hpp"
#include "net/socket.hpp"
#include "trace/throughput_trace.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace abr::net {

/// Trace-driven link shaper for response bodies, shared by every shard.
///
/// This replaces the `tc` token-bucket shaping of the paper's testbed
/// (Section 7.2) with an application-level equivalent. The emulated access
/// link carries one body at a time: a connection acquires the link (FIFO —
/// queued tickets are served in order), and each kQuantumBytes quantum is
/// released once the trace's cumulative allowance since the epoch covers it.
/// The holder claims every quantum already released as one burst; when none
/// is due, the shard schedules a timer instead of sleeping, so no reactor
/// thread ever blocks.
///
/// `speedup` compresses session time: at speedup 20 a 260 s video session
/// runs in 13 s of wall time, with trace rates scaled up correspondingly.
/// On loopback the shaped rate remains the bottleneck for any realistic
/// trace, so the measured throughput at the client follows the trace as it
/// would behind tc.
class ShaperGate {
 public:
  /// Pacing quantum, bytes. Smaller = smoother shaping, more wakeups.
  static constexpr std::size_t kQuantumBytes = 16 * 1024;

  /// What claim_burst() charged.
  struct Burst {
    /// Bytes charged to the allowance; 0 when no quantum is due yet.
    std::size_t bytes = 0;
    /// When bytes is 0: the instant the first quantum is released.
    std::chrono::steady_clock::time_point next_release{};
  };

  /// The trace must outlive the gate. The epoch (session time 0) is the
  /// moment of construction; reset_epoch() restarts it.
  ShaperGate(const trace::ThroughputTrace& trace, double speedup);

  void reset_epoch() ABR_EXCLUDES(mutex_);

  /// Claims the link for `ticket` (an opaque nonzero connection id).
  /// Returns true when the link was free; otherwise the ticket is queued
  /// and a later release() will hand the link over.
  bool acquire(std::uint64_t ticket) ABR_EXCLUDES(mutex_);

  /// Removes a queued (or holding) ticket whose connection died. Returns
  /// the next ticket to grant when the holder vanished, 0 otherwise.
  std::uint64_t cancel(std::uint64_t ticket) ABR_EXCLUDES(mutex_);

  /// Releases the link and pops the next queued ticket (0 when none). The
  /// caller must forward the grant to the ticket's shard.
  std::uint64_t release() ABR_EXCLUDES(mutex_);

  /// Claims the holder's next burst of at most `bytes`: walks kQuantumBytes
  /// quanta (the last one shorter) and charges each whose release instant,
  /// per the trace's cumulative allowance, is at or before `now`. Stops at
  /// the first quantum not yet due or after `bytes`, so a caller passing the
  /// bytes left before a stall point or the body end never claims past
  /// either.
  Burst claim_burst(std::size_t bytes,
                    std::chrono::steady_clock::time_point now)
      ABR_EXCLUDES(mutex_);

 private:
  const trace::ThroughputTrace* trace_;
  double speedup_;
  mutable util::Mutex mutex_;
  std::chrono::steady_clock::time_point epoch_ ABR_GUARDED_BY(mutex_);
  double sent_kilobits_ ABR_GUARDED_BY(mutex_) = 0.0;
  std::uint64_t holder_ ABR_GUARDED_BY(mutex_) = 0;
  std::deque<std::uint64_t> waiters_ ABR_GUARDED_BY(mutex_);
};

/// Sharded epoll server: one accept thread pins connections to N reactor
/// shards round-robin; each shard owns one epoll instance, one timer heap,
/// and a private connection table (no global connection lock on the serving
/// path). Sockets are nonblocking and edge-triggered; request parsing is an
/// incremental state machine under net/http's framing limits (8 KB request
/// line, 64 KB header block) and slowloris idle deadlines, and response
/// bodies are written zero-copy
/// from shared immutable buffers via writev.
///
/// The server is protocol-agnostic above the request boundary: a Handler
/// turns each parsed request into a fully planned Response (pre-serialized
/// head, body slice, pacing/fault directives). ChunkServer (the DASH
/// origin) and TelemetryServer (the scrape endpoint) are its two handlers.
class EpollServer final {
 public:
  /// A fully planned response. The head is pre-serialized (status line,
  /// headers, Content-Length, blank line); the body is either an owned
  /// string or a shared immutable buffer slice (zero-copy: one buffer can
  /// back any number of in-flight responses).
  struct Response {
    /// Which handler planned this response — on_response_done uses it to
    /// decide what to account (e.g. request latency only for kRequest).
    enum class Kind { kRequest, kBadRequest, kReject };

    std::string head;
    std::string body_inline;
    std::shared_ptr<const std::string> body_shared;
    std::size_t body_offset = 0;
    std::size_t body_length = 0;  ///< length of the shared slice

    /// Pace the body through the shaper gate (the emulated access link).
    bool shaped = false;
    /// Telemetry-plane response: a write-deadline trip is reported as
    /// Outcome::kWriteDeadline (as kPeerGone for any other response).
    bool telemetry = false;
    /// Close the connection after the response is written (drain, 503,
    /// 400); the write side is shut down first so the peer sees EOF.
    bool close_after = false;
    /// Drop the connection without writing anything (fault kReset).
    bool reset = false;
    /// First-byte delay in wall seconds (fault kLatencySpike).
    double first_byte_delay_s = 0.0;
    /// When >= 0: stall for stall_wall_s after this fraction of the body
    /// (fault kStall). The link is released while stalled.
    double stall_after_fraction = -1.0;
    double stall_wall_s = 0.0;
    /// When >= 0: shut the connection down after this fraction of the body
    /// (fault kPartialBody; the head still promises full Content-Length).
    double truncate_after_fraction = -1.0;
    /// Per-write-progress deadline for this response; 0 uses the
    /// transport-wide idle deadline.
    int write_deadline_ms = 0;

    std::string_view body() const {
      return body_shared != nullptr
                 ? std::string_view(*body_shared)
                       .substr(body_offset, body_length)
                 : std::string_view(body_inline);
    }
  };

  /// How a response delivery ended (Handler::on_response_done).
  enum class Outcome {
    kComplete,       ///< body fully written (or deliberately truncated)
    kWriteDeadline,  ///< peer stalled past the response's write deadline
    kPeerGone,       ///< connection died mid-response
  };

  /// Request-plane callbacks, invoked on reactor threads (must be
  /// thread-safe). All four must be set.
  class Handler {
   public:
    virtual ~Handler() = default;
    /// A complete request was parsed; plan its response.
    virtual Response on_request(const HttpRequest& request) = 0;
    /// The request was malformed (bad framing, oversized line/headers, EOF
    /// mid-message); plan the terse 400. The connection closes after it.
    virtual Response on_bad_request() = 0;
    /// The connection was refused by the admission cap and its (best
    /// effort) request has been consumed; plan the terse 503.
    virtual Response on_reject() = 0;
    /// A response finished; wall_us covers parse-complete to last byte.
    virtual void on_response_done(const Response& response,
                                  Response::Kind kind, double wall_us,
                                  Outcome outcome) = 0;
  };

  struct EpollServerOptions {
    /// Reactor shard count; 0 picks a small default from the host.
    std::size_t shards = 0;
    /// Admission cap on live connections; 0 = unlimited.
    std::size_t max_connections = 0;
    /// Per-progress socket deadline (slowloris guard), milliseconds.
    int idle_timeout_ms = 120000;
    /// Read deadline for admission-rejected connections, milliseconds (the
    /// 503 goes out even when the deadline fires mid-request).
    int reject_timeout_ms = 2000;
  };

  /// The handler and gate (optional) must outlive the server.
  EpollServer(Handler* handler, EpollServerOptions options);
  ~EpollServer();

  EpollServer(const EpollServer&) = delete;
  EpollServer& operator=(const EpollServer&) = delete;

  /// Attaches the pacing gate for shaped bodies. Must be set before
  /// start() when any Response uses shaped=true.
  void set_shaper_gate(ShaperGate* gate) { gate_ = gate; }

  /// Binds 127.0.0.1 and starts accepting; port 0 picks an ephemeral port.
  /// A stopped (or drained) server may be started again — passing the old
  /// port() restarts the origin on the same address, which is how the
  /// chaos harness brings a killed origin back.
  void start(std::uint16_t port = 0);

  /// Hard stop: closes every live connection and joins every thread.
  void stop();

  /// Graceful shutdown: stops accepting, waits up to `deadline_s` for
  /// in-flight connections to finish on their own, then force-closes the
  /// stragglers. Returns the number of forced closes. Idempotent with
  /// stop() in either order.
  std::size_t drain(double deadline_s);

  /// True from the moment drain() begins until the next start().
  bool draining() const { return draining_.load(); }

  std::uint16_t port() const { return port_; }
  /// Connections currently live (admitted and rejected alike).
  std::size_t active_connections() const { return live_.load(); }
  std::size_t peak_connections() const { return peak_.load(); }
  /// Connections refused by the admission cap.
  std::size_t rejected_connections() const { return rejected_.load(); }
  /// Connection-table entries across all shards (tests use this to show
  /// closed connections leave the table).
  std::size_t tracked_connections() const;

  std::size_t shard_count() const { return shards_.size(); }

  /// Timer-heap entries (deadlines and resumes) across all shards, as of
  /// each shard's last loop pass. Each connection keeps one queued
  /// deadline, so this stays near the live connection count however many
  /// requests a keep-alive connection carries (tests use this).
  std::size_t queued_timers() const;

 private:
  class Shard;

  void accept_loop();
  void join_shards();
  /// Hands a released/cancelled link grant to the ticket's shard (no-op for
  /// ticket 0).
  void forward_grant(std::uint64_t ticket);

  Handler* handler_;
  EpollServerOptions options_;
  ShaperGate* gate_ = nullptr;
  TcpListener listener_;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::size_t> live_{0};
  std::atomic<std::size_t> peak_{0};
  std::atomic<std::size_t> rejected_{0};
  std::atomic<std::size_t> forced_closes_{0};
  std::uint64_t next_serial_ = 0;  ///< accept-thread only
};

}  // namespace abr::net
