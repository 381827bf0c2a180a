// Overload hardening of the serving path: admission control (cap -> 503 +
// Retry-After, distinct shed accounting), slowloris idle deadlines, malformed
// request / method / request-line limits (400/405), /healthz, graceful drain
// semantics, connection-slot pruning, and accept-loop survival under fd
// exhaustion.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "net/chunk_server.hpp"
#include "net/socket.hpp"
#include "net/streaming_client.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "test_helpers.hpp"
#include "trace/throughput_trace.hpp"

namespace abr::net {
namespace {

using namespace std::chrono_literals;
using testing::eventually;
using testing::read_to_eof;

/// Enables the (normally disabled) global registry for one test's scope.
class ScopedMetrics {
 public:
  ScopedMetrics() { obs::MetricsRegistry::global().set_enabled(true); }
  ~ScopedMetrics() { obs::MetricsRegistry::global().set_enabled(false); }
};

constexpr const char* kClosingGet =
    "GET /manifest.mpd HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";

TEST(AdmissionControl, ShedsPastCapWith503AndRecovers) {
  const auto manifest = testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(8000.0, 600.0);
  ChunkServerOptions options;
  options.max_connections = 2;
  options.retry_after_s = 3;
  ChunkServer server(manifest, trace, /*speedup=*/50.0, options);
  server.start();

  // Two idle holds occupy both session slots.
  TcpStream hold_a = TcpStream::connect("127.0.0.1", server.port());
  TcpStream hold_b = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(eventually(
      [&] { return server.transport().active_connections() >= 2; }));

  // The third connection is shed: full 503 with Retry-After, then close.
  TcpStream shed = TcpStream::connect("127.0.0.1", server.port());
  shed.set_timeout_ms(3000);
  shed.write_all(kClosingGet);
  const auto [response, eof] = read_to_eof(shed);
  EXPECT_TRUE(eof);
  EXPECT_NE(response.find("503 Service Unavailable"), std::string::npos);
  EXPECT_NE(response.find("Retry-After: 3"), std::string::npos);
  EXPECT_EQ(server.shed_connections(), 1u);

  // Releasing a hold frees a slot: the next request is served normally.
  hold_a.close();
  ASSERT_TRUE(eventually(
      [&] { return server.transport().active_connections() <= 1; }));
  HttpClient client("127.0.0.1", server.port(), 3000);
  EXPECT_EQ(client.request("/healthz").status, 200);

  // The cap held throughout: shed connections never became sessions.
  EXPECT_LE(server.transport().peak_connections(), 2u);
  hold_b.close();
  server.stop();
}

TEST(AdmissionControl, ClientRetryPolicyRidesOutOverload) {
  const auto manifest = testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(8000.0, 600.0);
  ChunkServerOptions options;
  options.max_connections = 1;
  ChunkServer server(manifest, trace, /*speedup=*/50.0, options);
  server.start();

  // One hold saturates the origin...
  TcpStream hold = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(eventually(
      [&] { return server.transport().active_connections() >= 1; }));

  // ...and is released while the client is backing off from its 503.
  std::thread release([&] {
    std::this_thread::sleep_for(150ms);
    hold.close();
  });

  sim::RetryPolicy retry;
  retry.max_attempts = 6;
  retry.initial_backoff_s = 0.1;
  retry.request_timeout_ms = 3000;
  HttpChunkSource source("127.0.0.1", server.port(), manifest,
                         /*speedup=*/1.0, retry);
  server.reset_trace_clock();
  const sim::FetchOutcome outcome = source.fetch(0, 0);
  release.join();

  EXPECT_FALSE(outcome.failed);
  EXPECT_GE(outcome.attempts, 2u);  // at least one shed 503 before success
  EXPECT_GE(server.shed_connections(), 1u);
  server.stop();
}

TEST(Slowloris, IdleConnectionIsDeadlined) {
  const auto manifest = testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(8000.0, 600.0);
  ChunkServerOptions options;
  options.idle_timeout_ms = 150;
  ChunkServer server(manifest, trace, /*speedup=*/50.0, options);
  server.start();

  // Dribble half a request line and stall: the server must cut us off
  // around its idle deadline rather than hold the slot forever.
  TcpStream victim = TcpStream::connect("127.0.0.1", server.port());
  victim.write_all("GET /manif");
  victim.set_timeout_ms(3000);
  const auto start = std::chrono::steady_clock::now();
  const std::string leftovers = read_to_eof(victim).bytes;  // EOF when dropped
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_TRUE(leftovers.empty());
  EXPECT_LT(waited, 2.0);
  ASSERT_TRUE(eventually(
      [&] { return server.transport().active_connections() == 0; }));
  server.stop();
}

TEST(RouteHardening, MalformedRequestGets400AndIsCounted) {
  const ScopedMetrics metrics;
  obs::Counter& malformed = obs::MetricsRegistry::global().counter(
      obs::kHttpBadRequestsTotal, obs::bad_request_label("malformed"));
  const double before = malformed.value();

  const auto manifest = testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(8000.0, 600.0);
  ChunkServer server(manifest, trace, /*speedup=*/50.0);
  server.start();

  TcpStream stream = TcpStream::connect("127.0.0.1", server.port());
  stream.set_timeout_ms(3000);
  stream.write_all("this is not http\r\n\r\n");
  const std::string response = read_to_eof(stream).bytes;
  EXPECT_NE(response.find("400 Bad Request"), std::string::npos);
  EXPECT_GE(malformed.value(), before + 1.0);
  server.stop();
}

TEST(RouteHardening, OversizedRequestLineGets400) {
  const auto manifest = testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(8000.0, 600.0);
  ChunkServer server(manifest, trace, /*speedup=*/50.0);
  server.start();

  TcpStream stream = TcpStream::connect("127.0.0.1", server.port());
  stream.set_timeout_ms(5000);
  const std::string huge_target(HttpConnection::kMaxRequestLineBytes + 64, 'a');
  stream.write_all("GET /" + huge_target + " HTTP/1.1\r\nHost: t\r\n\r\n");
  const std::string response = read_to_eof(stream).bytes;
  EXPECT_NE(response.find("400 Bad Request"), std::string::npos);
  server.stop();
}

TEST(RouteHardening, OversizedHeaderBlockGets400) {
  const auto manifest = testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(8000.0, 600.0);
  ChunkServer server(manifest, trace, /*speedup=*/50.0);
  server.start();

  TcpStream stream = TcpStream::connect("127.0.0.1", server.port());
  stream.set_timeout_ms(5000);
  std::string request = "GET /manifest.mpd HTTP/1.1\r\nHost: t\r\n";
  const std::string padding(1024, 'x');
  for (int i = 0; request.size() < HttpConnection::kMaxHeaderBytes + 4096; ++i) {
    request += "X-Flood-" + std::to_string(i) + ": " + padding + "\r\n";
  }
  request += "\r\n";
  try {
    stream.write_all(request);
  } catch (const std::system_error&) {
    // The server may cut the flood off mid-write; the 400 (or the close)
    // below is the point.
  }
  const std::string response = read_to_eof(stream).bytes;
  // Either we see the 400 or the server dropped us mid-flood; it must not
  // buffer the whole block.
  if (!response.empty()) {
    EXPECT_NE(response.find("400 Bad Request"), std::string::npos);
  }
  ASSERT_TRUE(eventually(
      [&] { return server.transport().active_connections() == 0; }));
  server.stop();
}

TEST(RouteHardening, NonGetMethodGets405WithAllow) {
  const ScopedMetrics metrics;
  obs::Counter& bad_method = obs::MetricsRegistry::global().counter(
      obs::kHttpBadRequestsTotal, obs::bad_request_label("method"));
  const double before = bad_method.value();

  const auto manifest = testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(8000.0, 600.0);
  ChunkServer server(manifest, trace, /*speedup=*/50.0);
  server.start();

  TcpStream stream = TcpStream::connect("127.0.0.1", server.port());
  stream.set_timeout_ms(3000);
  stream.write_all(
      "POST /manifest.mpd HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  const auto [response, eof] = read_to_eof(stream);
  EXPECT_TRUE(eof) << "the request's Connection: close was not honoured";
  EXPECT_NE(response.find("405 Method Not Allowed"), std::string::npos);
  EXPECT_NE(response.find("Allow: GET"), std::string::npos);
  EXPECT_GE(bad_method.value(), before + 1.0);
  server.stop();
}

TEST(RouteHardening, UnknownPathGets404AndIsCounted) {
  const ScopedMetrics metrics;
  obs::Counter& not_found = obs::MetricsRegistry::global().counter(
      obs::kHttpBadRequestsTotal, obs::bad_request_label("not_found"));
  const double before = not_found.value();

  const auto manifest = testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(8000.0, 600.0);
  ChunkServer server(manifest, trace, /*speedup=*/50.0);
  server.start();

  HttpClient client("127.0.0.1", server.port(), 3000);
  EXPECT_EQ(client.request("/no/such/thing").status, 404);
  EXPECT_GE(not_found.value(), before + 1.0);
  server.stop();
}

TEST(Health, HealthzServesOkThenDrainingDuringDrain) {
  const auto manifest = testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(8000.0, 600.0);
  ChunkServerOptions options;
  options.idle_timeout_ms = 5000;
  ChunkServer server(manifest, trace, /*speedup=*/50.0, options);
  server.start();

  HttpClient client("127.0.0.1", server.port(), 3000);
  const HttpResponse healthy = client.request("/healthz");
  EXPECT_EQ(healthy.status, 200);
  EXPECT_EQ(healthy.body, "ok\n");

  // Drain on another thread; our keep-alive connection is still live, so a
  // health probe sent during the drain window reports "draining" and the
  // connection is closed cleanly (not force-killed).
  std::size_t forced = 999;
  std::thread drainer([&] { forced = server.drain(/*deadline_s=*/5.0); });
  ASSERT_TRUE(eventually([&] { return server.draining(); }));
  std::this_thread::sleep_for(20ms);
  const HttpResponse draining = client.request("/healthz");
  EXPECT_EQ(draining.status, 503);
  EXPECT_EQ(draining.body, "draining\n");
  const std::string* connection = draining.headers.find("Connection");
  ASSERT_NE(connection, nullptr);
  EXPECT_EQ(*connection, "close");
  drainer.join();
  EXPECT_EQ(forced, 0u);
}

TEST(Drain, InFlightBodyCompletesBeforeDrainReturns) {
  const auto manifest = testing::small_manifest();
  // 1200 kilobits at 1000 kbps = ~1.2 s shaped transfer: long enough that
  // the drain demonstrably waits for it.
  const auto trace = trace::ThroughputTrace::constant(1000.0, 600.0);
  ChunkServer server(manifest, trace, /*speedup=*/1.0);
  server.start();
  server.reset_trace_clock();

  std::string body;
  int status = 0;
  std::thread getter([&] {
    HttpClient client("127.0.0.1", server.port(), 10000);
    const HttpResponse response = client.request("/video/0/seg-0.m4s");
    status = response.status;
    body = response.body;
  });
  ASSERT_TRUE(eventually(
      [&] { return server.transport().active_connections() >= 1; }));
  std::this_thread::sleep_for(100ms);

  const std::size_t forced = server.drain(/*deadline_s=*/10.0);
  getter.join();
  EXPECT_EQ(forced, 0u);
  EXPECT_EQ(status, 200);
  // level 0 of the small manifest: 300 kbps * 4 s = 150 kB exactly.
  EXPECT_EQ(body.size(), 150u * 1000u);
}

TEST(Drain, IdleStragglerIsForceClosedAtDeadline) {
  const ScopedMetrics metrics;
  obs::Counter& forced_total = obs::MetricsRegistry::global().counter(
      obs::kDrainForcedClosesTotal);
  const double before = forced_total.value();

  const auto manifest = testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(8000.0, 600.0);
  ChunkServer server(manifest, trace, /*speedup=*/50.0);
  server.start();

  TcpStream straggler = TcpStream::connect("127.0.0.1", server.port());
  ASSERT_TRUE(eventually(
      [&] { return server.transport().active_connections() >= 1; }));

  const std::size_t forced = server.drain(/*deadline_s=*/0.1);
  EXPECT_EQ(forced, 1u);
  EXPECT_GE(forced_total.value(), before + 1.0);
  straggler.close();
}

TEST(Drain, StopAndDrainAreIdempotentInEitherOrder) {
  const auto manifest = testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(8000.0, 600.0);
  ChunkServer server(manifest, trace, /*speedup=*/50.0);

  server.start();
  server.stop();
  server.stop();                        // double stop
  EXPECT_EQ(server.drain(0.1), 0u);     // drain after stop

  server.start();
  EXPECT_EQ(server.drain(0.1), 0u);
  server.stop();                        // stop after drain

  // And a drained server restarts cleanly on its old port.
  server.start();
  const std::uint16_t port = server.port();
  EXPECT_EQ(server.drain(0.1), 0u);
  server.start(port);
  HttpClient client("127.0.0.1", server.port(), 3000);
  EXPECT_EQ(client.request("/healthz").status, 200);
  EXPECT_EQ(server.port(), port);
  server.stop();
}

TEST(ConnectionTable, FinishedSlotsArePruned) {
  const auto manifest = testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(8000.0, 600.0);
  ChunkServer server(manifest, trace, /*speedup=*/50.0);
  server.start();

  for (int i = 0; i < 20; ++i) {
    HttpClient client("127.0.0.1", server.port(), 3000);
    EXPECT_EQ(client.request("/healthz").status, 200);
  }
  // Pruning happens on each accept: after 20 sequential connections the
  // table must not have accumulated dead entries.
  ASSERT_TRUE(eventually(
      [&] { return server.transport().tracked_connections() <= 3; }));
  server.stop();
}

TEST(TimerHeap, KeepAliveRequestsKeepOneDeadlinePerConnection) {
  const auto manifest = testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(8000.0, 600.0);
  ChunkServerOptions options;
  options.shards = 1;
  ChunkServer server(manifest, trace, /*speedup=*/50.0, options);
  server.start();
  const EpollServer& sharded = server.transport();

  // Each response re-arms the connection's deadline twice (when it starts
  // writing and when it returns to reading); under the 120 s idle window
  // none of those arms may leave an entry behind in the shard's heap.
  HttpClient client("127.0.0.1", server.port(), 3000);
  HttpHeaders range;
  range.set("Range", "bytes=0-1023");
  for (int i = 0; i < 150; ++i) {
    ASSERT_EQ(client.request("/healthz").status, 200);
    ASSERT_EQ(client.request("/video/0/seg-0.m4s", range).status, 206);
  }
  EXPECT_TRUE(eventually([&] { return sharded.queued_timers() <= 2; }))
      << sharded.queued_timers() << " timers queued after 300 requests";
  server.stop();
}

/// Plans one unshaped response for every request, with the write deadline
/// and first-byte delay under test, and records how its delivery ended.
class PlannedResponseHandler final : public EpollServer::Handler {
 public:
  PlannedResponseHandler(std::size_t body_bytes, int write_deadline_ms,
                         double first_byte_delay_s)
      : body_(std::make_shared<const std::string>(body_bytes, 'b')),
        write_deadline_ms_(write_deadline_ms),
        first_byte_delay_s_(first_byte_delay_s) {}

  EpollServer::Response on_request(const HttpRequest&) override {
    EpollServer::Response response = terse("200 OK", body_->size());
    response.body_shared = body_;
    response.body_length = body_->size();
    response.telemetry = write_deadline_ms_ > 0;
    response.write_deadline_ms = write_deadline_ms_;
    response.first_byte_delay_s = first_byte_delay_s_;
    return response;
  }
  EpollServer::Response on_bad_request() override {
    return terse("400 Bad Request", 0);
  }
  EpollServer::Response on_reject() override {
    return terse("503 Service Unavailable", 0);
  }
  void on_response_done(const EpollServer::Response&,
                        EpollServer::Response::Kind, double,
                        EpollServer::Outcome outcome) override {
    outcome_.store(outcome);
    done_.store(true);
  }

  bool done() const { return done_.load(); }
  EpollServer::Outcome outcome() const { return outcome_.load(); }

 private:
  static EpollServer::Response terse(const std::string& status,
                                     std::size_t length) {
    EpollServer::Response response;
    response.head = "HTTP/1.1 " + status +
                    "\r\nContent-Length: " + std::to_string(length) +
                    "\r\n\r\n";
    return response;
  }

  std::shared_ptr<const std::string> body_;
  int write_deadline_ms_;
  double first_byte_delay_s_;
  std::atomic<bool> done_{false};
  std::atomic<EpollServer::Outcome> outcome_{EpollServer::Outcome::kComplete};
};

TEST(TimerHeap, ShorterWriteDeadlineTripsUnderTheIdleWindow) {
  // A 200 ms write deadline under a 60 s idle window: the connection's
  // queued idle entry pops far too late, so the shorter deadline needs an
  // entry of its own. 16 MB cannot fit in the socket buffers of a peer
  // that never reads.
  PlannedResponseHandler handler(16u << 20, /*write_deadline_ms=*/200, 0.0);
  EpollServer::EpollServerOptions options;
  options.shards = 1;
  options.idle_timeout_ms = 60000;
  EpollServer server(&handler, options);
  server.start();

  TcpStream stalled = TcpStream::connect("127.0.0.1", server.port());
  stalled.write_all("GET /big HTTP/1.1\r\nHost: t\r\n\r\n");
  ASSERT_TRUE(eventually([&] { return handler.done(); }, 5000ms));
  EXPECT_EQ(handler.outcome(), EpollServer::Outcome::kWriteDeadline);
  EXPECT_TRUE(eventually([&] { return server.active_connections() == 0; }));
  server.stop();
}

TEST(TimerHeap, ServerSideWaitsDoNotCountAgainstThePeer) {
  // A first-byte delay of 400 ms outlasts the 150 ms idle window; the
  // shard, not the peer, is the one waiting, so the response still arrives.
  PlannedResponseHandler handler(1000, /*write_deadline_ms=*/0, 0.4);
  EpollServer::EpollServerOptions options;
  options.shards = 1;
  options.idle_timeout_ms = 150;
  EpollServer server(&handler, options);
  server.start();

  HttpClient client("127.0.0.1", server.port(), 3000);
  const HttpResponse response = client.request("/delayed");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body.size(), 1000u);
  server.stop();
  EXPECT_TRUE(handler.done());
  EXPECT_EQ(handler.outcome(), EpollServer::Outcome::kComplete);
}

TEST(AcceptLoop, SurvivesFdExhaustion) {
  struct rlimit original{};
  if (::getrlimit(RLIMIT_NOFILE, &original) != 0) {
    GTEST_SKIP() << "getrlimit unavailable";
  }
  struct rlimit tight = original;
  tight.rlim_cur = 96;
  if (tight.rlim_cur > original.rlim_max ||
      ::setrlimit(RLIMIT_NOFILE, &tight) != 0) {
    GTEST_SKIP() << "cannot lower RLIMIT_NOFILE";
  }

  const auto manifest = testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(8000.0, 600.0);
  ChunkServer server(manifest, trace, /*speedup=*/50.0);
  server.start();
  // One request through every shard first: a server thread still doing its
  // first-use set-up can hold a descriptor for an instant, and would take
  // the one reserved for the client below.
  for (std::size_t i = 0; i < server.transport().shard_count(); ++i) {
    HttpClient warm("127.0.0.1", server.port(), 3000);
    ASSERT_EQ(warm.request("/healthz").status, 200);
  }

  // Reserve one fd for the client socket, then hog every other free fd.
  const int reserved = ::dup(STDOUT_FILENO);
  std::vector<int> hogs;
  while (true) {
    const int fd = ::dup(STDOUT_FILENO);
    if (fd < 0) break;
    hogs.push_back(fd);
  }
  if (reserved < 0 || hogs.size() < 4) {
    for (const int fd : hogs) ::close(fd);
    if (reserved >= 0) ::close(reserved);
    ::setrlimit(RLIMIT_NOFILE, &original);
    GTEST_SKIP() << "fd exhaustion setup failed";
  }
  ::close(reserved);

  // The TCP handshake completes from the backlog, but the accept loop has
  // no fd to accept it with: it must back off and keep running, not die.
  TcpStream client = TcpStream::connect("127.0.0.1", server.port());
  std::this_thread::sleep_for(100ms);

  for (const int fd : hogs) ::close(fd);
  hogs.clear();
  ::setrlimit(RLIMIT_NOFILE, &original);

  // With fds back, the pending connection is accepted and served.
  client.set_timeout_ms(5000);
  client.write_all(
      "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  const auto [response, eof] = read_to_eof(client);
  EXPECT_TRUE(eof) << "the request's Connection: close was not honoured";
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("ok\n"), std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace abr::net
