// The live telemetry plane: the standalone TelemetryServer (abrsim
// --telemetry-port) and the ChunkServer-embedded /metrics & /statusz
// endpoints. Scrapes must be valid Prometheus text exposition while
// sessions stream concurrently, bounded by the per-request deadline, and
// the drain path must flush shed/peak counters into the registry.
#include "net/telemetry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "media/manifest.hpp"
#include "net/chunk_server.hpp"
#include "net/http.hpp"
#include "net/socket.hpp"
#include "obs/exposition.hpp"
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
  ScopedMetrics() {
    obs::MetricsRegistry::global().set_enabled(true);
    obs::register_standard_metrics(obs::MetricsRegistry::global());
  }
  ~ScopedMetrics() { obs::MetricsRegistry::global().set_enabled(false); }
};

TEST(TelemetryResponse, TargetsAndContentTypes) {
  EXPECT_TRUE(is_telemetry_target("/metrics"));
  EXPECT_TRUE(is_telemetry_target("/statusz"));
  EXPECT_FALSE(is_telemetry_target("/healthz"));
  EXPECT_FALSE(is_telemetry_target("/manifest.mpd"));

  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  registry.counter("requests_total").increment(7.0);
  TelemetryStatus status;
  status.uptime_s = 12.5;
  status.active_connections = 3;

  const HttpResponse metrics = telemetry_response(registry, "/metrics", status);
  EXPECT_EQ(metrics.status, 200);
  const std::string* type = metrics.headers.find("Content-Type");
  ASSERT_NE(type, nullptr);
  EXPECT_EQ(*type, kPrometheusContentType);
  EXPECT_NE(metrics.body.find("requests_total 7"), std::string::npos);
  EXPECT_TRUE(obs::validate_prometheus_text(metrics.body).empty())
      << metrics.body;

  const HttpResponse statusz = telemetry_response(registry, "/statusz", status);
  EXPECT_EQ(statusz.status, 200);
  EXPECT_NE(statusz.body.find("\"uptime_s\":12.5"), std::string::npos)
      << statusz.body;
  EXPECT_NE(statusz.body.find("\"active_connections\":3"), std::string::npos);
}

TEST(TelemetryServer, ServesMetricsStatuszAndHealthz) {
  ScopedMetrics metrics_scope;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.counter(obs::kJournalRecordsTotal).increment(5.0);

  TelemetryServer server(registry);
  server.start(0);
  HttpClient client("127.0.0.1", server.port(), 5000);

  const HttpResponse metrics = client.get("/metrics");
  EXPECT_TRUE(obs::validate_prometheus_text(metrics.body).empty())
      << metrics.body;
  EXPECT_NE(metrics.body.find(obs::kJournalRecordsTotal), std::string::npos);

  const HttpResponse statusz = client.get("/statusz");
  EXPECT_NE(statusz.body.find("\"uptime_s\":"), std::string::npos);
  EXPECT_NE(statusz.body.find("\"draining\":false"), std::string::npos);

  const HttpResponse health = client.get("/healthz");
  EXPECT_EQ(health.body, "ok\n");

  const HttpResponse missing = client.request("/nope");
  EXPECT_EQ(missing.status, 404);

  EXPECT_GE(server.requests_served(), 4u);
  server.stop();
}

TEST(TelemetryServer, ScrapesAreValidUnderConcurrency) {
  ScopedMetrics metrics_scope;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  TelemetryServer server(registry);
  server.start(0);

  std::atomic<bool> failed{false};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([&server, &registry, &failed, t]() {
      try {
        HttpClient client("127.0.0.1", server.port(), 5000);
        for (int i = 0; i < 10; ++i) {
          registry.counter(obs::kJournalRecordsTotal).increment();
          registry.gauge(obs::kFleetSessionsActive)
              .set(static_cast<double>(t));
          const HttpResponse response = client.request("/metrics");
          if (response.status == 200 &&
              !obs::validate_prometheus_text(response.body).empty()) {
            failed.store(true);
          }
        }
      } catch (const std::exception&) {
        // Shed (503) or torn connections are acceptable under load; only an
        // invalid 200 body is a failure.
      }
    });
  }
  for (std::thread& thread : scrapers) thread.join();
  server.stop();
  EXPECT_FALSE(failed.load());
}

TEST(TelemetryServer, FifthConnectionPastTheCapGets503) {
  obs::MetricsRegistry registry;
  TelemetryServer server(registry);
  server.start(0);

  // Four holds fill the admission cap of 4. Each trickles a header byte
  // every ~80 ms and never ends its header block, so the 250 ms
  // per-progress deadline never cuts it.
  constexpr std::size_t kCap = 4;
  std::vector<TcpStream> holds;
  for (std::size_t i = 0; i < kCap; ++i) {
    holds.push_back(TcpStream::connect("127.0.0.1", server.port()));
    holds.back().write_all("GET /metrics HTTP/1.1\r\nX-Trickle: ");
  }
  std::atomic<bool> trickling{true};
  std::thread trickler([&] {
    try {
      while (trickling.load()) {
        for (TcpStream& hold : holds) hold.write_all("a");
        std::this_thread::sleep_for(80ms);
      }
    } catch (const std::system_error&) {
      // A hold was cut; the assertions below report it.
    }
  });
  // EXPECT, not ASSERT: the trickler must be joined on every path.
  EXPECT_TRUE(eventually(
      [&] { return server.transport().active_connections() >= kCap; }));

  TcpStream shed = TcpStream::connect("127.0.0.1", server.port());
  shed.set_timeout_ms(3000);
  shed.write_all("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  const auto [response, eof] = read_to_eof(shed);
  EXPECT_TRUE(eof);
  EXPECT_NE(response.find("503 Service Unavailable"), std::string::npos)
      << response;
  EXPECT_NE(response.find("Retry-After: 1\r\n"), std::string::npos);
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(server.shed_connections(), 1u);
  // The holds outlived the shed connection.
  EXPECT_TRUE(eventually(
      [&] { return server.transport().active_connections() == kCap; }));

  trickling.store(false);
  trickler.join();
  server.stop();
}

TEST(TelemetryServer, MalformedRequestGets400ThenEof) {
  obs::MetricsRegistry registry;
  TelemetryServer server(registry);
  server.start(0);

  TcpStream stream = TcpStream::connect("127.0.0.1", server.port());
  stream.set_timeout_ms(3000);
  stream.write_all("this is not http\r\n\r\n");
  const auto [response, eof] = read_to_eof(stream);
  EXPECT_NE(response.find("400 Bad Request"), std::string::npos) << response;
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  EXPECT_TRUE(eof);
  server.stop();
}

TEST(TelemetryServer, UnfinishedHeaderBlockIsCutAtTheDeadline) {
  obs::MetricsRegistry registry;
  TelemetryServer server(registry);
  server.start(0);

  // Half a header block, then silence: the server drops the connection
  // about its 250 ms deadline later, long before the client's own 3 s
  // timeout would end the wait.
  TcpStream stream = TcpStream::connect("127.0.0.1", server.port());
  stream.set_timeout_ms(3000);
  stream.write_all("GET /metrics HTTP/1.1\r\nX-Never: ");
  const auto start = std::chrono::steady_clock::now();
  const auto [response, eof] = read_to_eof(stream);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_TRUE(eof);
  EXPECT_TRUE(response.empty()) << response;
  EXPECT_GT(waited, 0.1);
  EXPECT_LT(waited, 1.5);
  server.stop();
}

TEST(TelemetryServer, PostGets405WithAllowGet) {
  obs::MetricsRegistry registry;
  TelemetryServer server(registry);
  server.start(0);

  TcpStream stream = TcpStream::connect("127.0.0.1", server.port());
  stream.set_timeout_ms(3000);
  stream.write_all("POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  const auto [response, eof] = read_to_eof(stream);
  EXPECT_NE(response.find("405 Method Not Allowed"), std::string::npos)
      << response;
  EXPECT_NE(response.find("Allow: GET\r\n"), std::string::npos);
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  EXPECT_TRUE(eof);
  server.stop();
}

TEST(ChunkServer, ServesTelemetryWhileSessionsStream) {
  ScopedMetrics metrics_scope;
  const auto manifest = media::VideoManifest::envivio_default();
  const auto trace = trace::ThroughputTrace::constant(40000.0, 1000.0);
  ChunkServer server(manifest, trace, 50.0);
  server.start(0);

  std::atomic<bool> stop_streaming{false};
  std::atomic<bool> invalid_scrape{false};
  std::thread streamer([&]() {
    try {
      HttpClient client("127.0.0.1", server.port(), 5000);
      while (!stop_streaming.load()) {
        client.get("/video/0/seg-1.m4s");
      }
    } catch (const std::exception&) {
    }
  });

  HttpClient scraper("127.0.0.1", server.port(), 5000);
  for (int i = 0; i < 10; ++i) {
    const HttpResponse metrics = scraper.request("/metrics");
    if (metrics.status != 200 ||
        !obs::validate_prometheus_text(metrics.body).empty()) {
      invalid_scrape.store(true);
    }
    const std::string* type = metrics.headers.find("Content-Type");
    if (type == nullptr || *type != kPrometheusContentType) {
      invalid_scrape.store(true);
    }
  }
  const HttpResponse statusz = scraper.request("/statusz");
  EXPECT_EQ(statusz.status, 200);
  EXPECT_NE(statusz.body.find("\"requests_served\":"), std::string::npos);
  EXPECT_NE(statusz.body.find("\"peak_connections\":"), std::string::npos);

  stop_streaming.store(true);
  streamer.join();
  EXPECT_FALSE(invalid_scrape.load());
  server.drain(1.0);

  // The drain/stop path flushed transport state into the registry: the peak
  // gauge saw at least the streamer + scraper connections.
  EXPECT_GE(obs::MetricsRegistry::global()
                .gauge(obs::kHttpPeakConnections)
                .value(),
            1.0);
}

TEST(ChunkServer, TelemetryIsShedWhenAdmissionCapIsFull) {
  ScopedMetrics metrics_scope;
  const auto manifest = media::VideoManifest::envivio_default();
  // Slow origin (low shaped rate) so the streaming connection stays busy.
  const auto trace = trace::ThroughputTrace::constant(2000.0, 1000.0);
  ChunkServerOptions options;
  options.max_connections = 1;
  ChunkServer server(manifest, trace, 1.0, options);
  server.start(0);

  std::atomic<bool> done{false};
  std::thread occupant([&]() {
    try {
      HttpClient client("127.0.0.1", server.port(), 10000);
      client.get("/video/4/seg-1.m4s");  // large segment, slow shaping
    } catch (const std::exception&) {
    }
    done.store(true);
  });

  // Give the occupant time to claim the only slot, then scrape: admission
  // control must shed the scrape (503), never queue it.
  while (server.requests_served() == 0 && !done.load()) {
    std::this_thread::yield();
  }
  bool shed_seen = false;
  for (int i = 0; i < 20 && !done.load() && !shed_seen; ++i) {
    try {
      HttpClient scraper("127.0.0.1", server.port(), 2000);
      const HttpResponse response = scraper.request("/metrics");
      if (response.status == 503) shed_seen = true;
    } catch (const std::exception&) {
      // Connection reset while shedding also counts.
      shed_seen = true;
    }
  }
  occupant.join();
  EXPECT_TRUE(shed_seen || done.load());
  server.stop();
}

}  // namespace
}  // namespace abr::net
