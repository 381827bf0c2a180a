#include "net/http.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "media/manifest.hpp"
#include "net/chunk_server.hpp"
#include "test_helpers.hpp"
#include "trace/throughput_trace.hpp"

namespace abr::net {
namespace {

TEST(HttpHeaders, CaseInsensitiveLookup) {
  HttpHeaders headers;
  headers.set("Content-Length", "42");
  ASSERT_NE(headers.find("content-length"), nullptr);
  EXPECT_EQ(*headers.find("CONTENT-LENGTH"), "42");
  EXPECT_EQ(headers.find("Content-Type"), nullptr);
}

TEST(HttpHeaders, SetOverwritesExisting) {
  HttpHeaders headers;
  headers.set("Connection", "keep-alive");
  headers.set("connection", "close");
  EXPECT_EQ(headers.entries.size(), 1u);
  EXPECT_EQ(*headers.find("Connection"), "close");
}

TEST(ParseRequestLine, Valid) {
  HttpRequest request;
  ASSERT_TRUE(parse_request_line("GET /video/2/seg-7.m4s HTTP/1.1", request));
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/video/2/seg-7.m4s");
}

TEST(ParseRequestLine, RejectsMalformed) {
  HttpRequest request;
  EXPECT_FALSE(parse_request_line("", request));
  EXPECT_FALSE(parse_request_line("GET /x", request));
  EXPECT_FALSE(parse_request_line("GET /x HTTP/2.0", request));
  EXPECT_FALSE(parse_request_line("GET x HTTP/1.1", request));
  EXPECT_FALSE(parse_request_line("GET /x HTTP/1.1 extra", request));
}

TEST(ParseStatusLine, Valid) {
  HttpResponse response;
  ASSERT_TRUE(parse_status_line("HTTP/1.1 200 OK", response));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.reason, "OK");
  ASSERT_TRUE(parse_status_line("HTTP/1.1 404 Not Found", response));
  EXPECT_EQ(response.status, 404);
  EXPECT_EQ(response.reason, "Not Found");
  ASSERT_TRUE(parse_status_line("HTTP/1.0 204", response));
  EXPECT_EQ(response.status, 204);
}

TEST(ParseStatusLine, RejectsMalformed) {
  HttpResponse response;
  EXPECT_FALSE(parse_status_line("SPDY/1 200 OK", response));
  EXPECT_FALSE(parse_status_line("HTTP/1.1", response));
  EXPECT_FALSE(parse_status_line("HTTP/1.1 abc OK", response));
  EXPECT_FALSE(parse_status_line("HTTP/1.1 99 Low", response));
}

/// Spins up a trivial threaded HTTP exchange over a loopback socket pair.
class HttpConnectionTest : public ::testing::Test {
 protected:
  void SetUp() override { listener_ = TcpListener::bind_loopback(); }

  TcpListener listener_;
};

/// Server side of a test exchange: reads the next request head off
/// `stream`; nullopt on EOF between requests.
std::optional<HttpRequest> read_request(TcpStream& stream) {
  std::string head;
  char byte = 0;
  while (head.find("\r\n\r\n") == std::string::npos) {
    if (testing::read_some(stream, &byte, 1) == 0) return std::nullopt;
    head.push_back(byte);
  }
  HttpRequest request;
  EXPECT_TRUE(parse_request_line(first_line_of(head), request)) << head;
  request.headers = parse_header_block(head, /*skip_lines=*/1);
  return request;
}

void write_response(TcpStream& stream, const HttpResponse& response) {
  testing::write_all(stream,
                     serialize_response_head(response.status, response.reason,
                                             response.headers,
                                             response.body.size()) +
                         response.body);
}

TEST_F(HttpConnectionTest, RequestResponseRoundTrip) {
  std::thread server([this] {
    TcpStream stream = listener_.accept();
    const auto request = read_request(stream);
    ASSERT_TRUE(request.has_value());
    EXPECT_EQ(request->method, "GET");
    EXPECT_EQ(request->target, "/hello");
    EXPECT_NE(request->headers.find("Host"), nullptr);
    ASSERT_NE(request->headers.find("X-Test"), nullptr);
    EXPECT_EQ(*request->headers.find("X-Test"), "1");

    HttpResponse response;
    response.body = "world";
    response.headers.set("Content-Type", "text/plain");
    write_response(stream, response);
  });

  HttpClient client("127.0.0.1", listener_.port(), 3000);
  HttpHeaders headers;
  headers.set("X-Test", "1");
  const HttpResponse response = client.request("/hello", headers);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "world");
  EXPECT_EQ(*response.headers.find("content-type"), "text/plain");
  server.join();
}

TEST_F(HttpConnectionTest, KeepAliveServesMultipleRequests) {
  std::thread server([this] {
    TcpStream stream = listener_.accept();
    for (int i = 0; i < 3; ++i) {
      const auto request = read_request(stream);
      ASSERT_TRUE(request.has_value());
      EXPECT_EQ(request->target, "/r" + std::to_string(i));
      HttpResponse response;
      response.body = "reply-" + std::to_string(i);
      write_response(stream, response);
    }
    // Fourth read: client closed -> clean EOF.
    EXPECT_FALSE(read_request(stream).has_value());
  });

  {
    HttpClient client("127.0.0.1", listener_.port(), 3000);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(client.request("/r" + std::to_string(i)).body,
                "reply-" + std::to_string(i));
    }
  }  // destructor closes the connection
  server.join();
}

TEST_F(HttpConnectionTest, BodyWithContentLengthRoundTrips) {
  const std::string payload(100000, 'x');
  std::thread server([this, &payload] {
    TcpStream stream = listener_.accept();
    ASSERT_TRUE(read_request(stream).has_value());
    HttpResponse response;
    response.body = payload;
    write_response(stream, response);
  });

  HttpClient client("127.0.0.1", listener_.port(), 3000);
  EXPECT_EQ(client.request("/download").body, payload);
  server.join();
}

TEST_F(HttpConnectionTest, ProgressCallbackObservesBody) {
  std::thread server([this] {
    TcpStream stream = listener_.accept();
    (void)read_request(stream);
    HttpResponse response;
    response.body = std::string(50000, 'y');
    write_response(stream, response);
  });

  HttpClient client("127.0.0.1", listener_.port(), 3000);
  std::size_t last_seen = 0;
  bool saw_done = false;
  client.request("/data", [&](std::size_t bytes, bool done) {
    EXPECT_GE(bytes, last_seen);
    last_seen = bytes;
    if (done) saw_done = true;
  });
  EXPECT_EQ(last_seen, 50000u);
  EXPECT_TRUE(saw_done);
  server.join();
}

TEST_F(HttpConnectionTest, TruncatedBodyThrows) {
  std::thread server([this] {
    TcpStream stream = listener_.accept();
    (void)read_request(stream);
    testing::write_all(stream,
                       "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc");
    testing::shutdown_write(stream);
  });
  HttpClient client("127.0.0.1", listener_.port(), 3000);
  EXPECT_THROW(client.request("/cut"), std::invalid_argument);
  // The landed prefix stays readable after the failure.
  EXPECT_EQ(client.body_bytes(), 3u);
  server.join();
}

TEST_F(HttpConnectionTest, HttpClientGetAndReconnect) {
  std::atomic<int> connections{0};
  std::thread server([this, &connections] {
    // Serve one request per connection (Connection: close), twice.
    for (int i = 0; i < 2; ++i) {
      TcpStream stream = listener_.accept();
      ++connections;
      const auto request = read_request(stream);
      ASSERT_TRUE(request.has_value());
      HttpResponse response;
      response.body = "r" + std::to_string(i);
      response.headers.set("Connection", "close");
      write_response(stream, response);
    }
  });

  HttpClient client("127.0.0.1", listener_.port());
  EXPECT_EQ(client.get("/a").body, "r0");
  EXPECT_EQ(client.get("/b").body, "r1");
  EXPECT_EQ(connections.load(), 2);
  server.join();
}

TEST_F(HttpConnectionTest, HttpClientThrowsOnErrorStatus) {
  std::thread server([this] {
    TcpStream stream = listener_.accept();
    (void)read_request(stream);
    HttpResponse response;
    response.status = 404;
    response.reason = "Not Found";
    write_response(stream, response);
  });
  HttpClient client("127.0.0.1", listener_.port());
  EXPECT_THROW(client.get("/missing"), std::runtime_error);
  server.join();
}

/// Every progress report of one request: (bytes_so_far, done).
using ProgressLog = std::vector<std::pair<std::size_t, bool>>;

TEST_F(HttpConnectionTest, HeaderBlockAndShortBodyInOneSegmentParse) {
  std::thread server([this] {
    TcpStream stream = listener_.accept();
    (void)read_request(stream);
    // One write: the status line, headers and body share a segment, so the
    // whole body arrives with the header block.
    testing::write_all(stream,
                       "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello");
  });
  HttpClient client("127.0.0.1", listener_.port(), 3000);
  ProgressLog reports;
  const HttpResponse response =
      client.request("/short", [&reports](std::size_t bytes, bool done) {
        reports.emplace_back(bytes, done);
      });
  server.join();
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "hello");
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0], std::make_pair(std::size_t{5}, true));
}

TEST_F(HttpConnectionTest, StrayBytesPastTheResponseCloseTheConnection) {
  std::atomic<int> connections{0};
  std::thread server([this, &connections] {
    for (int i = 0; i < 2; ++i) {
      TcpStream stream = listener_.accept();
      ++connections;
      (void)read_request(stream);
      // A well-formed response followed by bytes nobody asked for.
      testing::write_all(stream,
                         "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokJUNK");
      (void)read_request(stream);  // waits for the client to hang up
    }
  });
  HttpClient client("127.0.0.1", listener_.port(), 3000);
  EXPECT_EQ(client.request("/a").body, "ok");
  // The stray bytes are not read as the next response: it reconnects.
  EXPECT_EQ(client.request("/b").body, "ok");
  client.close();
  server.join();
  EXPECT_EQ(connections.load(), 2);
}

/// Feeds `wire` to a fresh reader in pieces of `step` bytes.
HttpResponse read_in_steps(std::string_view wire, std::size_t step,
                           std::size_t& taken) {
  ResponseReader reader;
  taken = 0;
  while (!reader.done() && taken < wire.size()) {
    taken += reader.feed(wire.substr(taken, step));
  }
  EXPECT_TRUE(reader.done());
  return reader.response();
}

TEST(ResponseReader, EverySplitGivesTheSameResponseAndStopsAtItsEnd) {
  const std::string message =
      "HTTP/1.1 206 Partial Content\r\nContent-Range: bytes 5-9/10\r\n"
      "Content-Length: 5\r\n\r\nhello";
  const std::string wire = message + "HTTP/1.1 200 OK\r\n";
  for (std::size_t step = 1; step <= wire.size(); ++step) {
    std::size_t taken = 0;
    const HttpResponse response = read_in_steps(wire, step, taken);
    EXPECT_EQ(taken, message.size()) << "step " << step;
    EXPECT_EQ(response.status, 206);
    EXPECT_EQ(response.reason, "Partial Content");
    EXPECT_EQ(response.body, "hello");
    ASSERT_NE(response.headers.find("content-range"), nullptr);
    EXPECT_EQ(*response.headers.find("content-range"), "bytes 5-9/10");
  }
}

TEST(ResponseReader, BodyLandsInPlaceAfterTheHead) {
  ResponseReader reader;
  const std::string head = "HTTP/1.1 200 OK\r\nContent-Length: 6\r\n\r\nab";
  EXPECT_EQ(reader.feed(head), head.size());
  ASSERT_TRUE(reader.head_done());
  EXPECT_EQ(reader.body_bytes(), 2u);
  ASSERT_EQ(reader.body_missing(), 4u);
  std::memcpy(reader.body_tail(), "cdef", 4);
  reader.landed(4);
  EXPECT_TRUE(reader.done());
  EXPECT_EQ(reader.feed("more"), 0u);
  EXPECT_EQ(reader.response().body, "abcdef");
}

TEST(ResponseReader, RejectsMalformedFramingWhateverTheSplit) {
  const std::string head = "HTTP/1.1 200 OK\r\nX: ";
  const std::string end = "\r\n\r\n";
  const std::string oversized = head + std::string(kMaxHeaderBytes, 'a') + end;
  const std::string fits = head + std::string(kMaxHeaderBytes - 20, 'a') + end;
  ASSERT_EQ(fits.find("\r\n\r\n"), kMaxHeaderBytes);
  const char* const malformed[] = {
      "SPDY/3 200 OK\r\n\r\n",
      "HTTP/1.1 200 OK\r\nno colon\r\n\r\n",
      "HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n",
      "HTTP/1.1 200 OK\r\nContent-Length: 268435457\r\n\r\n",
  };
  for (const std::size_t step : {std::size_t{1} << 16, std::size_t{4093}}) {
    std::size_t taken = 0;
    EXPECT_THROW(read_in_steps(oversized, step, taken), std::invalid_argument);
    EXPECT_EQ(read_in_steps(fits, step, taken).status, 200);
    for (const char* bad : malformed) {
      EXPECT_THROW(read_in_steps(bad, step, taken), std::invalid_argument)
          << bad;
    }
  }
}

TEST(HttpReadPath, ProgressOnALargeBodyStrictlyIncreasesToItsSize) {
  // One 3000 kbps x 4 s segment: a 1.5 MB body through the shaped origin.
  const auto manifest = media::VideoManifest::cbr(1, 4.0, {3000.0}, "large");
  const auto trace = trace::ThroughputTrace::constant(1e9, 3600.0);
  ChunkServer server(manifest, trace);
  server.start();
  HttpClient client("127.0.0.1", server.port(), 5000);
  ProgressLog reports;
  const HttpResponse response = client.request(
      "/video/0/seg-0.m4s", [&reports](std::size_t bytes, bool done) {
        reports.emplace_back(bytes, done);
      });
  server.stop();

  ASSERT_EQ(response.status, 200);
  ASSERT_EQ(response.body.size(), 1500000u);
  ASSERT_FALSE(reports.empty());
  for (std::size_t i = 1; i < reports.size(); ++i) {
    EXPECT_LT(reports[i - 1].first, reports[i].first) << "report " << i;
    EXPECT_FALSE(reports[i - 1].second) << "report " << i - 1;
  }
  EXPECT_EQ(reports.back().first, response.body.size());
  EXPECT_TRUE(reports.back().second);
}

}  // namespace
}  // namespace abr::net
