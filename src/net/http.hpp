#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/socket.hpp"

namespace abr::net {

/// An HTTP/1.1 message header block.
struct HttpHeaders {
  std::vector<std::pair<std::string, std::string>> entries;

  /// Case-insensitive lookup of the first matching header.
  const std::string* find(std::string_view name) const;
  void set(std::string name, std::string value);
};

struct HttpRequest {
  std::string method;
  std::string target;  ///< origin-form, e.g. "/video/2/seg-7.m4s"
  HttpHeaders headers;
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  HttpHeaders headers;
  std::string body;
};

/// Called as response body bytes arrive: (bytes_so_far, done). It runs once
/// per socket read that lands body bytes, the read that completes the
/// header block included; bytes_so_far is exact, so a caller can credit the
/// landed prefix of a body that is cut short.
using ProgressCallback = std::function<void(std::size_t, bool)>;

/// One inclusive byte range resolved against a known body size.
struct ByteRange {
  std::size_t first = 0;
  std::size_t last = 0;  ///< inclusive; always < the body size
};

/// Outcome of resolving a Range request header.
enum class RangeParse {
  kNone,           ///< absent / not a bytes range / malformed — serve 200
  kValid,          ///< resolved range — serve 206 with Content-Range
  kUnsatisfiable,  ///< a bytes range the body cannot satisfy — serve 416
                   ///< with "Content-Range: bytes */<size>"
};

/// Resolves an RFC 7233 "Range" header value against a body of `size`
/// bytes. Single ranges only: multi-range requests (a comma in the spec)
/// are rejected as unsatisfiable — a DASH client never issues them and the
/// origin refuses to build multipart bodies. Open ("bytes=N-") and suffix
/// ("bytes=-K") forms are supported; a resume offset equal to the body
/// length is unsatisfiable (the 416 tells the client it already holds the
/// whole chunk). Syntactically malformed specs return kNone, which per RFC
/// means the header is ignored and the full body served.
RangeParse parse_range_header(std::string_view value, std::size_t size,
                              ByteRange& out);

/// Serializes a response head: the status line, `headers` in order, a
/// Content-Length of `body_size` unless `headers` already carries one, and
/// the blank line. The servers' planned responses all go through it.
std::string serialize_response_head(int status, std::string_view reason,
                                    const HttpHeaders& headers,
                                    std::size_t body_size);

/// Framing limits (guards against hostile peers), shared by the client's
/// ResponseReader and the origin's request parser. A request line longer
/// than kMaxRequestLineBytes is rejected even when the whole header block
/// fits under kMaxHeaderBytes.
inline constexpr std::size_t kMaxRequestLineBytes = 8 * 1024;
inline constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
inline constexpr std::size_t kMaxBodyBytes = 256 * 1024 * 1024;

/// The first line of a header block, without its line ending.
std::string_view first_line_of(std::string_view block);

/// A message's Content-Length, 0 when absent. Throws std::invalid_argument
/// when it is malformed or above kMaxBodyBytes.
std::size_t content_length_of(const HttpHeaders& headers);

/// Incremental reader of one HTTP/1.1 response framed by Content-Length
/// (the subset a DASH origin speaks). Bytes may arrive split anywhere:
/// every split gives the same response, or the same std::invalid_argument
/// on malformed framing.
class ResponseReader {
 public:
  /// Takes the prefix of `bytes` that belongs to this response and returns
  /// its length: never a byte past the end of the body.
  std::size_t feed(std::string_view bytes);

  /// Once the header block is parsed the body can be read in place:
  /// body_tail() is its unfilled part, body_missing() bytes long, and
  /// landed(n) accounts for n bytes written there.
  bool head_done() const { return head_done_; }
  char* body_tail() { return response_.body.data() + body_bytes_; }
  std::size_t body_missing() const {
    return response_.body.size() - body_bytes_;
  }
  void landed(std::size_t n) { body_bytes_ += n; }

  std::size_t body_bytes() const { return body_bytes_; }
  bool done() const { return head_done_ && body_missing() == 0; }
  HttpResponse& response() { return response_; }

 private:
  std::string head_;  ///< bytes before the blank line, capped
  bool head_done_ = false;
  std::size_t body_bytes_ = 0;
  HttpResponse response_;
};

/// Minimal HTTP/1.1 GET client over one persistent (keep-alive)
/// connection, reconnecting after the server closes it.
///
/// It keeps time on the calling thread: every GET runs on a poll() loop.
/// request() is the loop with one client; a caller that races clients or
/// runs timers of its own (HttpChunkSource's hedged race and abort
/// checkpoints) drives start()/advance() from its own loop with
/// HttpClient::poll(). One thread uses a client at a time.
class HttpClient {
 public:
  using Clock = std::chrono::steady_clock;

  /// `timeout_ms` is the per-read deadline: a GET whose connection moves no
  /// byte for this long fails with std::system_error (std::errc::timed_out),
  /// so a peer that accepts and then never responds cannot hang the caller.
  /// It bounds each wait, not the whole transfer.
  HttpClient(std::string host, std::uint16_t port, int timeout_ms = 120000);

  /// GETs `target`; throws std::runtime_error on non-2xx. Retries once on a
  /// transport error (persistent connection closed under us).
  HttpResponse get(const std::string& target,
                   const ProgressCallback& progress = nullptr);

  /// Single-attempt GET returning whatever status the server sent; never
  /// retries internally (callers running their own RetryPolicy need every
  /// attempt to be visible). On any thrown error the connection is dropped,
  /// so the next call reconnects.
  HttpResponse request(const std::string& target,
                       const ProgressCallback& progress = nullptr);

  /// As above, with caller-supplied request headers (range resumes send
  /// "Range: bytes=N-" this way).
  HttpResponse request(const std::string& target,
                       const HttpHeaders& extra_headers,
                       const ProgressCallback& progress = nullptr);

  /// Begins a GET without waiting for it: connects when no connection is
  /// open (throwing std::system_error when that fails) and sends what the
  /// socket takes of the request. A GET still in flight is abandoned first.
  void start(const std::string& target, const HttpHeaders& extra_headers = {});

  /// Moves the GET in flight as far as the last poll() wait allows,
  /// without blocking; `progress` sees every read that lands body bytes.
  /// Returns the response once it is complete. On a failure it closes the
  /// connection and throws: std::system_error on a transport error, or
  /// std::errc::timed_out once the connection has moved no byte for
  /// timeout_ms; std::invalid_argument on bad framing or an early EOF.
  std::optional<HttpResponse> advance(
      const ProgressCallback& progress = nullptr);

  /// Body bytes of the latest GET landed so far (kept after a failure).
  std::size_t body_bytes() const { return reader_.body_bytes(); }

  /// Abandons the GET in flight, if any, and closes the connection.
  void close();

  /// One wait of a client poll loop: blocks in poll() until a GET in flight
  /// on one of `clients` (at most four) can move, the earliest of their
  /// per-read deadlines passes, or `until` does. Clients without a GET in
  /// flight are skipped. Follow it with advance() on each client in flight.
  static void poll(std::initializer_list<HttpClient*> clients,
                   Clock::time_point until = Clock::time_point::max());

 private:
  void send_some();
  bool receive(const ProgressCallback& progress);

  std::string host_;
  std::uint16_t port_;
  Clock::duration timeout_;
  TcpStream stream_;            ///< invalid while disconnected
  bool in_flight_ = false;      ///< a GET is started and not ended
  bool keep_alive_ = true;      ///< false once the peer sent stray bytes
  std::string unsent_;          ///< request bytes the socket has not taken
  ResponseReader reader_;       ///< the latest GET's response
  Clock::time_point deadline_;  ///< per-read deadline of the GET in flight
  short ready_ = 0;             ///< revents of the last poll()
};

/// Parses "GET /path HTTP/1.1" style request lines and status lines;
/// exposed for tests.
bool parse_request_line(std::string_view line, HttpRequest& out);
bool parse_status_line(std::string_view line, HttpResponse& out);

/// Parses "Name: value" header lines from a block (CRLF or LF separated),
/// skipping the first `skip_lines` lines (the request/status line). Throws
/// std::invalid_argument on a malformed line. Exposed for tests and the
/// fuzz harnesses; both ends of the wire use it on every received block.
HttpHeaders parse_header_block(std::string_view block, std::size_t skip_lines);

}  // namespace abr::net
