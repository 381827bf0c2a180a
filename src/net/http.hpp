#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/socket.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

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
/// for body bytes that came with the header block and once per socket read
/// after that; bytes_so_far is exact, so a caller can credit the landed
/// prefix of a body that is cut short.
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

/// One HTTP/1.1 connection with persistent (keep-alive) semantics over a
/// TcpStream. Handles request/response framing with Content-Length bodies —
/// the subset a DASH origin needs. Malformed peers raise
/// std::invalid_argument; transport failures raise std::system_error.
///
/// This is a from-scratch implementation (no third-party HTTP stack): the
/// paper's emulation testbed (Section 7.2) is a plain node.js static server
/// plus a browser player, and this class plays both roles.
class HttpConnection {
 public:
  /// Owns the stream.
  explicit HttpConnection(TcpStream stream);
  /// Borrows a stream owned elsewhere (e.g., by TcpServer, which needs to
  /// retain it so stop() can interrupt a blocked handler). `borrowed` must
  /// outlive this object.
  explicit HttpConnection(TcpStream* borrowed);

  /// Server side: reads the next request. Returns nullopt on clean EOF
  /// between requests (client closed keep-alive).
  std::optional<HttpRequest> read_request();

  /// Server side: writes a response, adding Content-Length.
  void write_response(const HttpResponse& response);

  /// Client side: writes a request, adding Host and Content-Length.
  void write_request(const HttpRequest& request, const std::string& host);

  /// Client side: reads a response; invokes `progress` as body bytes land.
  HttpResponse read_response(const ProgressCallback& progress = nullptr);

  TcpStream& stream() { return borrowed_ != nullptr ? *borrowed_ : owned_; }

  /// Limits (guard against hostile peers). A request line longer than
  /// kMaxRequestLineBytes is rejected even when the whole header block fits
  /// under kMaxHeaderBytes.
  static constexpr std::size_t kMaxRequestLineBytes = 8 * 1024;
  static constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
  static constexpr std::size_t kMaxBodyBytes = 256 * 1024 * 1024;

 private:
  /// Reads until a blank line; returns the header block (without the final
  /// CRLFCRLF). Returns nullopt on immediate EOF.
  std::optional<std::string> read_header_block();
  std::string read_exact(std::size_t size, const ProgressCallback& progress);

  TcpStream owned_;
  TcpStream* borrowed_ = nullptr;
  std::string buffer_;  ///< bytes read past the last parsed message
};

/// Minimal HTTP GET client with a persistent connection; reconnects
/// transparently after a server-side close.
///
/// One thread issues requests at a time; abort() is the only member safe to
/// call concurrently with an in-flight request (hedged fetches use it to
/// cancel the losing leg).
class HttpClient {
 public:
  /// `timeout_ms` is the socket-level deadline (SO_RCVTIMEO/SO_SNDTIMEO)
  /// applied to every connection: a peer that accepts and then never
  /// responds makes the blocked read fail with std::system_error
  /// (EAGAIN/EWOULDBLOCK) after this long instead of hanging forever.
  HttpClient(std::string host, std::uint16_t port, int timeout_ms = 120000);

  /// Applies to connections established after the call (the current
  /// connection, if any, is dropped so the next request reconnects).
  void set_timeout_ms(int timeout_ms) ABR_EXCLUDES(mutex_);

  /// GETs `target`; throws std::runtime_error on non-2xx. Retries once on a
  /// transport error (persistent connection closed under us).
  HttpResponse get(const std::string& target,
                   const ProgressCallback& progress = nullptr);

  /// Single-attempt GET returning whatever status the server sent; never
  /// retries internally (callers running their own RetryPolicy need every
  /// attempt to be visible). On any thrown error the connection is dropped,
  /// so the next call reconnects.
  HttpResponse request(const std::string& target,
                       const ProgressCallback& progress = nullptr)
      ABR_EXCLUDES(mutex_);

  /// As above, with caller-supplied request headers (range resumes send
  /// "Range: bytes=N-" this way).
  HttpResponse request(const std::string& target,
                       const HttpHeaders& extra_headers,
                       const ProgressCallback& progress = nullptr)
      ABR_EXCLUDES(mutex_);

  /// Interrupts an in-flight request from another thread: shuts down the
  /// current connection, so the blocked read/write fails with an error the
  /// requesting thread surfaces as a transport failure. Safe to call at any
  /// time; a no-op when idle.
  void abort() ABR_EXCLUDES(mutex_);

 private:
  void ensure_connected_locked() ABR_REQUIRES(mutex_);

  std::string host_;
  std::uint16_t port_;
  int timeout_ms_ ABR_GUARDED_BY(mutex_);
  util::Mutex mutex_;  ///< guards connection_ creation/teardown (not I/O)
  std::optional<HttpConnection> connection_ ABR_GUARDED_BY(mutex_);
};

/// Parses "GET /path HTTP/1.1" style request lines and status lines;
/// exposed for tests.
bool parse_request_line(std::string_view line, HttpRequest& out);
bool parse_status_line(std::string_view line, HttpResponse& out);

/// Parses "Name: value" header lines from a block (CRLF or LF separated),
/// skipping the first `skip_lines` lines (the request/status line). Throws
/// std::invalid_argument on a malformed line. Exposed for tests and the
/// fuzz harnesses; HttpConnection uses it on every received block.
HttpHeaders parse_header_block(std::string_view block, std::size_t skip_lines);

}  // namespace abr::net
