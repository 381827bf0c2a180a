#include "net/http.hpp"

#include <algorithm>
#include <stdexcept>
#include <system_error>

#include "util/strings.hpp"

namespace abr::net {

const std::string* HttpHeaders::find(std::string_view name) const {
  for (const auto& [key, value] : entries) {
    if (util::iequals(key, name)) return &value;
  }
  return nullptr;
}

void HttpHeaders::set(std::string name, std::string value) {
  for (auto& [key, existing] : entries) {
    if (util::iequals(key, name)) {
      existing = std::move(value);
      return;
    }
  }
  entries.emplace_back(std::move(name), std::move(value));
}

bool parse_request_line(std::string_view line, HttpRequest& out) {
  const auto parts = util::split(line, ' ');
  if (parts.size() != 3) return false;
  if (!util::starts_with(parts[2], "HTTP/1.")) return false;
  if (parts[0].empty() || parts[1].empty() || parts[1][0] != '/') return false;
  out.method = std::string(parts[0]);
  out.target = std::string(parts[1]);
  return true;
}

bool parse_status_line(std::string_view line, HttpResponse& out) {
  // "HTTP/1.1 200 OK" — the reason phrase may contain spaces or be absent.
  if (!util::starts_with(line, "HTTP/1.")) return false;
  const std::size_t first_space = line.find(' ');
  if (first_space == std::string_view::npos) return false;
  const std::size_t second_space = line.find(' ', first_space + 1);
  const std::string_view code =
      line.substr(first_space + 1, second_space == std::string_view::npos
                                       ? std::string_view::npos
                                       : second_space - first_space - 1);
  std::size_t status = 0;
  if (!util::parse_size(code, status) || status < 100 || status > 599) {
    return false;
  }
  out.status = static_cast<int>(status);
  out.reason = second_space == std::string_view::npos
                   ? std::string()
                   : std::string(line.substr(second_space + 1));
  return true;
}

RangeParse parse_range_header(std::string_view value, std::size_t size,
                              ByteRange& out) {
  std::string_view spec = util::trim(value);
  if (!util::starts_with(spec, "bytes=")) return RangeParse::kNone;
  spec.remove_prefix(6);
  spec = util::trim(spec);
  if (spec.find(',') != std::string_view::npos) {
    // Multi-range: syntactically a bytes range, deliberately refused.
    return RangeParse::kUnsatisfiable;
  }
  const std::size_t dash = spec.find('-');
  if (dash == std::string_view::npos) return RangeParse::kNone;
  const std::string_view left = util::trim(spec.substr(0, dash));
  const std::string_view right = util::trim(spec.substr(dash + 1));

  if (left.empty()) {
    // Suffix form "bytes=-K": the final K bytes.
    std::size_t suffix = 0;
    if (right.empty() || !util::parse_size(right, suffix)) {
      return RangeParse::kNone;
    }
    if (suffix == 0 || size == 0) return RangeParse::kUnsatisfiable;
    out.first = size - std::min(suffix, size);
    out.last = size - 1;
    return RangeParse::kValid;
  }

  std::size_t first = 0;
  if (!util::parse_size(left, first)) return RangeParse::kNone;
  if (first >= size) return RangeParse::kUnsatisfiable;
  if (right.empty()) {
    // Open form "bytes=N-": everything from N (the resume shape).
    out.first = first;
    out.last = size - 1;
    return RangeParse::kValid;
  }
  std::size_t last = 0;
  if (!util::parse_size(right, last)) return RangeParse::kNone;
  if (last < first) return RangeParse::kNone;  // malformed: ignored per RFC
  out.first = first;
  out.last = std::min(last, size - 1);
  return RangeParse::kValid;
}

HttpHeaders parse_header_block(std::string_view block, std::size_t skip_lines) {
  HttpHeaders headers;
  std::size_t line_index = 0;
  std::size_t start = 0;
  while (start < block.size()) {
    std::size_t end = block.find('\n', start);
    if (end == std::string_view::npos) end = block.size();
    std::string_view line = block.substr(start, end - start);
    start = end + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line_index++ < skip_lines) continue;
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      throw std::invalid_argument("HTTP: malformed header line");
    }
    headers.entries.emplace_back(std::string(util::trim(line.substr(0, colon))),
                                 std::string(util::trim(line.substr(colon + 1))));
  }
  return headers;
}

namespace {

std::string_view first_line(std::string_view block) {
  std::size_t end = block.find('\n');
  if (end == std::string_view::npos) end = block.size();
  std::string_view line = block.substr(0, end);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

std::size_t content_length_of(const HttpHeaders& headers) {
  const std::string* value = headers.find("Content-Length");
  if (value == nullptr) return 0;
  std::size_t length = 0;
  if (!util::parse_size(*value, length) ||
      length > HttpConnection::kMaxBodyBytes) {
    throw std::invalid_argument("HTTP: bad Content-Length");
  }
  return length;
}

}  // namespace

std::string serialize_response_head(int status, std::string_view reason,
                                    const HttpHeaders& headers,
                                    std::size_t body_size) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " ";
  out += reason;
  out += "\r\n";
  bool has_length = false;
  for (const auto& [key, value] : headers.entries) {
    if (util::iequals(key, "Content-Length")) has_length = true;
    out += key + ": " + value + "\r\n";
  }
  if (!has_length) {
    out += "Content-Length: " + std::to_string(body_size) + "\r\n";
  }
  out += "\r\n";
  return out;
}

HttpConnection::HttpConnection(TcpStream stream) : stream_(std::move(stream)) {}

std::optional<std::string> HttpConnection::read_header_block() {
  while (true) {
    const std::size_t boundary = buffer_.find("\r\n\r\n");
    if (boundary != std::string::npos) {
      // Enforce the cap on the extracted block, not just the pending
      // buffer: a terminator arriving within one read chunk past the cap
      // must not smuggle an oversized block through.
      if (boundary > kMaxHeaderBytes) {
        throw std::invalid_argument("HTTP: header block too large");
      }
      std::string block = buffer_.substr(0, boundary);
      buffer_.erase(0, boundary + 4);
      return block;
    }
    if (buffer_.size() > kMaxHeaderBytes) {
      throw std::invalid_argument("HTTP: header block too large");
    }
    char chunk[8192];
    const std::size_t n = stream().read(chunk, sizeof(chunk));
    if (n == 0) {
      if (buffer_.empty()) return std::nullopt;  // clean EOF between messages
      throw std::invalid_argument("HTTP: connection closed mid-headers");
    }
    buffer_.append(chunk, n);
  }
}

std::string HttpConnection::read_exact(std::size_t size,
                                       const ProgressCallback& progress) {
  // Read in place: bytes that came with the header block move out of
  // buffer_, the rest land straight in the body, one report per read.
  std::string body(size, '\0');
  std::size_t have = buffer_.copy(body.data(), size);
  buffer_.erase(0, have);
  if (progress && have > 0) progress(have, have == size);
  while (have < size) {
    const std::size_t n = stream().read(body.data() + have, size - have);
    if (n == 0) throw std::invalid_argument("HTTP: connection closed mid-body");
    have += n;
    if (progress) progress(have, have == size);
  }
  return body;
}

std::optional<HttpRequest> HttpConnection::read_request() {
  const auto block = read_header_block();
  if (!block.has_value()) return std::nullopt;

  const std::string_view line = first_line(*block);
  if (line.size() > kMaxRequestLineBytes) {
    throw std::invalid_argument("HTTP: request line too long");
  }
  HttpRequest request;
  if (!parse_request_line(line, request)) {
    throw std::invalid_argument("HTTP: malformed request line");
  }
  request.headers = parse_header_block(*block, /*skip_lines=*/1);
  request.body = read_exact(content_length_of(request.headers), nullptr);
  return request;
}

void HttpConnection::write_response(const HttpResponse& response) {
  stream().write_all(serialize_response_head(response.status, response.reason,
                                             response.headers,
                                             response.body.size()));
  stream().write_all(response.body);
}

void HttpConnection::write_request(const HttpRequest& request,
                                   const std::string& host) {
  std::string out = request.method + " " + request.target + " HTTP/1.1\r\n";
  out += "Host: " + host + "\r\n";
  for (const auto& [key, value] : request.headers.entries) {
    out += key + ": " + value + "\r\n";
  }
  if (!request.body.empty()) {
    out += "Content-Length: " + std::to_string(request.body.size()) + "\r\n";
  }
  out += "\r\n";
  stream().write_all(out);
  if (!request.body.empty()) stream().write_all(request.body);
}

HttpResponse HttpConnection::read_response(const ProgressCallback& progress) {
  const auto block = read_header_block();
  if (!block.has_value()) {
    throw std::invalid_argument("HTTP: connection closed before response");
  }
  HttpResponse response;
  if (!parse_status_line(first_line(*block), response)) {
    throw std::invalid_argument("HTTP: malformed status line");
  }
  response.headers = parse_header_block(*block, /*skip_lines=*/1);
  response.body = read_exact(content_length_of(response.headers), progress);
  return response;
}

HttpClient::HttpClient(std::string host, std::uint16_t port, int timeout_ms)
    : host_(std::move(host)), port_(port), timeout_ms_(timeout_ms) {}

void HttpClient::set_timeout_ms(int timeout_ms) {
  const util::MutexLock lock(mutex_);
  timeout_ms_ = timeout_ms;
  connection_.reset();
}

void HttpClient::ensure_connected_locked() {
  if (connection_.has_value()) return;
  TcpStream stream = TcpStream::connect(host_, port_);
  stream.set_no_delay(true);
  stream.set_timeout_ms(timeout_ms_);
  connection_.emplace(std::move(stream));
}

void HttpClient::abort() {
  const util::MutexLock lock(mutex_);
  if (connection_.has_value()) connection_->stream().shutdown_both();
}

HttpResponse HttpClient::request(const std::string& target,
                                 const ProgressCallback& progress) {
  return request(target, HttpHeaders{}, progress);
}

HttpResponse HttpClient::request(const std::string& target,
                                 const HttpHeaders& extra_headers,
                                 const ProgressCallback& progress) {
  HttpRequest http_request;
  http_request.method = "GET";
  http_request.target = target;
  http_request.headers = extra_headers;

  // The connection object is created/destroyed under the mutex but the I/O
  // itself runs unlocked, so abort() can shut the socket down (failing the
  // blocked read) without deadlocking on this request. Only the catch block
  // below destroys the object, so the pointer stays valid throughout.
  HttpConnection* connection = nullptr;
  {
    const util::MutexLock lock(mutex_);
    ensure_connected_locked();
    connection = &*connection_;
  }
  try {
    connection->write_request(http_request, host_);
    HttpResponse response = connection->read_response(progress);
    const std::string* connection_header = response.headers.find("Connection");
    if (connection_header != nullptr &&
        util::iequals(*connection_header, "close")) {
      const util::MutexLock reset_lock(mutex_);
      connection_.reset();
    }
    return response;
  } catch (...) {
    const util::MutexLock reset_lock(mutex_);
    connection_.reset();
    throw;
  }
}

HttpResponse HttpClient::get(const std::string& target,
                             const ProgressCallback& progress) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      HttpResponse response = request(target, progress);
      if (response.status < 200 || response.status >= 300) {
        throw std::runtime_error("HTTP GET " + target + " -> " +
                                 std::to_string(response.status));
      }
      return response;
    } catch (const std::invalid_argument&) {
      // Server closed the persistent connection under us; reconnect once.
      if (attempt == 1) throw;
    } catch (const std::system_error&) {
      if (attempt == 1) throw;
    }
  }
  throw std::runtime_error("HTTP GET: unreachable");
}

}  // namespace abr::net
