#include "net/http.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <climits>
#include <stdexcept>
#include <system_error>
#include <utility>

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
    headers.entries.emplace_back(
        std::string(util::trim(line.substr(0, colon))),
        std::string(util::trim(line.substr(colon + 1))));
  }
  return headers;
}

std::string_view first_line_of(std::string_view block) {
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
  if (!util::parse_size(*value, length) || length > kMaxBodyBytes) {
    throw std::invalid_argument("HTTP: bad Content-Length");
  }
  return length;
}

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

std::size_t ResponseReader::feed(std::string_view bytes) {
  std::size_t taken = 0;
  if (!head_done_) {
    // Keep at most kMaxHeaderBytes + 4 bytes: a blank line that ends past
    // them starts past the cap, whatever the split. The line may straddle
    // two feeds, so the scan resumes three bytes back.
    const std::size_t had = head_.size();
    head_.append(bytes.substr(0, kMaxHeaderBytes + 4 - had));
    const std::size_t boundary = head_.find("\r\n\r\n", had < 3 ? 0 : had - 3);
    if (boundary == std::string::npos) {
      if (head_.size() == kMaxHeaderBytes + 4) {
        throw std::invalid_argument("HTTP: header block too large");
      }
      return bytes.size();
    }
    taken = boundary + 4 - had;
    head_.resize(boundary);
    if (!parse_status_line(first_line_of(head_), response_)) {
      throw std::invalid_argument("HTTP: malformed status line");
    }
    response_.headers = parse_header_block(head_, /*skip_lines=*/1);
    response_.body.assign(content_length_of(response_.headers), '\0');
    head_done_ = true;
    bytes.remove_prefix(taken);
  }
  const std::size_t n = bytes.copy(body_tail(), body_missing());
  landed(n);
  return taken + n;
}

HttpClient::HttpClient(std::string host, std::uint16_t port, int timeout_ms)
    : host_(std::move(host)),
      port_(port),
      timeout_(std::chrono::milliseconds(timeout_ms)) {}

void HttpClient::start(const std::string& target,
                       const HttpHeaders& extra_headers) {
  if (in_flight_) close();
  reader_ = ResponseReader{};
  if (!stream_.valid()) {
    stream_ = TcpStream::connect(host_, port_);
    stream_.set_no_delay(true);
  }
  unsent_ = "GET " + target + " HTTP/1.1\r\nHost: " + host_ + "\r\n";
  for (const auto& [key, value] : extra_headers.entries) {
    unsent_ += key + ": " + value + "\r\n";
  }
  unsent_ += "\r\n";
  in_flight_ = true;
  keep_alive_ = true;
  deadline_ = Clock::now() + timeout_;
  ready_ = POLLOUT;  // a fresh request goes out without a wait
  advance();
}

void HttpClient::send_some() {
  const ssize_t n = ::send(stream_.fd(), unsent_.data(), unsent_.size(),
                           MSG_NOSIGNAL | MSG_DONTWAIT);
  if (n > 0) {
    unsent_.erase(0, static_cast<std::size_t>(n));
    deadline_ = Clock::now() + timeout_;
  } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
             errno != EINTR) {
    throw std::system_error(errno, std::generic_category(), "send");
  }
}

bool HttpClient::receive(const ProgressCallback& progress) {
  const std::size_t before = reader_.body_bytes();
  ssize_t n = 0;
  if (reader_.head_done()) {
    // Body bytes land in place, never past the body's end.
    n = ::recv(stream_.fd(), reader_.body_tail(), reader_.body_missing(),
               MSG_DONTWAIT);
    if (n > 0) reader_.landed(static_cast<std::size_t>(n));
  } else {
    char chunk[8192];
    n = ::recv(stream_.fd(), chunk, sizeof(chunk), MSG_DONTWAIT);
    // Bytes past the response mean the peer is out of step with us: the
    // connection closes after this response.
    const auto got = static_cast<std::size_t>(std::max<ssize_t>(n, 0));
    if (reader_.feed({chunk, got}) < got) keep_alive_ = false;
  }
  if (n == 0) {
    throw std::invalid_argument(reader_.head_done()
                                    ? "HTTP: connection closed mid-body"
                                    : "HTTP: connection closed mid-headers");
  }
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return false;
    }
    throw std::system_error(errno, std::generic_category(), "recv");
  }
  deadline_ = Clock::now() + timeout_;
  if (progress && reader_.body_bytes() > before) {
    progress(reader_.body_bytes(), reader_.done());
  }
  return reader_.done();
}

std::optional<HttpResponse> HttpClient::advance(
    const ProgressCallback& progress) {
  if (!in_flight_) return std::nullopt;
  try {
    if (std::exchange(ready_, 0) != 0) {
      if (!unsent_.empty()) {
        send_some();
      } else if (receive(progress)) {
        in_flight_ = false;
        HttpResponse response = std::move(reader_.response());
        const std::string* connection = response.headers.find("Connection");
        if (!keep_alive_ ||
            (connection != nullptr && util::iequals(*connection, "close"))) {
          close();
        }
        return response;
      }
    }
    if (Clock::now() >= deadline_) {
      throw std::system_error(std::make_error_code(std::errc::timed_out),
                              "HTTP: no byte moved within the timeout");
    }
    return std::nullopt;
  } catch (...) {
    close();
    throw;
  }
}

void HttpClient::close() {
  stream_.close();
  in_flight_ = false;
}

void HttpClient::poll(std::initializer_list<HttpClient*> clients,
                      Clock::time_point until) {
  constexpr std::size_t kMaxClients = 4;
  assert(clients.size() <= kMaxClients);
  pollfd fds[kMaxClients];
  HttpClient* polled[kMaxClients];
  nfds_t count = 0;
  for (HttpClient* client : clients) {
    if (!client->in_flight_) continue;
    const short events = client->unsent_.empty() ? POLLIN : POLLOUT;
    fds[count] = {client->stream_.fd(), events, 0};
    polled[count++] = client;
    until = std::min(until, client->deadline_);
  }
  const auto wait =
      std::chrono::ceil<std::chrono::milliseconds>(until - Clock::now());
  const int timeout_ms = static_cast<int>(
      std::clamp<std::chrono::milliseconds::rep>(wait.count(), 0, INT_MAX));
  const int ready = ::poll(fds, count, timeout_ms);
  if (ready < 0 && errno != EINTR) {
    throw std::system_error(errno, std::generic_category(), "poll");
  }
  for (nfds_t i = 0; i < count; ++i) {
    polled[i]->ready_ = ready > 0 ? fds[i].revents : 0;
  }
}

HttpResponse HttpClient::request(const std::string& target,
                                 const ProgressCallback& progress) {
  return request(target, HttpHeaders{}, progress);
}

HttpResponse HttpClient::request(const std::string& target,
                                 const HttpHeaders& extra_headers,
                                 const ProgressCallback& progress) {
  start(target, extra_headers);
  while (true) {
    poll({this});
    if (std::optional<HttpResponse> response = advance(progress)) {
      return std::move(*response);
    }
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
