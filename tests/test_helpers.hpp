#pragma once

#include <sys/socket.h>
#include <sys/time.h>

#include <cerrno>
#include <chrono>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "media/manifest.hpp"
#include "net/socket.hpp"
#include "predict/predictor.hpp"
#include "qoe/qoe.hpp"
#include "sim/controller.hpp"

namespace abr::testing {

/// A controller that always picks one ladder index.
class FixedLevelController final : public sim::BitrateController {
 public:
  explicit FixedLevelController(std::size_t level) : level_(level) {}

  std::size_t decide(const sim::AbrState&,
                     const media::VideoManifest&) override {
    return level_;
  }
  std::string name() const override { return "fixed"; }

 private:
  std::size_t level_;
};

/// A controller that replays a fixed per-chunk level script.
class ScriptedController final : public sim::BitrateController {
 public:
  explicit ScriptedController(std::vector<std::size_t> levels)
      : levels_(std::move(levels)) {}

  std::size_t decide(const sim::AbrState& state,
                     const media::VideoManifest&) override {
    return levels_.at(state.chunk_index);
  }
  std::string name() const override { return "scripted"; }

 private:
  std::vector<std::size_t> levels_;
};

/// A predictor that always returns a constant forecast.
class ConstantPredictor final : public predict::ThroughputPredictor {
 public:
  explicit ConstantPredictor(double kbps) : kbps_(kbps) {}

  std::vector<double> predict(const predict::PredictionInput&,
                              std::size_t horizon) override {
    return std::vector<double>(horizon, kbps_);
  }
  std::string name() const override { return "constant"; }

 private:
  double kbps_;
};

inline qoe::QoeModel balanced_qoe() {
  return qoe::QoeModel(media::QualityFunction::identity(),
                       qoe::QoeWeights::balanced());
}

/// A small 3-level video for fast tests: 8 chunks of 4 s.
inline media::VideoManifest small_manifest() {
  return media::VideoManifest::cbr(8, 4.0, {300.0, 750.0, 1500.0}, "small");
}

/// Polls `predicate` every 2 ms for up to `deadline`; true when it held.
template <typename Predicate>
bool eventually(Predicate predicate, std::chrono::milliseconds deadline =
                                         std::chrono::milliseconds(2000)) {
  const auto give_up = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < give_up) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return predicate();
}

// Blocking I/O for raw test peers. The client reads on its poll loop and
// the origin on epoll, so only tests block on a TcpStream; these act on its
// descriptor and throw std::system_error on socket failure.

/// Reads up to `size` bytes; returns the count, 0 on orderly EOF.
inline std::size_t read_some(const net::TcpStream& stream, char* data,
                             std::size_t size) {
  while (true) {
    const ssize_t n = ::recv(stream.fd(), data, size, 0);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno != EINTR) {
      throw std::system_error(errno, std::generic_category(), "recv");
    }
  }
}

/// Writes all of `bytes`, looping over partial writes.
inline void write_all(const net::TcpStream& stream, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(stream.fd(), bytes.data() + sent,
                             bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw std::system_error(errno, std::generic_category(), "send");
  }
}

/// Sets SO_RCVTIMEO and SO_SNDTIMEO so a stuck server cannot hang a test.
inline void set_timeout_ms(const net::TcpStream& stream, int milliseconds) {
  timeval tv{};
  tv.tv_sec = milliseconds / 1000;
  tv.tv_usec = (milliseconds % 1000) * 1000;
  if (::setsockopt(stream.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) !=
          0 ||
      ::setsockopt(stream.fd(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) !=
          0) {
    throw std::system_error(errno, std::generic_category(), "setsockopt");
  }
}

/// Shuts down the write side: the peer reads EOF.
inline void shutdown_write(const net::TcpStream& stream) {
  ::shutdown(stream.fd(), SHUT_WR);
}

/// What a raw test peer read before the stream ended.
struct ReadToEof {
  std::string bytes;
  /// True when the server closed the stream; false when a read error (the
  /// socket timeout, a reset) ended it.
  bool eof = false;
};

/// Reads from `stream` until EOF or a read error.
inline ReadToEof read_to_eof(net::TcpStream& stream) {
  ReadToEof result;
  char buffer[4096];
  try {
    while (true) {
      const std::size_t n = read_some(stream, buffer, sizeof(buffer));
      if (n == 0) {
        result.eof = true;
        break;
      }
      result.bytes.append(buffer, n);
    }
  } catch (const std::system_error&) {
    // Timeout or reset: return what we have.
  }
  return result;
}

}  // namespace abr::testing
