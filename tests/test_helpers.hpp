#pragma once

#include <chrono>
#include <string>
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
      const std::size_t n = stream.read(buffer, sizeof(buffer));
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
