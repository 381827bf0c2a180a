#include "net/shaper.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "media/manifest.hpp"
#include "net/chunk_server.hpp"
#include "net/epoll_server.hpp"
#include "net/http.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"

namespace abr::net {
namespace {

/// Receives everything from a stream until EOF; returns byte count.
std::size_t drain(TcpStream& stream) {
  char buffer[65536];
  std::size_t total = 0;
  while (true) {
    const std::size_t n = stream.read(buffer, sizeof(buffer));
    if (n == 0) return total;
    total += n;
  }
}

double shaped_transfer_seconds(const trace::ThroughputTrace& trace,
                               double speedup, std::size_t bytes) {
  TcpListener listener = TcpListener::bind_loopback();
  std::size_t received = 0;
  std::thread receiver([&listener, &received] {
    TcpStream peer = listener.accept();
    received = drain(peer);
  });

  TcpStream sender = TcpStream::connect("127.0.0.1", listener.port());
  TraceShaper shaper(trace, speedup);
  const std::string payload(bytes, 'z');
  const auto start = std::chrono::steady_clock::now();
  shaper.send(sender, payload);
  sender.shutdown_write();
  receiver.join();
  const auto end = std::chrono::steady_clock::now();
  EXPECT_EQ(received, bytes);
  return std::chrono::duration<double>(end - start).count();
}

TEST(TraceShaper, ConstantRateTransferTakesExpectedTime) {
  // 500 kB at 2 Mbps = 2 s of trace time; at speedup 10 => ~0.2 s wall.
  const auto trace = trace::ThroughputTrace::constant(2000.0, 1000.0);
  const double wall = shaped_transfer_seconds(trace, 10.0, 500 * 1000);
  EXPECT_GT(wall, 0.12);
  EXPECT_LT(wall, 0.45);
}

TEST(TraceShaper, FasterTraceFinishesSooner) {
  const auto slow = trace::ThroughputTrace::constant(1000.0, 1000.0);
  const auto fast = trace::ThroughputTrace::constant(8000.0, 1000.0);
  const double slow_wall = shaped_transfer_seconds(slow, 20.0, 400 * 1000);
  const double fast_wall = shaped_transfer_seconds(fast, 20.0, 400 * 1000);
  EXPECT_LT(fast_wall, slow_wall);
  EXPECT_GT(slow_wall / fast_wall, 3.0);  // nominal ratio is 8x
}

TEST(TraceShaper, FollowsRateChanges) {
  // 1 Mbps for 2 s then 8 Mbps: 500 kB = 4000 kb needs
  // 2 s * 1000 + 0.25 s * 8000 => 2.25 s of trace time.
  const trace::ThroughputTrace trace({{2.0, 1000.0}, {10.0, 8000.0}});
  const double wall = shaped_transfer_seconds(trace, 10.0, 500 * 1000);
  EXPECT_GT(wall, 0.17);
  EXPECT_LT(wall, 0.40);
}

TEST(TraceShaper, SessionClockTracksSpeedup) {
  const auto trace = trace::ThroughputTrace::constant(1000.0, 1000.0);
  TraceShaper shaper(trace, 50.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // 0.1 s of wall time at speedup 50 ~= 5 s of session time.
  EXPECT_NEAR(shaper.session_now(), 5.0, 1.5);
  shaper.reset_epoch();
  EXPECT_LT(shaper.session_now(), 1.0);
}

// --- ShaperGate: the sharded engine's re-implementation of TraceShaper ------

using Clock = std::chrono::steady_clock;

/// Per-quantum reference: TraceShaper::send's release instants (session
/// seconds) for a body sent as consecutive pieces (split at stall points),
/// each cut into kQuantumBytes quanta with a shorter last one.
struct Quantum {
  std::size_t bytes = 0;
  double release_session_s = 0.0;
};

std::vector<Quantum> reference_schedule(
    const trace::ThroughputTrace& trace,
    const std::vector<std::size_t>& pieces) {
  std::vector<Quantum> schedule;
  double sent_kilobits = 0.0;
  for (const std::size_t piece : pieces) {
    for (std::size_t offset = 0; offset < piece;) {
      const std::size_t quantum =
          std::min(TraceShaper::kQuantumBytes, piece - offset);
      const double quantum_kilobits =
          static_cast<double>(quantum) * 8.0 / 1000.0;
      schedule.push_back(
          {quantum, trace.transfer_end_time(sent_kilobits + quantum_kilobits,
                                            0.0)});
      sent_kilobits += quantum_kilobits;
      offset += quantum;
    }
  }
  return schedule;
}

Clock::duration wall_offset(double session_s, double speedup) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(session_s / speedup));
}

/// Drives a fresh gate through `pieces` the way a shard does — claim, write
/// the burst, claim again; the next piece only once the last is done — at
/// every reference release instant, one tick before each, and at seeded
/// instants in between, and checks each claim against the reference: a
/// burst holds exactly the quanta released by `now`, and an empty claim
/// names the next quantum's release instant.
void expect_bursts_match_reference(const trace::ThroughputTrace& trace,
                                   double speedup,
                                   const std::vector<std::size_t>& pieces,
                                   std::uint64_t seed) {
  SCOPED_TRACE("speedup " + std::to_string(speedup) + ", seed " +
               std::to_string(seed));
  const std::vector<Quantum> reference = reference_schedule(trace, pieces);
  ShaperGate gate(trace, speedup);
  // Nothing is due at the clock's origin, so the first claim reveals the
  // epoch through the first release instant.
  const ShaperGate::Burst probe =
      gate.claim_burst(pieces[0], Clock::time_point{});
  ASSERT_EQ(probe.bytes, 0u);
  const Clock::time_point epoch =
      probe.next_release -
      wall_offset(reference[0].release_session_s, speedup);
  const auto release_of = [&](std::size_t k) {
    return epoch + wall_offset(reference[k].release_session_s, speedup);
  };

  std::vector<Clock::time_point> instants;
  util::Rng rng(seed);
  for (std::size_t k = 0; k < reference.size(); ++k) {
    instants.push_back(release_of(k) - Clock::duration(1));
    instants.push_back(release_of(k));
    const Clock::duration gap =
        (k + 1 < reference.size() ? release_of(k + 1) : release_of(k)) -
        release_of(k);
    instants.push_back(release_of(k) +
                       Clock::duration(static_cast<Clock::rep>(
                           rng.uniform() * static_cast<double>(gap.count()))));
  }
  std::sort(instants.begin(), instants.end());

  std::size_t piece = 0;
  std::size_t piece_left = pieces[0];
  std::size_t next = 0;  // first reference quantum not yet claimed
  for (const Clock::time_point now : instants) {
    while (piece < pieces.size()) {
      const ShaperGate::Burst burst = gate.claim_burst(piece_left, now);
      std::size_t expected = 0;
      std::size_t k = next;
      for (std::size_t left = piece_left;
           k < reference.size() && left > 0 && release_of(k) <= now; ++k) {
        expected += reference[k].bytes;
        left -= reference[k].bytes;
      }
      ASSERT_EQ(burst.bytes, expected) << "quantum " << next;
      if (burst.bytes == 0) {
        EXPECT_EQ(burst.next_release, release_of(next)) << "quantum " << next;
        break;
      }
      next = k;
      piece_left -= burst.bytes;
      if (piece_left == 0 && ++piece < pieces.size()) {
        piece_left = pieces[piece];
      }
    }
  }
  EXPECT_EQ(piece, pieces.size());
  EXPECT_EQ(next, reference.size());
}

TEST(ShaperGate, BurstsMatchThePerQuantumScheduleOnAConstantTrace) {
  const auto trace = trace::ThroughputTrace::constant(2000.0, 1000.0);
  for (const double speedup : {1.0, 10.0, 37.5}) {
    expect_bursts_match_reference(trace, speedup, {500 * 1000}, 1);
    expect_bursts_match_reference(trace, speedup, {123457, 200000 - 123457},
                                  2);
  }
}

TEST(ShaperGate, BurstsMatchThePerQuantumScheduleOnAPiecewiseTrace) {
  const trace::ThroughputTrace trace({{2.0, 1000.0}, {10.0, 8000.0}});
  for (const double speedup : {1.0, 10.0, 20.0}) {
    expect_bursts_match_reference(trace, speedup, {500 * 1000}, 3);
    // A body that outlasts one trace period wraps around it.
    expect_bursts_match_reference(trace, speedup, {40000, 11000000}, 4);
  }
}

TEST(ShaperGate, BurstsMatchThePerQuantumScheduleOnAnHsdpaLikeTrace) {
  const auto traces =
      trace::make_dataset(trace::DatasetKind::kHsdpa, 2, 300.0, 2015);
  for (const auto& trace : traces) {
    for (const double speedup : {1.0, 20.0}) {
      expect_bursts_match_reference(trace, speedup, {1500000}, 5);
      expect_bursts_match_reference(trace, speedup, {16384, 1, 700000}, 6);
    }
  }
}

TEST(ShaperGate, BurstsStopAtTheStallPointAndTheBodyEnd) {
  const auto trace = trace::ThroughputTrace::constant(1000.0, 100.0);
  ShaperGate gate(trace, 1.0);
  const Clock::time_point probe_at{};
  const Clock::time_point epoch =
      gate.claim_burst(TraceShaper::kQuantumBytes, probe_at).next_release -
      wall_offset(trace.transfer_end_time(
                      TraceShaper::kQuantumBytes * 8.0 / 1000.0, 0.0),
                  1.0);
  // An hour of a 1 Mbps link has released far more than either piece.
  const Clock::time_point late = epoch + std::chrono::hours(1);
  EXPECT_EQ(gate.claim_burst(20000, late).bytes, 20000u);  // the stall point
  EXPECT_EQ(gate.claim_burst(30000, late).bytes, 30000u);  // the body end

  // Both pieces were charged in TraceShaper quanta cut at the stall point:
  // 16384 + 3616, then 16384 + 13616. The next quantum's release instant
  // shows the exact allowance they used.
  const std::vector<Quantum> reference = reference_schedule(
      trace, {20000, 30000, TraceShaper::kQuantumBytes});
  const ShaperGate::Burst none =
      gate.claim_burst(TraceShaper::kQuantumBytes, probe_at);
  EXPECT_EQ(none.bytes, 0u);
  EXPECT_EQ(none.next_release,
            epoch + wall_offset(reference.back().release_session_s, 1.0));
}

TEST(ShaperGate, FifoHandsTheLinkOverOnReleaseAndCancel) {
  const auto trace = trace::ThroughputTrace::constant(1000.0, 100.0);
  ShaperGate gate(trace, 1.0);
  EXPECT_TRUE(gate.acquire(1));
  EXPECT_TRUE(gate.acquire(1));  // the holder keeps the link
  EXPECT_FALSE(gate.acquire(2));
  EXPECT_FALSE(gate.acquire(3));
  EXPECT_FALSE(gate.acquire(4));

  EXPECT_EQ(gate.release(), 2u);  // first come, first served
  EXPECT_EQ(gate.cancel(3), 0u);  // a waiter leaving hands nothing over
  EXPECT_EQ(gate.cancel(2), 4u);  // the holder leaving hands it on, past 3
  EXPECT_FALSE(gate.acquire(5));
  EXPECT_EQ(gate.release(), 5u);
  EXPECT_EQ(gate.cancel(99), 0u);  // unknown tickets change nothing
  EXPECT_EQ(gate.release(), 0u);   // nobody waiting: the link is free
  EXPECT_TRUE(gate.acquire(6));
  EXPECT_EQ(gate.cancel(6), 0u);
  EXPECT_TRUE(gate.acquire(7));
}

/// Wall seconds to GET one `bytes`-sized segment from a sharded ChunkServer
/// whose ShaperGate paces bodies by `trace` (the TraceShaper cases above,
/// through the reactor).
double sharded_transfer_seconds(const trace::ThroughputTrace& trace,
                                double speedup, std::size_t bytes) {
  const double kbps = static_cast<double>(bytes) * 8.0 / 1000.0 / 4.0;
  const auto manifest = media::VideoManifest::cbr(1, 4.0, {kbps}, "timing");
  ChunkServerOptions options;
  options.engine = ServerEngine::kSharded;
  ChunkServer server(manifest, trace, speedup, options);
  server.start();
  HttpClient client("127.0.0.1", server.port(), 10000);
  EXPECT_EQ(client.request("/healthz").status, 200);  // connect first
  server.reset_trace_clock();
  const auto start = std::chrono::steady_clock::now();
  const HttpResponse response = client.request("/video/0/seg-0.m4s");
  const auto end = std::chrono::steady_clock::now();
  server.stop();
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body.size(), bytes);
  return std::chrono::duration<double>(end - start).count();
}

TEST(ShaperGate, ConstantRateTransferTakesExpectedTime) {
  // 500 kB at 2 Mbps = 2 s of trace time; at speedup 10 => ~0.2 s wall.
  const auto trace = trace::ThroughputTrace::constant(2000.0, 1000.0);
  const double wall = sharded_transfer_seconds(trace, 10.0, 500 * 1000);
  EXPECT_GT(wall, 0.12);
  EXPECT_LT(wall, 0.45);
}

TEST(ShaperGate, FasterTraceFinishesSooner) {
  const auto slow = trace::ThroughputTrace::constant(1000.0, 1000.0);
  const auto fast = trace::ThroughputTrace::constant(8000.0, 1000.0);
  const double slow_wall = sharded_transfer_seconds(slow, 20.0, 400 * 1000);
  const double fast_wall = sharded_transfer_seconds(fast, 20.0, 400 * 1000);
  EXPECT_LT(fast_wall, slow_wall);
  EXPECT_GT(slow_wall / fast_wall, 3.0);  // nominal ratio is 8x
}

TEST(ShaperGate, FollowsRateChanges) {
  // 1 Mbps for 2 s then 8 Mbps: 500 kB = 4000 kb needs
  // 2 s * 1000 + 0.25 s * 8000 => 2.25 s of trace time.
  const trace::ThroughputTrace trace({{2.0, 1000.0}, {10.0, 8000.0}});
  const double wall = sharded_transfer_seconds(trace, 10.0, 500 * 1000);
  EXPECT_GT(wall, 0.17);
  EXPECT_LT(wall, 0.40);
}

}  // namespace
}  // namespace abr::net
