#include "sim/multiplayer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "abrreport.hpp"
#include "core/algorithms.hpp"
#include "core/buffer_based.hpp"
#include "core/festive.hpp"
#include "core/rate_based.hpp"
#include "obs/journal.hpp"
#include "obs/trace_event.hpp"
#include "predict/predictor.hpp"
#include "test_helpers.hpp"
#include "testing/invariant_checker.hpp"
#include "testing/sharing_oracle.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"

namespace abr::sim {
namespace {

using ::abr::testing::ConstantPredictor;
using ::abr::testing::FixedLevelController;

/// Owns one controller and predictor per player and runs them through the
/// shared link.
struct Fleet {
  std::vector<std::unique_ptr<BitrateController>> controllers;
  std::vector<std::unique_ptr<predict::ThroughputPredictor>> predictors;

  MultiPlayerResult run(const trace::ThroughputTrace& link,
                        const media::VideoManifest& manifest,
                        const qoe::QoeModel& qoe,
                        const MultiPlayerConfig& config) const {
    std::vector<BitrateController*> cs;
    std::vector<predict::ThroughputPredictor*> ps;
    for (std::size_t i = 0; i < controllers.size(); ++i) {
      cs.push_back(controllers[i].get());
      ps.push_back(predictors[i].get());
    }
    return simulate_shared_link(link, manifest, qoe, config, cs, ps);
  }
};

/// RB, BB and FESTIVE on harmonic-mean forecasts.
Fleet heterogeneous_fleet() {
  Fleet fleet;
  fleet.controllers.push_back(std::make_unique<core::RateBasedController>());
  fleet.controllers.push_back(std::make_unique<core::BufferBasedController>());
  fleet.controllers.push_back(std::make_unique<core::FestiveController>());
  for (int i = 0; i < 3; ++i) {
    fleet.predictors.push_back(
        std::make_unique<predict::HarmonicMeanPredictor>(5));
  }
  return fleet;
}

/// A variable Markov link that exercises rate switches, rebuffers, and
/// buffer-full waits.
trace::ThroughputTrace markov_link() {
  util::Rng rng(3);
  return trace::MarkovConfig{}.generate(rng, 600.0).scaled(2.0);
}

/// 256 fixed-rung players on a link generous enough that they spend most of
/// their time buffer-full, joining 0.1 s apart.
Fleet fixed_rung_fleet(std::size_t n) {
  Fleet fleet;
  for (std::size_t i = 0; i < n; ++i) {
    fleet.controllers.push_back(std::make_unique<FixedLevelController>(i % 3));
    fleet.predictors.push_back(std::make_unique<ConstantPredictor>(400.0));
  }
  return fleet;
}

TEST(JainIndex, KnownValues) {
  const std::vector<double> equal = {5.0, 5.0, 5.0};
  EXPECT_NEAR(jain_index(equal), 1.0, 1e-12);
  const std::vector<double> skewed = {1.0, 0.0, 0.0};
  EXPECT_NEAR(jain_index(skewed), 1.0 / 3.0, 1e-12);
  const std::vector<double> pair = {1.0, 3.0};
  EXPECT_NEAR(jain_index(pair), 16.0 / 20.0, 1e-12);
  EXPECT_EQ(jain_index({}), 0.0);
}

TEST(SharedLink, ValidatesArguments) {
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  const auto link = trace::ThroughputTrace::constant(2000.0, 1000.0);
  FixedLevelController controller(0);
  ConstantPredictor predictor(1000.0);
  BitrateController* controllers[] = {&controller};
  predict::ThroughputPredictor* predictors[] = {&predictor, &predictor};
  MultiPlayerConfig config;
  EXPECT_THROW(simulate_shared_link(link, manifest, qoe, config,
                                    std::span<BitrateController* const>{},
                                    std::span(predictors, 0)),
               std::invalid_argument);
  EXPECT_THROW(simulate_shared_link(link, manifest, qoe, config,
                                    std::span(controllers, 1),
                                    std::span(predictors, 2)),
               std::invalid_argument);
  MultiPlayerConfig fixed;
  fixed.session.startup_policy = StartupPolicy::kFixedDelay;
  EXPECT_THROW(simulate_shared_link(link, manifest, qoe, fixed,
                                    std::span(controllers, 1),
                                    std::span(predictors, 1)),
               std::invalid_argument);
}

/// Every ChunkRecord field and every SessionResult total, compared with ==.
void expect_same_session(const SessionResult& got, const SessionResult& want) {
  ASSERT_EQ(got.chunks.size(), want.chunks.size());
  for (std::size_t k = 0; k < want.chunks.size(); ++k) {
    SCOPED_TRACE("chunk " + std::to_string(k));
    const ChunkRecord& a = got.chunks[k];
    const ChunkRecord& b = want.chunks[k];
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.level, b.level);
    EXPECT_EQ(a.bitrate_kbps, b.bitrate_kbps);
    EXPECT_EQ(a.size_kilobits, b.size_kilobits);
    EXPECT_EQ(a.start_s, b.start_s);
    EXPECT_EQ(a.download_s, b.download_s);
    EXPECT_EQ(a.throughput_kbps, b.throughput_kbps);
    EXPECT_EQ(a.predicted_kbps, b.predicted_kbps);
    EXPECT_EQ(a.buffer_before_s, b.buffer_before_s);
    EXPECT_EQ(a.buffer_after_s, b.buffer_after_s);
    EXPECT_EQ(a.rebuffer_s, b.rebuffer_s);
    EXPECT_EQ(a.wait_s, b.wait_s);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.origin, b.origin);
    EXPECT_EQ(a.faults, b.faults);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_EQ(a.skipped, b.skipped);
    EXPECT_EQ(a.aborted, b.aborted);
    EXPECT_EQ(a.partial, b.partial);
    EXPECT_EQ(a.wasted_kilobits, b.wasted_kilobits);
    EXPECT_EQ(a.resumes, b.resumes);
    EXPECT_EQ(a.resumed_from_byte, b.resumed_from_byte);
  }
  EXPECT_EQ(got.startup_delay_s, want.startup_delay_s);
  EXPECT_EQ(got.total_rebuffer_s, want.total_rebuffer_s);
  EXPECT_EQ(got.total_wait_s, want.total_wait_s);
  EXPECT_EQ(got.session_duration_s, want.session_duration_s);
  EXPECT_EQ(got.qoe, want.qoe);
  EXPECT_EQ(got.average_bitrate_kbps, want.average_bitrate_kbps);
  EXPECT_EQ(got.average_bitrate_change_kbps,
            want.average_bitrate_change_kbps);
  EXPECT_EQ(got.switch_count, want.switch_count);
  EXPECT_EQ(got.rebuffer_chunk_fraction, want.rebuffer_chunk_fraction);
  EXPECT_EQ(got.degraded_chunks, want.degraded_chunks);
  EXPECT_EQ(got.skipped_chunks, want.skipped_chunks);
  EXPECT_EQ(got.total_attempts, want.total_attempts);
  EXPECT_EQ(got.aborted_chunks, want.aborted_chunks);
  EXPECT_EQ(got.partial_chunks, want.partial_chunks);
  EXPECT_EQ(got.resume_count, want.resume_count);
  EXPECT_EQ(got.wasted_kilobits, want.wasted_kilobits);
}

TEST(SharedLink, SinglePlayerMatchesPlayerSession) {
  // One player has the link to itself, so the fleet must reproduce
  // PlayerSession bit for bit: same kernel, and every download starts at
  // service time 0 on an idle link. MPC-OPT is left out: its oracle
  // predictor reads the raw trace, which a shared link does not expose. The
  // 1 kbps link takes each chunk across many trace periods; the VBR video's
  // fractional chunk sizes would expose any rounding in the service clock.
  const auto qoe = testing::balanced_qoe();
  const auto envivio = media::VideoManifest::envivio_default();
  util::Rng rng(11);
  const std::vector<media::VideoManifest> manifests = {
      envivio, media::VideoManifest::vbr(envivio.chunk_count(),
                                         envivio.chunk_duration_s(),
                                         envivio.bitrates_kbps(), 0.3, rng,
                                         "envivio-vbr")};
  core::AlgorithmOptions options;
  options.fastmpc_table = core::default_fastmpc_table(envivio, qoe, 30.0);
  const std::vector<trace::ThroughputTrace> links = {
      trace::make_dataset(trace::DatasetKind::kHsdpa, 1, 320.0, 2024)[0],
      trace::make_dataset(trace::DatasetKind::kFcc, 1, 320.0, 7)[0],
      trace::ThroughputTrace::constant(1.0, 1000.0, "1kbps")};

  for (const core::Algorithm algorithm : core::registered_algorithms()) {
    if (algorithm == core::Algorithm::kMpcOpt) continue;
    for (const media::VideoManifest& manifest : manifests) {
      for (const trace::ThroughputTrace& link : links) {
        SCOPED_TRACE(std::string(core::algorithm_name(algorithm)) + " / " +
                     manifest.name() + " / " + link.name());
        auto single = core::make_algorithm(algorithm, manifest, qoe, options);
        const SessionResult want = simulate(
            link, manifest, qoe, {}, *single.controller, *single.predictor);
        auto shared = core::make_algorithm(algorithm, manifest, qoe, options);
        BitrateController* controllers[] = {shared.controller.get()};
        predict::ThroughputPredictor* predictors[] = {shared.predictor.get()};
        const MultiPlayerResult fleet = simulate_shared_link(
            link, manifest, qoe, {}, controllers, predictors);
        ASSERT_EQ(fleet.players.size(), 1u);
        expect_same_session(fleet.players[0], want);
        EXPECT_EQ(fleet.jain_fairness, 1.0);
      }
    }
  }
}

TEST(SharedLink, TwoIdenticalPlayersShareEqually) {
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  const auto link = trace::ThroughputTrace::constant(2400.0, 1000.0);

  FixedLevelController c0(1);
  FixedLevelController c1(1);
  ConstantPredictor p0(1200.0);
  ConstantPredictor p1(1200.0);
  BitrateController* controllers[] = {&c0, &c1};
  predict::ThroughputPredictor* predictors[] = {&p0, &p1};
  const MultiPlayerResult result = simulate_shared_link(
      link, manifest, qoe, {}, std::span(controllers, 2),
      std::span(predictors, 2));

  ASSERT_EQ(result.players.size(), 2u);
  EXPECT_NEAR(result.jain_fairness, 1.0, 1e-9);
  // Identical players remain in lockstep: same measured throughput.
  EXPECT_NEAR(result.players[0].chunks[3].throughput_kbps,
              result.players[1].chunks[3].throughput_kbps, 30.0);
  // Each sees roughly half the link while both are downloading.
  EXPECT_LT(result.players[0].chunks[0].throughput_kbps, 1400.0);
}

TEST(SharedLink, StaggeredJoinDelaysSecondPlayer) {
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  const auto link = trace::ThroughputTrace::constant(2000.0, 1000.0);

  FixedLevelController c0(0);
  FixedLevelController c1(0);
  ConstantPredictor p0(1000.0);
  ConstantPredictor p1(1000.0);
  BitrateController* controllers[] = {&c0, &c1};
  predict::ThroughputPredictor* predictors[] = {&p0, &p1};
  obs::TraceWriter timeline;
  MultiPlayerConfig config;
  config.startup_stagger_s = 10.0;
  config.session.trace_writer = &timeline;
  const MultiPlayerResult result = simulate_shared_link(
      link, manifest, qoe, config, std::span(controllers, 2),
      std::span(predictors, 2));

  // Records are on each player's own clock; the timeline is on the fleet's.
  EXPECT_EQ(result.players[1].chunks[0].start_s, 0.0);
  std::int64_t first_download_us = std::numeric_limits<std::int64_t>::max();
  for (const obs::TraceEvent& event : timeline.events()) {
    if (event.name == "download" && event.tid == 1) {
      first_download_us = std::min(first_download_us, event.ts_us);
    }
  }
  EXPECT_EQ(first_download_us, 10'000'000);
  // Player 0's first chunk had the link alone: full rate.
  EXPECT_GT(result.players[0].chunks[0].throughput_kbps, 1500.0);
}

/// Every session passes the checks a single session passes, with time
/// continuity on.
void expect_invariants(const MultiPlayerResult& result,
                       const qoe::QoeModel& qoe, double chunk_duration_s) {
  testing::InvariantOptions options;
  options.chunk_duration_s = chunk_duration_s;
  const testing::InvariantChecker checker(options);
  for (std::size_t i = 0; i < result.players.size(); ++i) {
    const testing::InvariantReport report =
        checker.check_all(result.players[i], qoe);
    EXPECT_TRUE(report.ok()) << "player " << i << ":\n" << report.to_string();
  }
}

TEST(SharedLink, InvariantsWithHeterogeneousControllers) {
  const auto manifest = media::VideoManifest::envivio_default();
  const auto qoe = testing::balanced_qoe();
  const MultiPlayerResult result =
      heterogeneous_fleet().run(markov_link(), manifest, qoe, {});

  ASSERT_EQ(result.players.size(), 3u);
  for (const SessionResult& player : result.players) {
    ASSERT_EQ(player.chunks.size(), manifest.chunk_count());
  }
  EXPECT_GT(result.jain_fairness, 1.0 / 3.0);
  EXPECT_LE(result.jain_fairness, 1.0 + 1e-12);
  EXPECT_GT(result.link_utilization, 0.1);
  EXPECT_LE(result.link_utilization, 1.0 + 1e-9);
  expect_invariants(result, qoe, manifest.chunk_duration_s());

  const auto small = testing::small_manifest();
  const std::size_t n = 256;
  MultiPlayerConfig staggered;
  staggered.startup_stagger_s = 0.1;
  const MultiPlayerResult crowd = fixed_rung_fleet(n).run(
      trace::ThroughputTrace::constant(400.0 * static_cast<double>(n), 1000.0),
      small, qoe, staggered);
  ASSERT_EQ(crowd.players.size(), n);
  expect_invariants(crowd, qoe, small.chunk_duration_s());
}

TEST(SharedLink, JournalDecomposesEachPlayersQoe) {
  const auto manifest = media::VideoManifest::envivio_default();
  const auto qoe = testing::balanced_qoe();
  const auto run_once = [&](MultiPlayerResult& result) {
    std::ostringstream out;
    obs::Journal journal(out);
    MultiPlayerConfig config;
    config.session.journal = &journal;
    result = heterogeneous_fleet().run(markov_link(), manifest, qoe, config);
    return out.str();
  };
  MultiPlayerResult result;
  const std::string text = run_once(result);
  MultiPlayerResult again;
  EXPECT_EQ(text, run_once(again)) << "two runs journal differently";

  const std::size_t n = result.players.size();
  std::vector<std::size_t> chunk_records(n, 0);
  std::vector<double> chunk_sum(n, 0.0);
  std::vector<double> session_qoe(n, std::nan(""));
  std::vector<double> startup_charge(n, 0.0);
  std::istringstream lines(text);
  std::string line;
  tools::JsonObject object;
  std::string error;
  while (std::getline(lines, line)) {
    ASSERT_TRUE(tools::parse_flat_json(line, object, error)) << error;
    const std::string session = object.at("session").text;
    ASSERT_EQ(session.front(), 'p') << session;
    const std::size_t i = std::stoul(session.substr(1));
    ASSERT_LT(i, n);
    if (object.at("type").text == "chunk") {
      EXPECT_EQ(object.at("chunk").number,
                static_cast<double>(chunk_records[i]));
      ++chunk_records[i];
      chunk_sum[i] += object.at("qoe_chunk").number;
    } else {
      ASSERT_EQ(object.at("type").text, "session");
      EXPECT_TRUE(std::isnan(session_qoe[i])) << "two records for " << session;
      session_qoe[i] = object.at("qoe").number;
      startup_charge[i] = object.at("qoe_startup_charge").number;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    SCOPED_TRACE("p" + std::to_string(i));
    EXPECT_EQ(chunk_records[i], manifest.chunk_count());
    EXPECT_EQ(session_qoe[i], result.players[i].qoe);
    EXPECT_NEAR(chunk_sum[i] - startup_charge[i], result.players[i].qoe,
                1e-6);
  }
}

TEST(SharedLink, CompletionsMatchNaiveProcessorSharing) {
  // Replays each fleet's own arrivals (join + start_s, size_kilobits)
  // through the naive O(active)-per-event simulation: every download must
  // finish when processor sharing says it does, and the link can carry no
  // more than it offered.
  const auto qoe = testing::balanced_qoe();
  const auto check = [&](const trace::ThroughputTrace& link,
                         const MultiPlayerConfig& config,
                         const MultiPlayerResult& result) {
    std::vector<testing::SharedFlow> flows;
    std::vector<double> finished_s;
    double delivered_kb = 0.0;
    for (std::size_t i = 0; i < result.players.size(); ++i) {
      const double join_s = static_cast<double>(i) * config.startup_stagger_s;
      for (const ChunkRecord& r : result.players[i].chunks) {
        flows.push_back({join_s + r.start_s, r.size_kilobits});
        finished_s.push_back(join_s + r.start_s + r.download_s);
        delivered_kb += r.size_kilobits;
      }
    }
    const std::vector<double> want =
        testing::processor_sharing_reference(link, flows);
    double worst = 0.0;
    for (std::size_t f = 0; f < flows.size(); ++f) {
      worst = std::max(worst,
                       std::abs(finished_s[f] - want[f]) / want[f]);
    }
    EXPECT_LE(worst, 1e-9) << flows.size() << " downloads";
    const double last_s =
        *std::max_element(finished_s.begin(), finished_s.end());
    EXPECT_LE(delivered_kb,
              link.kilobits_between(0.0, last_s) * (1.0 + 1e-12));
    EXPECT_GT(result.link_utilization, 0.0);
    EXPECT_LE(result.link_utilization, 1.0 + 1e-12);
  };

  const auto envivio = media::VideoManifest::envivio_default();
  MultiPlayerConfig three;
  three.startup_stagger_s = 1.5;
  const auto markov = markov_link();
  check(markov, three, heterogeneous_fleet().run(markov, envivio, qoe, three));

  const auto small = testing::small_manifest();
  const std::size_t n = 256;
  MultiPlayerConfig crowd;
  crowd.startup_stagger_s = 0.1;
  const auto generous =
      trace::ThroughputTrace::constant(400.0 * static_cast<double>(n), 1000.0);
  check(generous, crowd, fixed_rung_fleet(n).run(generous, small, qoe, crowd));
}

}  // namespace
}  // namespace abr::sim
