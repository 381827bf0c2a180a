// Sub-chunk delivery control: HTTP Range parsing and serving (206/416),
// range-resume and truncation semantics of fetch_controlled, the mid-chunk
// abort monitor, partial-body resume credit under fault injection, and the
// player's abort-then-resume loop with its two-run journal byte-identity
// contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "media/manifest.hpp"
#include "net/chunk_server.hpp"
#include "net/faults.hpp"
#include "net/http.hpp"
#include "net/streaming_client.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "sim/chunk_source.hpp"
#include "sim/player.hpp"
#include "test_helpers.hpp"
#include "testing/fault_plan.hpp"
#include "testing/faulty_source.hpp"
#include "trace/throughput_trace.hpp"
#include "util/rng.hpp"

namespace abr::net {
namespace {

TEST(RangeHeader, ResolvesClosedOpenAndSuffixForms) {
  ByteRange range;
  EXPECT_EQ(parse_range_header("bytes=0-0", 100, range), RangeParse::kValid);
  EXPECT_EQ(range.first, 0u);
  EXPECT_EQ(range.last, 0u);

  EXPECT_EQ(parse_range_header("bytes=10-19", 100, range), RangeParse::kValid);
  EXPECT_EQ(range.first, 10u);
  EXPECT_EQ(range.last, 19u);

  // Open form "bytes=N-" is the resume shape: everything from N.
  EXPECT_EQ(parse_range_header("bytes=5-", 100, range), RangeParse::kValid);
  EXPECT_EQ(range.first, 5u);
  EXPECT_EQ(range.last, 99u);

  // Suffix form "bytes=-K": the final K bytes.
  EXPECT_EQ(parse_range_header("bytes=-4", 100, range), RangeParse::kValid);
  EXPECT_EQ(range.first, 96u);
  EXPECT_EQ(range.last, 99u);
  // A suffix longer than the body is the whole body, per RFC 7233.
  EXPECT_EQ(parse_range_header("bytes=-500", 100, range), RangeParse::kValid);
  EXPECT_EQ(range.first, 0u);
  EXPECT_EQ(range.last, 99u);

  // last-byte-pos past the end clamps to the final byte.
  EXPECT_EQ(parse_range_header("bytes=50-1000", 100, range),
            RangeParse::kValid);
  EXPECT_EQ(range.first, 50u);
  EXPECT_EQ(range.last, 99u);

  // Whitespace inside the spec is tolerated.
  EXPECT_EQ(parse_range_header("  bytes= 10 - 19 ", 100, range),
            RangeParse::kValid);
  EXPECT_EQ(range.first, 10u);
  EXPECT_EQ(range.last, 19u);
}

TEST(RangeHeader, MalformedSpecsAreIgnoredAndServedAsFullBodies) {
  ByteRange range;
  // kNone means "ignore the header, serve 200" per RFC 7233.
  EXPECT_EQ(parse_range_header("", 100, range), RangeParse::kNone);
  EXPECT_EQ(parse_range_header("items=0-5", 100, range), RangeParse::kNone);
  EXPECT_EQ(parse_range_header("bytes=5", 100, range), RangeParse::kNone);
  EXPECT_EQ(parse_range_header("bytes=abc-5", 100, range), RangeParse::kNone);
  EXPECT_EQ(parse_range_header("bytes=5-abc", 100, range), RangeParse::kNone);
  EXPECT_EQ(parse_range_header("bytes=-", 100, range), RangeParse::kNone);
  EXPECT_EQ(parse_range_header("bytes=9-3", 100, range), RangeParse::kNone);
}

TEST(RangeHeader, UnsatisfiableFormsEarnA416) {
  ByteRange range;
  // Multi-range requests are deliberately refused (no multipart bodies).
  EXPECT_EQ(parse_range_header("bytes=0-0,5-9", 100, range),
            RangeParse::kUnsatisfiable);
  // A resume offset equal to the body length: the client already holds the
  // whole chunk, and the 416 tells it so.
  EXPECT_EQ(parse_range_header("bytes=100-", 100, range),
            RangeParse::kUnsatisfiable);
  EXPECT_EQ(parse_range_header("bytes=150-200", 100, range),
            RangeParse::kUnsatisfiable);
  // A zero-length suffix and any range against an empty body.
  EXPECT_EQ(parse_range_header("bytes=-0", 100, range),
            RangeParse::kUnsatisfiable);
  EXPECT_EQ(parse_range_header("bytes=-5", 0, range),
            RangeParse::kUnsatisfiable);
}

TEST(RangeHeader, Uint64AdjacentOffsetsAreOverflowSafe) {
  ByteRange range;
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();

  // Offsets right at the top of the size_t range resolve exactly.
  EXPECT_EQ(parse_range_header("bytes=18446744073709551614-", kMax, range),
            RangeParse::kValid);
  EXPECT_EQ(range.first, kMax - 1);
  EXPECT_EQ(range.last, kMax - 1);

  // first == size: the "already complete" 416, even at UINT64_MAX.
  EXPECT_EQ(parse_range_header("bytes=18446744073709551615-", kMax, range),
            RangeParse::kUnsatisfiable);

  // One past UINT64_MAX must not wrap to 0 (stoull's failure mode); the
  // checked parse fails and RFC semantics say ignore the header.
  EXPECT_EQ(parse_range_header("bytes=18446744073709551616-", 100, range),
            RangeParse::kNone);
  EXPECT_EQ(
      parse_range_header("bytes=0-99999999999999999999", 100, range),
      RangeParse::kNone);

  // A UINT64_MAX suffix against a small body is simply the whole body.
  EXPECT_EQ(parse_range_header("bytes=-18446744073709551615", 100, range),
            RangeParse::kValid);
  EXPECT_EQ(range.first, 0u);
  EXPECT_EQ(range.last, 99u);

  // A last-byte-pos of UINT64_MAX clamps without overflowing.
  EXPECT_EQ(parse_range_header("bytes=10-18446744073709551615", 100, range),
            RangeParse::kValid);
  EXPECT_EQ(range.first, 10u);
  EXPECT_EQ(range.last, 99u);
}

/// A live origin plus a raw HTTP client for header-level assertions.
struct RangeServerFixture {
  media::VideoManifest manifest = testing::small_manifest();
  trace::ThroughputTrace trace =
      trace::ThroughputTrace::constant(50000.0, 1000.0);
  ChunkServer server{manifest, trace, /*speedup=*/100.0};

  RangeServerFixture() { server.start(); }
  ~RangeServerFixture() { server.stop(); }

  HttpResponse request_with_range(const std::string& range_value) {
    HttpClient client("127.0.0.1", server.port());
    HttpHeaders headers;
    headers.set("Range", range_value);
    return client.request("/video/0/seg-0.m4s", headers);
  }

  std::size_t segment_bytes() const {
    return static_cast<std::size_t>(manifest.chunk_kilobits(0, 0) * 125.0);
  }
};

TEST(ChunkServerRange, Serves206WithContentRangeAndTheSlicedBody) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.set_enabled(true);
  RangeServerFixture fx;
  const double ranges_before =
      registry.counter(obs::kHttpRangeRequestsTotal).value();

  const HttpResponse closed = fx.request_with_range("bytes=0-99");
  EXPECT_EQ(closed.status, 206);
  EXPECT_EQ(closed.body.size(), 100u);
  const std::string* content_range = closed.headers.find("Content-Range");
  ASSERT_NE(content_range, nullptr);
  EXPECT_EQ(*content_range,
            "bytes 0-99/" + std::to_string(fx.segment_bytes()));

  // The resume shape: everything from a mid-body offset.
  const std::size_t offset = fx.segment_bytes() / 2;
  const HttpResponse resume =
      fx.request_with_range("bytes=" + std::to_string(offset) + "-");
  EXPECT_EQ(resume.status, 206);
  EXPECT_EQ(resume.body.size(), fx.segment_bytes() - offset);

  EXPECT_GE(registry.counter(obs::kHttpRangeRequestsTotal).value(),
            ranges_before + 2.0);
  registry.set_enabled(false);
}

TEST(ChunkServerRange, FullBodyResponsesAdvertiseAcceptRanges) {
  RangeServerFixture fx;
  HttpClient client("127.0.0.1", fx.server.port());
  const HttpResponse response = client.request("/video/0/seg-0.m4s");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body.size(), fx.segment_bytes());
  const std::string* accept = response.headers.find("Accept-Ranges");
  ASSERT_NE(accept, nullptr);
  EXPECT_EQ(*accept, "bytes");
}

TEST(ChunkServerRange, Unsatisfiable416CarriesStarContentRange) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.set_enabled(true);
  RangeServerFixture fx;
  const double bad_before =
      registry
          .counter(obs::kHttpBadRequestsTotal, obs::bad_request_label("range"))
          .value();

  // Resume offset == body length: the client already holds the whole chunk.
  const std::string star = "bytes */" + std::to_string(fx.segment_bytes());
  const HttpResponse done =
      fx.request_with_range("bytes=" + std::to_string(fx.segment_bytes()) +
                            "-");
  EXPECT_EQ(done.status, 416);
  const std::string* content_range = done.headers.find("Content-Range");
  ASSERT_NE(content_range, nullptr);
  EXPECT_EQ(*content_range, star);

  // Multi-range requests are refused the same way.
  const HttpResponse multi = fx.request_with_range("bytes=0-0,5-9");
  EXPECT_EQ(multi.status, 416);

  EXPECT_GE(registry
                .counter(obs::kHttpBadRequestsTotal,
                         obs::bad_request_label("range"))
                .value(),
            bad_before + 2.0);
  registry.set_enabled(false);
}

TEST(ChunkServerRange, MalformedRangeFallsBackToTheFullBody) {
  RangeServerFixture fx;
  const HttpResponse response = fx.request_with_range("bytes=9-3");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body.size(), fx.segment_bytes());
}

TEST(HttpRangeResume, ChunkSourceResumesFromTheDeliveredOffset) {
  RangeServerFixture fx;
  sim::RetryPolicy retry;
  retry.initial_backoff_s = 0.05;
  retry.request_timeout_ms = 5000;
  HttpChunkSource source("127.0.0.1", fx.server.port(), fx.manifest,
                         /*speedup=*/100.0, retry);
  ASSERT_TRUE(source.supports_range());

  const double total_kb = fx.manifest.chunk_kilobits(0, 0);
  sim::FetchControl control;
  control.resume_from_kilobits = total_kb / 2.0;
  const sim::FetchOutcome outcome = source.fetch_controlled(0, 0, control);
  EXPECT_FALSE(outcome.failed);
  EXPECT_EQ(outcome.resumes, 1u);
  // Only the missing suffix crossed the wire; the credit completes the chunk.
  EXPECT_NEAR(outcome.kilobits, total_kb / 2.0, 1.0);
  EXPECT_NEAR(outcome.delivered_kilobits, total_kb, 1.0);
}

TEST(HttpRangeResume, TruncatedBodyCreditsExactlyTheLandedPrefix) {
  const auto manifest = media::VideoManifest::cbr(1, 4.0, {3000.0}, "cut");
  const auto trace = trace::ThroughputTrace::constant(1e9, 3600.0);
  testing::FaultPlan plan;
  plan.seed = 11;
  plan.partial_rate = 1.0;
  plan.max_faulty_attempts = 1;
  FaultInjector injector(plan);
  ChunkServer server(manifest, trace);
  server.set_fault_injector(&injector);
  server.start();

  const auto total =
      static_cast<std::size_t>(manifest.chunk_kilobits(0, 0) * 125.0);
  const auto cut = static_cast<std::size_t>(
      static_cast<double>(total) * plan.decide(0, 0).body_fraction);
  ASSERT_GT(cut, 0u);
  ASSERT_LT(cut, total);

  // A one-attempt budget stops at the truncated body: what it credits is
  // exactly the bytes that landed before the origin cut the connection.
  sim::RetryPolicy retry;
  retry.max_attempts = 1;
  retry.request_timeout_ms = 5000;
  HttpChunkSource source("127.0.0.1", server.port(), manifest,
                         /*speedup=*/1.0, retry);
  const sim::FetchOutcome truncated = source.fetch_controlled(0, 0, {});
  EXPECT_TRUE(truncated.failed);
  const double cut_kilobits = static_cast<double>(cut) * 8.0 / 1000.0;
  EXPECT_EQ(truncated.delivered_kilobits, cut_kilobits);
  EXPECT_EQ(truncated.kilobits, cut_kilobits);

  // Resuming from that credit moves only the missing suffix (the credit
  // rounds down to whole bytes, so at most one byte more).
  sim::FetchControl control;
  control.resume_from_kilobits = cut_kilobits;
  const sim::FetchOutcome resumed = source.fetch_controlled(0, 0, control);
  server.stop();
  EXPECT_FALSE(resumed.failed);
  EXPECT_EQ(resumed.resumes, 1u);
  EXPECT_NEAR(resumed.kilobits, static_cast<double>(total - cut) * 8.0 / 1000.0,
              8.0 / 1000.0);
  EXPECT_NEAR(resumed.delivered_kilobits, manifest.chunk_kilobits(0, 0),
              1e-9);
}

TEST(HttpRangeResume, AbortMonitorClosesACollapsingTransferOnTheWire) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.set_enabled(true);
  // One 4 s chunk at 3000 kbps (12 000 kb). The link carries its first
  // quarter at 4000 kbps and then collapses to 10 kbps: the whole body
  // would need ~900 session seconds, 45 s of wall time at this speedup.
  const auto manifest = media::VideoManifest::cbr(1, 4.0, {3000.0}, "cliff");
  const trace::ThroughputTrace trace({{0.75, 4000.0}, {3600.0, 10.0}}, "cliff");
  const double speedup = 20.0;
  ChunkServer collapsing(manifest, trace, speedup);
  ChunkServer spare(manifest, trace, speedup);
  collapsing.start();
  spare.start();
  sim::RetryPolicy retry;
  retry.request_timeout_ms = 5000;
  HttpChunkSource source(
      {{"127.0.0.1", collapsing.port()}, {"127.0.0.1", spare.port()}},
      manifest, speedup, retry);
  collapsing.reset_trace_clock();
  const double failures_before =
      registry.counter(obs::kFetchAttemptFailuresTotal).value();

  // No cushion, 1 s warm-up, 1 s tolerated stall, 0.25 s checkpoints: the
  // first checkpoint past the warm-up projects ~3 s more and aborts.
  sim::FetchControl control;
  control.abort_enabled = true;
  const auto start = std::chrono::steady_clock::now();
  const sim::FetchOutcome outcome = source.fetch_controlled(0, 0, control);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double wall_s = std::chrono::duration<double>(elapsed).count();
  collapsing.stop();
  spare.stop();

  EXPECT_TRUE(outcome.aborted);
  EXPECT_FALSE(outcome.failed);
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_GT(outcome.delivered_kilobits, 0.0);
  EXPECT_LT(outcome.delivered_kilobits, manifest.chunk_kilobits(0, 0));
  // A self-inflicted abort is no attempt failure and opens no breaker.
  EXPECT_EQ(registry.counter(obs::kFetchAttemptFailuresTotal).value(),
            failures_before);
  EXPECT_EQ(source.pool().state(0), BreakerState::kClosed);
  EXPECT_EQ(source.pool().state(1), BreakerState::kClosed);
  EXPECT_LT(wall_s, 10.0);
  registry.set_enabled(false);
}

TEST(FetchControl, StallProjectionMatchesItsDefinition) {
  // DESIGN.md section 12.2, written out: past the warm-up, abort when the
  // delivered-so-far rate leaves the rest landing later than the cushion
  // left plus the tolerated stall (or nothing has landed at all).
  const auto reference = [](const sim::FetchControl& c, double elapsed,
                            double done, double goal) {
    if (elapsed < c.min_observation_s) return false;
    const double remaining = goal - done;
    const double rate = done / elapsed;
    const double cushion_s = std::max(0.0, c.buffer_s - elapsed);
    return rate <= 0.0 || remaining / rate > cushion_s + c.max_stall_s;
  };
  util::Rng rng(19);
  std::size_t stalls = 0;
  for (int i = 0; i < 20000; ++i) {
    sim::FetchControl control;
    control.buffer_s = rng.uniform(0.0, 8.0);
    control.max_stall_s = rng.uniform(0.0, 2.0);
    control.min_observation_s = rng.uniform(0.0, 1.5);
    const double goal = rng.uniform(1.0, 12000.0);
    const double done = rng.uniform() < 0.05 ? 0.0 : rng.uniform(0.0, goal);
    const double elapsed = rng.uniform(0.0, 6.0);
    const bool projected = control.stall_projected(elapsed, done, goal);
    EXPECT_EQ(projected, reference(control, elapsed, done, goal)) << i;
    stalls += projected ? 1 : 0;
  }
  EXPECT_GT(stalls, 1000u);
  EXPECT_LT(stalls, 19000u);
}

TEST(TraceControlled, ResumeCreditShortensTheTransfer) {
  const auto manifest = testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(1000.0, 1000.0);
  const double total_kb = manifest.chunk_kilobits(0, 2);

  sim::TraceChunkSource full_source(trace, manifest);
  const sim::FetchOutcome full = full_source.fetch_controlled(0, 2, {});
  EXPECT_DOUBLE_EQ(full.kilobits, total_kb);
  EXPECT_DOUBLE_EQ(full.delivered_kilobits, total_kb);
  EXPECT_EQ(full.resumes, 0u);

  sim::TraceChunkSource resumed_source(trace, manifest);
  sim::FetchControl control;
  control.resume_from_kilobits = total_kb / 2.0;
  const sim::FetchOutcome resumed =
      resumed_source.fetch_controlled(0, 2, control);
  EXPECT_EQ(resumed.resumes, 1u);
  EXPECT_DOUBLE_EQ(resumed.kilobits, total_kb / 2.0);
  EXPECT_DOUBLE_EQ(resumed.delivered_kilobits, total_kb);
  EXPECT_DOUBLE_EQ(resumed.duration_s, full.duration_s / 2.0);

  // Credit covering the whole chunk: nothing to transfer, no time passes.
  sim::TraceChunkSource covered_source(trace, manifest);
  control.resume_from_kilobits = total_kb;
  const sim::FetchOutcome covered =
      covered_source.fetch_controlled(0, 2, control);
  EXPECT_DOUBLE_EQ(covered.duration_s, 0.0);
  EXPECT_DOUBLE_EQ(covered.delivered_kilobits, total_kb);
}

TEST(TraceControlled, TruncationKeepsThePrefixWithoutFailing) {
  const auto manifest = testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(1000.0, 1000.0);
  const double total_kb = manifest.chunk_kilobits(0, 2);

  sim::TraceChunkSource source(trace, manifest);
  sim::FetchControl control;
  control.truncate_after_fraction = 0.25;
  const sim::FetchOutcome outcome = source.fetch_controlled(0, 2, control);
  EXPECT_FALSE(outcome.failed);
  EXPECT_FALSE(outcome.aborted);
  EXPECT_DOUBLE_EQ(outcome.kilobits, total_kb * 0.25);
  EXPECT_DOUBLE_EQ(outcome.delivered_kilobits, total_kb * 0.25);
}

TEST(TraceControlled, AbortMonitorFiresDeterministicallyOnACollapsingLink) {
  const auto manifest = testing::small_manifest();
  // The link collapses after one second: a top-rung chunk started in the
  // valley can never finish in time, so the monitor must cancel it.
  const trace::ThroughputTrace trace(
      {{1.0, 1000.0}, {200.0, 10.0}}, "collapse");

  auto run_once = [&] {
    sim::TraceChunkSource source(trace, manifest);
    sim::FetchControl control;
    control.abort_enabled = true;
    control.buffer_s = 0.0;
    return source.fetch_controlled(0, 2, control);
  };
  const sim::FetchOutcome first = run_once();
  EXPECT_TRUE(first.aborted);
  // The monitor waited out its warm-up, then cancelled at the checkpoint.
  EXPECT_DOUBLE_EQ(first.duration_s, 1.0);
  EXPECT_DOUBLE_EQ(first.kilobits, 1000.0);
  EXPECT_DOUBLE_EQ(first.delivered_kilobits, 1000.0);

  // Identical inputs, identical abort: the determinism the golden journals
  // rest on.
  const sim::FetchOutcome second = run_once();
  EXPECT_DOUBLE_EQ(second.duration_s, first.duration_s);
  EXPECT_DOUBLE_EQ(second.delivered_kilobits, first.delivered_kilobits);
  EXPECT_TRUE(second.aborted);

  // The same transfer without the monitor rides the valley to completion.
  sim::TraceChunkSource patient(trace, manifest);
  const sim::FetchOutcome completed = patient.fetch_controlled(0, 2, {});
  EXPECT_FALSE(completed.aborted);
  EXPECT_DOUBLE_EQ(completed.delivered_kilobits,
                   manifest.chunk_kilobits(0, 2));
}

TEST(FaultyControlled, PartialBodyKeepsItsPrefixAsResumeCredit) {
  const auto manifest = testing::small_manifest();
  const auto trace = trace::ThroughputTrace::constant(1000.0, 1000.0);
  testing::FaultPlan plan;
  plan.seed = 7;
  plan.partial_rate = 1.0;
  plan.max_faulty_attempts = 1;
  sim::RetryPolicy retry;
  retry.initial_backoff_s = 0.05;
  const double total_kb = manifest.chunk_kilobits(0, 1);

  // Controlled path: the truncated first attempt's prefix becomes resume
  // credit, so the retry transfers only the missing suffix.
  sim::TraceChunkSource inner_controlled(trace, manifest);
  testing::FaultySource controlled(inner_controlled, plan, retry);
  const sim::FetchOutcome resumed = controlled.fetch_controlled(0, 1, {});
  EXPECT_FALSE(resumed.failed);
  EXPECT_EQ(resumed.attempts, 2u);
  EXPECT_GE(resumed.resumes, 1u);
  EXPECT_NEAR(resumed.delivered_kilobits, total_kb, 1e-9);
  EXPECT_NEAR(resumed.kilobits, total_kb, 1e-9);

  // Legacy path: the same schedule discards the truncated body and refetches
  // from byte zero, so the chunk pays for its bytes twice.
  sim::TraceChunkSource inner_legacy(trace, manifest);
  testing::FaultySource legacy(inner_legacy, plan, retry);
  const sim::FetchOutcome refetched = legacy.fetch(0, 1);
  EXPECT_FALSE(refetched.failed);
  EXPECT_EQ(refetched.attempts, 2u);
  EXPECT_LT(resumed.duration_s, refetched.duration_s);
}

}  // namespace
}  // namespace abr::net

namespace abr::sim {
namespace {

/// One seeded fault-storm session on a collapsing link, journaled. The
/// FixedLevelController keeps asking for the top rung, so every post-collapse
/// chunk exercises the abort ladder: abort at rung 2, resume at rung 1,
/// abort again, finish at rung 0 (where the monitor is disabled).
SessionResult run_abort_session(bool abort_enabled, std::ostream* journal_out,
                                std::string* journal_text) {
  const auto manifest = testing::small_manifest();
  const auto qoe = testing::balanced_qoe();
  const trace::ThroughputTrace trace({{3.0, 8000.0}, {400.0, 30.0}},
                                     "collapse");
  testing::FaultPlan plan;
  plan.seed = 7;
  plan.partial_rate = 0.3;
  plan.reset_rate = 0.1;
  plan.reset_delay_s = 0.05;
  plan.max_faulty_attempts = 2;
  sim::RetryPolicy retry;
  retry.initial_backoff_s = 0.05;

  SessionConfig config;
  config.abort_policy.enabled = abort_enabled;
  std::ostringstream local;
  std::ostream& sink = journal_out != nullptr ? *journal_out : local;
  obs::Journal journal(sink);
  config.journal = &journal;

  TraceChunkSource inner(trace, manifest);
  testing::FaultySource source(inner, plan, retry);
  testing::FixedLevelController controller(manifest.level_count() - 1);
  testing::ConstantPredictor predictor(8000.0);
  PlayerSession session(manifest, qoe, config);
  const SessionResult result = session.run(source, controller, predictor);
  if (journal_text != nullptr && journal_out == nullptr) {
    *journal_text = local.str();
  }
  return result;
}

TEST(PlayerAbort, AbortsThenResumesAtAStrictlyLowerRung) {
  std::string journal_text;
  const SessionResult result =
      run_abort_session(/*abort_enabled=*/true, nullptr, &journal_text);
  ASSERT_EQ(result.chunks.size(), testing::small_manifest().chunk_count());
  EXPECT_EQ(result.skipped_chunks, 0u);
  // The collapse forces monitor aborts, range resumes, and honest waste.
  EXPECT_GT(result.aborted_chunks, 0u);
  EXPECT_GT(result.resume_count, 0u);
  EXPECT_GT(result.wasted_kilobits, 0.0);
  for (const ChunkRecord& record : result.chunks) {
    if (!record.aborted) continue;
    // An aborted chunk re-decided downward: it cannot have played at the
    // top rung it started from.
    EXPECT_LT(record.level, testing::small_manifest().level_count() - 1);
    EXPECT_GT(record.resumes, 0u);
  }
  // The journal carries the sub-chunk provenance for abrreport to aggregate.
  EXPECT_NE(journal_text.find("\"aborted\":true"), std::string::npos);
  EXPECT_NE(journal_text.find("\"wasted_kb\""), std::string::npos);
  EXPECT_NE(journal_text.find("\"resumed_from_byte\""), std::string::npos);
}

TEST(PlayerAbort, AbortPolicyReducesRebufferingOnTheCollapse) {
  const SessionResult with_abort =
      run_abort_session(/*abort_enabled=*/true, nullptr, nullptr);
  const SessionResult without_abort =
      run_abort_session(/*abort_enabled=*/false, nullptr, nullptr);
  EXPECT_EQ(without_abort.aborted_chunks, 0u);
  EXPECT_EQ(without_abort.resume_count, 0u);
  // Riding out top-rung transfers on a 30 kbps link stalls for minutes;
  // cutting over to the lowest rung mid-chunk must beat that decisively.
  EXPECT_LT(with_abort.total_rebuffer_s, without_abort.total_rebuffer_s);
}

TEST(PlayerAbort, TwoSeededRunsJournalByteIdentically) {
  std::ostringstream first_out;
  std::ostringstream second_out;
  const SessionResult first =
      run_abort_session(/*abort_enabled=*/true, &first_out, nullptr);
  const SessionResult second =
      run_abort_session(/*abort_enabled=*/true, &second_out, nullptr);
  EXPECT_GT(first.aborted_chunks, 0u);
  EXPECT_EQ(first.aborted_chunks, second.aborted_chunks);
  EXPECT_EQ(first.resume_count, second.resume_count);
  ASSERT_FALSE(first_out.str().empty());
  EXPECT_EQ(first_out.str(), second_out.str());
}

}  // namespace
}  // namespace abr::sim
