#include "net/streaming_client.hpp"

#include <cmath>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "media/mpd.hpp"
#include "net/chunk_server.hpp"
#include "net/faults.hpp"
#include "obs/names.hpp"
#include "obs/span.hpp"
#include "util/strings.hpp"

namespace abr::net {

namespace {

using Clock = HttpClient::Clock;

bool is_timeout(const std::system_error& error) {
  return error.code() == std::errc::timed_out;
}

/// Wall-clock length of `session_s` session seconds.
Clock::duration wall(double session_s, double speedup) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(session_s / speedup));
}

std::string segment_target(std::size_t chunk, std::size_t level) {
  return "/video/" + std::to_string(level) + "/seg-" + std::to_string(chunk) +
         ".m4s";
}

/// Extracts the first-byte position from "Content-Range: bytes F-L/N".
bool parse_content_range_start(const std::string& value, std::size_t& first) {
  std::string_view v = util::trim(value);
  if (!util::starts_with(v, "bytes ")) return false;
  v.remove_prefix(6);
  const std::size_t dash = v.find('-');
  if (dash == std::string_view::npos) return false;
  return util::parse_size(util::trim(v.substr(0, dash)), first);
}

/// One GET attempt on the client's poll loop. A transport or framing
/// failure or a passed per-read deadline ends it without a response (a
/// deadline also counts in abr_fetch_timeouts_total); the caller judges the
/// response it gets. A leg still running when it goes out of scope (a lost
/// race, or an exception out of the caller's loop) closes its connection.
class Leg {
 public:
  explicit Leg(HttpClient& client) : client_(&client) {}
  ~Leg() { cancel(); }
  Leg(const Leg&) = delete;
  Leg& operator=(const Leg&) = delete;

  /// Counts the request and begins the GET.
  void start(const std::string& target, const HttpHeaders& headers = {}) {
    started_ = true;
    registry_.counter(obs::kHttpRequestsTotal, "side=\"client\"").increment();
    guard([&] {
      client_->start(target, headers);
      running_ = true;
    });
  }

  bool started() const { return started_; }
  bool running() const { return running_; }
  HttpClient* client() const { return client_; }
  const std::optional<HttpResponse>& response() const { return response_; }

  /// Moves the GET after an HttpClient::poll() wait.
  void step() {
    guard([&] {
      response_ = client_->advance();
      running_ = !response_.has_value();
    });
  }

  /// Closes the connection of a GET that still runs (a lost race or a
  /// self-inflicted abort); a no-op once the GET has ended.
  void cancel() {
    if (running_) client_->close();
    running_ = false;
  }

 private:
  template <typename Body>
  void guard(const Body& body) {
    try {
      body();
    } catch (const std::system_error& error) {
      running_ = false;
      if (is_timeout(error)) {
        registry_.counter(obs::kFetchTimeoutsTotal).increment();
      }
    } catch (const std::invalid_argument&) {
      running_ = false;  // truncated, reset or malformed response
    }
  }

  HttpClient* client_;
  obs::MetricsRegistry& registry_ = obs::MetricsRegistry::global();
  bool started_ = false;
  bool running_ = false;
  std::optional<HttpResponse> response_;
};

/// Judges an ended plain GET: a 2xx delivers its body (in kilobits); a 5xx
/// or a failure is retryable (nullopt); a 3xx/4xx means client and origin
/// disagree about the video, a configuration bug rather than a transient
/// fault, and throws.
std::optional<double> delivered_kilobits(const std::string& target,
                                         const Leg& leg) {
  const std::optional<HttpResponse>& response = leg.response();
  if (!response.has_value() || response->status >= 500) return std::nullopt;
  if (response->status < 200 || response->status >= 300) {
    throw std::runtime_error("HTTP GET " + target + " -> " +
                             std::to_string(response->status));
  }
  return static_cast<double>(response->body.size()) * 8.0 / 1000.0;
}

/// One sub-chunk GET attempt under the abort monitor.
struct ControlledAttempt {
  AttemptEnd end = AttemptEnd::kFailed;
  std::size_t have_bytes = 0;      ///< valid prefix after this attempt
  std::size_t received_bytes = 0;  ///< bytes that landed during it
  bool resumed = false;            ///< a Range request was issued
};

/// GETs `target` with a range resume from `have_bytes`. The abort monitor
/// is a timer on the same poll loop: every check_interval_s of session time
/// (wall seconds * speedup) it asks the FetchControl stall projection, and
/// closes the connection itself when the projection says stall. The caller
/// must treat that outcome as self-inflicted (no breaker report, no failure
/// count).
ControlledAttempt controlled_attempt(HttpClient& client,
                                     const std::string& target,
                                     std::size_t have_bytes,
                                     std::size_t total_bytes,
                                     const sim::FetchControl& control,
                                     double speedup) {
  ControlledAttempt result;
  result.have_bytes = have_bytes;

  HttpHeaders headers;
  if (have_bytes > 0) {
    headers.set("Range", "bytes=" + std::to_string(have_bytes) + "-");
    result.resumed = true;
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    registry.counter(obs::kHttpRangeRequestsTotal, "side=\"client\"")
        .increment();
  }

  const bool monitored =
      control.abort_enabled && control.check_interval_s > 0.0;
  const Clock::time_point start = Clock::now();
  const Clock::duration interval = wall(control.check_interval_s, speedup);
  Clock::time_point check_at =
      monitored ? start + interval : Clock::time_point::max();
  const auto goal_bytes = static_cast<double>(total_bytes - have_bytes);
  Leg leg(client);
  leg.start(target, headers);
  while (leg.running()) {
    HttpClient::poll({&client}, check_at);
    leg.step();
    const Clock::time_point now = Clock::now();
    if (!leg.running() || now < check_at) continue;
    const double elapsed_s =
        std::chrono::duration<double>(now - start).count() * speedup;
    if (control.stall_projected(elapsed_s,
                                static_cast<double>(client.body_bytes()),
                                goal_bytes)) {
      leg.cancel();
      result.end = AttemptEnd::kAborted;
    }
    check_at = now + interval;
  }

  const std::optional<HttpResponse>& response = leg.response();
  if (!response.has_value()) {
    // Aborted, truncated, reset or timed out: the landed prefix stays valid
    // under range resume.
    result.received_bytes = client.body_bytes();
    result.have_bytes =
        std::min(have_bytes + result.received_bytes, total_bytes);
    return result;
  }
  if (response->status == 206) {
    std::size_t first = 0;
    const std::string* content_range = response->headers.find("Content-Range");
    if (content_range != nullptr &&
        parse_content_range_start(*content_range, first) &&
        first == have_bytes) {
      result.received_bytes = response->body.size();
      result.have_bytes =
          std::min(have_bytes + response->body.size(), total_bytes);
      if (result.have_bytes >= total_bytes) {
        result.end = AttemptEnd::kDelivered;
      }
    }
    // A 206 from the wrong offset is discarded: credit unchanged, the
    // attempt reads as failed and the retry loop reissues the range.
  } else if (response->status == 200) {
    // Origin ignored (or never saw) the range: the full body replaces
    // whatever prefix we held.
    result.received_bytes = response->body.size();
    result.have_bytes = std::min(response->body.size(), total_bytes);
    if (result.have_bytes >= total_bytes) {
      result.end = AttemptEnd::kDelivered;
    }
  } else if (response->status == 416 && have_bytes >= total_bytes) {
    // Resume offset == body length: the origin is telling us we already
    // hold the whole chunk.
    result.end = AttemptEnd::kDelivered;
  } else if (response->status >= 300 && response->status < 500) {
    throw std::runtime_error("HTTP GET " + target + " -> " +
                             std::to_string(response->status));
  }
  // Other statuses (5xx, unexpected 416): retryable failure.
  return result;
}

}  // namespace

HttpChunkSource::HttpChunkSource(std::string host, std::uint16_t port,
                                 const media::VideoManifest& manifest,
                                 double speedup, sim::RetryPolicy retry,
                                 std::uint64_t jitter_seed)
    : HttpChunkSource(
          std::vector<OriginEndpoint>{OriginEndpoint{std::move(host), port}},
          manifest, speedup, retry, jitter_seed) {}

HttpChunkSource::HttpChunkSource(std::vector<OriginEndpoint> origins,
                                 const media::VideoManifest& manifest,
                                 double speedup, sim::RetryPolicy retry,
                                 std::uint64_t jitter_seed,
                                 FailoverOptions failover)
    : origins_(std::move(origins)),
      manifest_(&manifest),
      speedup_(speedup),
      retry_(retry),
      failover_(failover),
      pool_(origins_.empty() ? 1 : origins_.size(), failover.breaker,
            failover.seed),
      jitter_rng_(jitter_seed),
      epoch_(std::chrono::steady_clock::now()) {
  if (origins_.empty()) {
    throw std::invalid_argument("HttpChunkSource: need at least one origin");
  }
  if (speedup <= 0.0) {
    throw std::invalid_argument("HttpChunkSource: non-positive speedup");
  }
  if (retry_.max_attempts == 0) {
    throw std::invalid_argument("HttpChunkSource: max_attempts must be >= 1");
  }
  clients_.reserve(origins_.size());
  for (const OriginEndpoint& origin : origins_) {
    clients_.push_back(std::make_unique<HttpClient>(
        origin.host, origin.port, retry_.request_timeout_ms));
  }
}

double HttpChunkSource::now() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return std::chrono::duration<double>(elapsed).count() * speedup_;
}

std::optional<double> HttpChunkSource::attempt(std::size_t origin,
                                               const std::string& target) {
  Leg leg(*clients_[origin]);
  leg.start(target);
  while (leg.running()) {
    HttpClient::poll({leg.client()});
    leg.step();
  }
  return delivered_kilobits(target, leg);
}

sim::FetchOutcome HttpChunkSource::fetch(std::size_t chunk,
                                         std::size_t level) {
  const std::string target = segment_target(chunk, level);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::LatencyTimer latency(&registry.histogram(obs::kHttpFetchLatencyUs));

  const double start_session_s = now();
  std::size_t burned = 0;
  if (failover_.hedge_startup && clients_.size() > 1 &&
      chunk < failover_.hedge_chunks) {
    std::optional<sim::FetchOutcome> hedged =
        try_hedged_fetch(target, start_session_s, burned);
    if (hedged.has_value()) {
      latency.stop();
      return *hedged;
    }
    // No eligible second origin, or both legs failed: the standard retry
    // loop finishes the job with whatever attempt budget remains.
  }
  sim::FetchOutcome outcome;
  outcome.attempts = burned;
  const AttemptEnd end =
      run_attempts(outcome.attempts, [&](std::size_t origin) {
        const std::optional<double> kilobits = attempt(origin, target);
        outcome.kilobits = kilobits.value_or(0.0);
        return kilobits.has_value() ? AttemptEnd::kDelivered
                                    : AttemptEnd::kFailed;
      });
  outcome.failed = end != AttemptEnd::kDelivered;
  outcome.origin = current_origin_;
  outcome.duration_s = std::max(now() - start_session_s, 1e-6);
  latency.stop();
  return outcome;
}

sim::FetchOutcome HttpChunkSource::fetch_controlled(
    std::size_t chunk, std::size_t level, const sim::FetchControl& control) {
  const std::string target = segment_target(chunk, level);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::LatencyTimer latency(&registry.histogram(obs::kHttpFetchLatencyUs));

  const double total_kb = manifest_->chunk_kilobits(chunk, level);
  const auto total_bytes = static_cast<std::size_t>(total_kb * 1000.0 / 8.0);
  // Resume credit in whole bytes, rounded down — never claim an undelivered
  // byte.
  std::size_t have_bytes = std::min(
      static_cast<std::size_t>(control.resume_from_kilobits * 125.0),
      total_bytes);
  std::size_t transferred_bytes = 0;

  const double start_session_s = now();
  sim::FetchOutcome outcome;
  outcome.attempts = 0;
  // Hedging is deliberately bypassed in controlled mode: the deadline
  // monitor already bounds tail latency. A resume credit that covers the
  // chunk needs no attempt at all.
  AttemptEnd end = AttemptEnd::kDelivered;
  if (have_bytes < total_bytes) {
    end = run_attempts(outcome.attempts, [&](std::size_t origin) {
      const ControlledAttempt result =
          controlled_attempt(*clients_[origin], target, have_bytes,
                             total_bytes, control, speedup_);
      have_bytes = result.have_bytes;
      transferred_bytes += result.received_bytes;
      if (result.resumed) ++outcome.resumes;
      return result.end;
    });
  }
  outcome.failed = end == AttemptEnd::kFailed && have_bytes < total_bytes;
  outcome.aborted = end == AttemptEnd::kAborted;
  outcome.kilobits = static_cast<double>(transferred_bytes) * 8.0 / 1000.0;
  outcome.delivered_kilobits = static_cast<double>(have_bytes) * 8.0 / 1000.0;
  outcome.duration_s = std::max(now() - start_session_s, 1e-6);
  outcome.origin = current_origin_;
  latency.stop();
  return outcome;
}

AttemptEnd HttpChunkSource::run_attempts(
    std::size_t& attempts,
    const std::function<AttemptEnd(std::size_t)>& attempt) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  // The RetryPolicy budget applies per origin; the breaker usually fails
  // over long before one origin's budget is exhausted.
  const std::size_t budget = retry_.max_attempts * clients_.size();
  std::size_t consecutive_failures = 0;
  while (attempts < budget) {
    ++attempts;
    // With every breaker open and no probe due the claim is denied; the
    // denied consults advanced each probe schedule, so a later cycle will
    // be let through, and the backoff below keeps this loop from spinning.
    const std::optional<std::size_t> origin = pool_.acquire(current_origin_);
    if (origin.has_value()) {
      if (*origin != current_origin_) {
        ++failovers_;
        registry.counter(obs::kOriginFailoversTotal).increment();
        current_origin_ = *origin;
      }
      const AttemptEnd end = attempt(*origin);
      if (end == AttemptEnd::kDelivered) pool_.report_success(*origin);
      // An abort is self-inflicted: no breaker report, no failure count.
      if (end != AttemptEnd::kFailed) return end;
      pool_.report_failure(*origin);
    }
    registry.counter(obs::kFetchAttemptFailuresTotal).increment();
    ++consecutive_failures;
    if (attempts < budget) {
      registry.counter(obs::kFetchRetriesTotal).increment();
      const double backoff_s =
          retry_.backoff_s(consecutive_failures, jitter_rng_);
      std::this_thread::sleep_for(
          std::chrono::duration<double>(backoff_s / speedup_));
    }
  }
  return AttemptEnd::kFailed;
}

std::optional<sim::FetchOutcome> HttpChunkSource::try_hedged_fetch(
    const std::string& target, double start_session_s, std::size_t& burned) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const std::optional<std::size_t> primary = pool_.acquire(current_origin_);
  if (!primary.has_value()) return std::nullopt;
  if (*primary != current_origin_) {
    ++failovers_;
    registry.counter(obs::kOriginFailoversTotal).increment();
    current_origin_ = *primary;
  }

  const std::optional<std::size_t> secondary = pool_.hedge_target(*primary);
  if (!secondary.has_value()) {
    // Nobody healthy to race against; honour the claim we already made with
    // a single ordinary attempt, then let the retry loop take over.
    ++burned;
    const std::optional<double> kilobits = attempt(*primary, target);
    if (kilobits.has_value()) {
      pool_.report_success(*primary);
      sim::FetchOutcome outcome;
      outcome.attempts = burned;
      outcome.origin = *primary;
      outcome.kilobits = *kilobits;
      outcome.duration_s = std::max(now() - start_session_s, 1e-6);
      return outcome;
    }
    pool_.report_failure(*primary);
    registry.counter(obs::kFetchAttemptFailuresTotal).increment();
    return std::nullopt;
  }

  ++hedges_launched_;
  registry.counter(obs::kHedgedRequestsTotal).increment();

  // Both legs run on this thread's poll loop: the primary now, the hedge
  // once hedge_delay_s has passed without a primary win. The first 2xx wins
  // and the other leg's connection is closed here; a leg that fails drops
  // out and the other runs on.
  const std::size_t leg_origin[2] = {*primary, *secondary};
  Leg legs[2] = {Leg(*clients_[*primary]), Leg(*clients_[*secondary])};
  legs[0].start(target);
  const Clock::time_point hedge_at =
      Clock::now() + wall(failover_.hedge_delay_s, speedup_);
  int winner = -1;
  double won_kilobits = 0.0;
  while (winner < 0 &&
         (legs[0].running() || !legs[1].started() || legs[1].running())) {
    if (!legs[1].started() && Clock::now() >= hedge_at) legs[1].start(target);
    HttpClient::poll({legs[0].client(), legs[1].client()},
                     legs[1].started() ? Clock::time_point::max() : hedge_at);
    for (int i = 0; i < 2 && winner < 0; ++i) {
      if (!legs[i].running()) continue;
      legs[i].step();
      if (legs[i].running()) continue;
      const std::optional<double> kb = delivered_kilobits(target, legs[i]);
      if (!kb.has_value()) continue;
      winner = i;
      won_kilobits = *kb;
    }
  }
  const bool hedge_ran = legs[1].started();
  // The primary's failure is real unless the hedge won while it still ran;
  // the loser, closed when `legs` goes out of scope, is never reported, so
  // the breaker does not open on self-inflicted errors.
  const bool primary_failed = winner != 0 && !legs[0].running();

  if (winner == 0) {
    pool_.report_success(leg_origin[0]);
    sim::FetchOutcome outcome;
    outcome.attempts = burned + 1 + (hedge_ran ? 1 : 0);
    outcome.origin = leg_origin[0];
    outcome.kilobits = won_kilobits;
    outcome.duration_s = std::max(now() - start_session_s, 1e-6);
    burned = outcome.attempts;
    return outcome;
  }
  if (primary_failed) {
    pool_.report_failure(leg_origin[0]);
    registry.counter(obs::kFetchAttemptFailuresTotal).increment();
  }
  if (winner == 1) {
    pool_.report_success(leg_origin[1]);
    ++hedge_wins_;
    registry.counter(obs::kHedgeWinsTotal).increment();
    current_origin_ = leg_origin[1];
    sim::FetchOutcome outcome;
    outcome.attempts = burned + 2;
    outcome.origin = leg_origin[1];
    outcome.kilobits = won_kilobits;
    outcome.duration_s = std::max(now() - start_session_s, 1e-6);
    burned = outcome.attempts;
    return outcome;
  }

  // Both legs failed for real (the hedge always launches unless the
  // primary wins).
  pool_.report_failure(leg_origin[1]);
  registry.counter(obs::kFetchAttemptFailuresTotal).increment();
  burned += 2;
  return std::nullopt;
}

void HttpChunkSource::wait(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(
      std::chrono::duration<double>(seconds / speedup_));
}

media::VideoManifest HttpChunkSource::fetch_manifest() {
  const HttpResponse response = clients_[0]->get("/manifest.mpd");
  media::VideoManifest fetched = media::from_mpd(response.body);
  if (fetched.level_count() != manifest_->level_count() ||
      fetched.chunk_count() != manifest_->chunk_count()) {
    throw std::runtime_error("fetch_manifest: origin disagrees with local");
  }
  return fetched;
}

sim::SessionResult run_emulated_session(
    const trace::ThroughputTrace& trace, const media::VideoManifest& manifest,
    const qoe::QoeModel& qoe, const sim::SessionConfig& config,
    sim::BitrateController& controller,
    predict::ThroughputPredictor& predictor, double speedup,
    const EmulationFaults* faults) {
  ChunkServer server(manifest, trace, speedup);
  std::optional<FaultInjector> injector;
  sim::RetryPolicy retry;
  if (faults != nullptr) {
    injector.emplace(faults->plan);
    server.set_fault_injector(&*injector);
    retry = faults->retry;
  }
  server.start();

  HttpChunkSource source("127.0.0.1", server.port(), manifest, speedup, retry);
  server.reset_trace_clock();

  sim::PlayerSession session(manifest, qoe, config);
  sim::SessionResult result = session.run(source, controller, predictor);
  server.stop();
  return result;
}

}  // namespace abr::net
