// origin: a loopback ChunkServer under closed-loop keep-alive HttpClients.

#include <algorithm>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/chunk_server.hpp"
#include "net/epoll_server.hpp"
#include "net/http.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 15;
/// Client threads plus reactor shards stay within a 4-core host.
constexpr std::size_t kClients = 2;
constexpr std::size_t kShards = 2;
/// Share of requests that are full segment GETs; the rest are small Range
/// reads. Sized so both kinds take a visible share of wall time.
constexpr double kFullGetShare = 0.08;
constexpr std::size_t kRangeMinBytes = 512;
constexpr std::size_t kRangeMaxBytes = 2048;
/// Requests planned per client; the plan repeats when a run outlasts it.
constexpr std::size_t kPlanLength = 8192;
/// A constant link far above loopback rate: the code, not the trace, sets
/// the pace, while every body still passes through the ShaperGate FIFO.
constexpr double kLinkKbps = 1e9;
constexpr double kLinkDurationS = 3600.0;
/// Bodies are checked at every this-many bytes plus the last byte.
constexpr std::size_t kFillCheckStride = 4096;
constexpr std::size_t kFoldEvery = 4096;
constexpr std::size_t kSpanDumpRows = 200000;

struct Planned {
  std::string target;
  abr::net::HttpHeaders headers;
  bool range = false;
  std::size_t size = 0;   ///< full segment size, bytes
  std::size_t first = 0;  ///< expected body range (inclusive)
  std::size_t last = 0;
  char fill = 'A';
};

/// Uniform index in [0, n), n >= 1.
std::size_t pick(abr::util::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

std::size_t segment_bytes(const abr::media::VideoManifest& manifest,
                          std::size_t number, std::size_t level) {
  return static_cast<std::size_t>(manifest.chunk_kilobits(number, level) *
                                  1000.0 / 8.0);
}

Planned plan_segment(const abr::media::VideoManifest& manifest,
                     std::size_t number, std::size_t level) {
  Planned p;
  p.target = "/video/" + std::to_string(level) + "/seg-" +
             std::to_string(number) + ".m4s";
  p.size = segment_bytes(manifest, number, level);
  p.last = p.size - 1;
  p.fill = static_cast<char>('A' + (number + level) % 26);
  return p;
}

/// A client's request plan. Exactly kFullGetShare of it are full GETs, with
/// the rungs in equal numbers; the seed sets the order, the segments and the
/// Range offsets, so every seed offers the same mix of work.
std::vector<Planned> make_plan(const abr::media::VideoManifest& manifest,
                               std::uint64_t seed, std::size_t client) {
  abr::util::Rng rng(seed * 131 + client);
  const auto full_gets = static_cast<std::size_t>(
      kFullGetShare * static_cast<double>(kPlanLength));
  std::vector<Planned> plan;
  plan.reserve(kPlanLength);
  for (std::size_t i = 0; i < kPlanLength; ++i) {
    const std::size_t level = i % manifest.level_count();
    const std::size_t number = pick(rng, manifest.chunk_count());
    Planned p = plan_segment(manifest, number, level);
    if (i >= full_gets) {
      const std::size_t length =
          kRangeMinBytes + pick(rng, kRangeMaxBytes - kRangeMinBytes + 1);
      p.range = true;
      p.first = pick(rng, p.size - length + 1);
      p.last = p.first + length - 1;
      p.headers.set("Range", "bytes=" + std::to_string(p.first) + "-" +
                                 std::to_string(p.last));
    }
    plan.push_back(std::move(p));
  }
  for (std::size_t i = plan.size() - 1; i > 0; --i) {  // Fisher-Yates
    std::swap(plan[i], plan[pick(rng, i + 1)]);
  }
  return plan;
}

/// Empty when the response matches the plan, else what differed.
std::string verify(const Planned& p, const abr::net::HttpResponse& response) {
  const int status = p.range ? 206 : 200;
  if (response.status != status) {
    return p.target + ": status " + std::to_string(response.status);
  }
  const std::size_t length = p.last - p.first + 1;
  if (response.body.size() != length) {
    return p.target + ": body " + std::to_string(response.body.size()) +
           " bytes, expected " + std::to_string(length);
  }
  for (std::size_t i = 0; i < length; i += kFillCheckStride) {
    if (response.body[i] != p.fill) return p.target + ": wrong fill byte";
  }
  if (response.body.back() != p.fill) return p.target + ": wrong fill byte";
  if (p.range) {
    const std::string expected = "bytes " + std::to_string(p.first) + "-" +
                                 std::to_string(p.last) + "/" +
                                 std::to_string(p.size);
    const std::string* got = response.headers.find("Content-Range");
    if (got == nullptr || *got != expected) {
      return p.target + ": Content-Range mismatch";
    }
  }
  return {};
}

/// One client's closed loop and what it saw.
struct ClientRun {
  std::vector<float> request_us;      ///< every request, for the windows
  std::vector<float> request_end_s;   ///< when each ended, phase-relative
  std::vector<double> segment_us;
  std::vector<double> range_us;
  std::vector<double> ttfb_us;
  std::vector<double> body_us;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t body_bytes = 0;
  std::vector<std::string> errors;
  SpanTotals spans;
  double busy_s = 0.0;
};

void client_loop(abr::net::HttpClient& client, const std::vector<Planned>& plan,
                 std::size_t& cursor, std::int64_t start_ns,
                 std::int64_t deadline_ns, bool traced,
                 std::size_t client_id, SpanDump* dump, ClientRun& run) {
  SpanLog log;
  std::int64_t first_byte_ns = 0;
  const abr::net::ProgressCallback on_progress = [&](std::size_t bytes, bool) {
    if (first_byte_ns == 0 && bytes > 0) first_byte_ns = now_ns();
  };
  while (now_ns() < deadline_ns) {
    const Planned& p = plan[cursor++ % plan.size()];
    const std::uint64_t id = (run.completed + run.failed) * kClients + client_id;
    first_byte_ns = 0;
    abr::net::HttpResponse response;
    std::string error;
    const std::int64_t start = now_ns();
    try {
      if (traced) {
        const ScopedSpan span(log, SpanKind::kRequest, id);
        response = client.request(p.target, p.headers, on_progress);
        if (first_byte_ns != 0) {
          log.add(SpanKind::kBody, id, first_byte_ns, now_ns());
        }
      } else {
        response = client.request(p.target, p.headers);
      }
    } catch (const std::exception& e) {
      error = p.target + ": " + e.what();
    }
    const std::int64_t end = now_ns();
    if (error.empty()) error = verify(p, response);
    if (!error.empty()) {
      ++run.failed;
      if (run.errors.size() < 5) run.errors.push_back(error);
      continue;
    }
    ++run.completed;
    run.body_bytes += response.body.size();
    const double us = static_cast<double>(end - start) * 1e-3;
    run.request_us.push_back(static_cast<float>(us));
    run.request_end_s.push_back(static_cast<float>((end - start_ns) * 1e-9));
    if (traced) {
      (p.range ? run.range_us : run.segment_us).push_back(us);
      if (first_byte_ns != 0) {
        run.ttfb_us.push_back(static_cast<double>(first_byte_ns - start) * 1e-3);
        // Range bodies land with their headers; body time is a full-GET cost.
        if (!p.range) {
          run.body_us.push_back(static_cast<double>(end - first_byte_ns) * 1e-3);
        }
      }
      if (log.spans().size() >= kFoldEvery * 2) {
        run.spans.add(log.spans());
        if (dump != nullptr) dump->write(log.spans());
        log.clear();
      }
    }
  }
  run.spans.add(log.spans());
  if (dump != nullptr) dump->write(log.spans());
  run.busy_s = run.spans.total(SpanKind::kRequest);
}

struct Origin {
  abr::media::VideoManifest manifest =
      abr::media::VideoManifest::envivio_default();
  abr::trace::ThroughputTrace link;
  std::unique_ptr<abr::net::ChunkServer> server;
  std::vector<std::unique_ptr<abr::net::HttpClient>> clients;
  std::vector<std::vector<Planned>> plans;
  std::vector<std::size_t> cursors;
  std::uint64_t warmup_requests = 0;
  double generate_s = 0.0;
};

/// Starts the origin, connects the clients, and warms the server's fill
/// buffers to their largest size (one segment per fill byte), so no lazy
/// buffer growth lands in the timed phase.
std::unique_ptr<Origin> start_origin(std::uint64_t seed, Result& result) {
  auto o = std::make_unique<Origin>();
  const std::int64_t start = now_ns();
  o->link = abr::trace::ThroughputTrace::constant(kLinkKbps, kLinkDurationS);
  for (std::size_t c = 0; c < kClients; ++c) {
    o->plans.push_back(make_plan(o->manifest, seed, c));
  }
  o->cursors.assign(kClients, 0);
  o->generate_s = seconds_since(start);

  abr::net::ChunkServerOptions options;
  options.shards = kShards;
  o->server = std::make_unique<abr::net::ChunkServer>(o->manifest, o->link,
                                                      1.0, options);
  o->server->start(0);
  o->server->reset_trace_clock();
  for (std::size_t c = 0; c < kClients; ++c) {
    o->clients.push_back(std::make_unique<abr::net::HttpClient>(
        "127.0.0.1", o->server->port(), 10000));
  }
  const std::size_t top = o->manifest.level_count() - 1;
  for (std::size_t fill = 0; fill < 26; ++fill) {
    const std::size_t number = (fill + 26 - top % 26) % 26;
    std::vector<Planned> warm = {plan_segment(o->manifest, number, top),
                                 o->plans[fill % kClients][fill]};
    for (const Planned& p : warm) {
      std::string error;
      try {
        error = verify(p, o->clients[fill % kClients]->request(p.target, p.headers));
      } catch (const std::exception& e) {
        error = p.target + ": " + e.what();
      }
      result.check(error.empty(), "warm-up " + error);
      ++o->warmup_requests;
    }
  }
  return o;
}

struct Phase {
  std::vector<ClientRun> runs;
  std::vector<Window> windows;
  double wall_s = 0.0;

  std::uint64_t completed() const {
    std::uint64_t n = 0;
    for (const ClientRun& run : runs) n += run.completed;
    return n;
  }
  std::vector<double> merged(std::vector<double> ClientRun::*field) const {
    std::vector<double> all;
    for (const ClientRun& run : runs) {
      all.insert(all.end(), (run.*field).begin(), (run.*field).end());
    }
    return all;
  }
};

Phase run_phase(Origin& o, double seconds, bool traced, SpanDump* dump,
                Result& result) {
  Phase phase;
  phase.runs.resize(kClients);
  phase.windows.resize(Window::kWindows);
  const double window_s = seconds / Window::kWindows;
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<double> cpu_at = {process_cpu_s()};
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      // Only client 0 writes spans, so the CSV has one writer.
      SpanDump* client_dump = c == 0 ? dump : nullptr;
      threads.emplace_back([&o, &phase, c, start, deadline, traced,
                            client_dump] {
        client_loop(*o.clients[c], o.plans[c], o.cursors[c], start, deadline,
                    traced, c, client_dump, phase.runs[c]);
      });
    }
    // Process CPU at each window boundary, for CPU per request.
    for (int w = 1; w <= Window::kWindows; ++w) {
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(
              start + static_cast<std::int64_t>(w * window_s * 1e9))));
      cpu_at.push_back(process_cpu_s());
    }
  }  // joins every client
  phase.wall_s = seconds_since(start);
  for (int w = 0; w < Window::kWindows; ++w) {
    phase.windows[w].busy_s = window_s;
    phase.windows[w].cpu_s = cpu_at[w + 1] - cpu_at[w];
  }
  for (const ClientRun& run : phase.runs) {
    for (std::size_t i = 0; i < run.request_us.size(); ++i) {
      const auto w = std::min<std::size_t>(
          static_cast<std::size_t>(run.request_end_s[i] / window_s),
          Window::kWindows - 1);
      phase.windows[w].op_us.push_back(run.request_us[i]);
      phase.windows[w].ops += 1.0;
    }
  }
  for (ClientRun& run : phase.runs) {
    result.attempted += run.completed + run.failed;
    result.failed += run.failed;
    for (std::string& error : run.errors) {
      if (result.errors.size() < 10) result.errors.push_back(std::move(error));
    }
  }
  return phase;
}

}  // namespace

Result run_origin(const RunOptions& options) {
  Result result;
  std::unique_ptr<Origin> o;
  std::vector<double> generate_s;
  const double setup_s = median_setup_s(kSetupRepeats, [&] {
    if (o != nullptr) o->server->stop();
    o.reset();
    o = start_origin(options.seed, result);
    generate_s.push_back(o->generate_s);
  });
  result.context.server_engine =
      o->server->engine() == abr::net::ServerEngine::kThreaded ? "threaded"
                                                               : "sharded";
  if (const auto* sharded =
          dynamic_cast<const abr::net::EpollServer*>(&o->server->transport())) {
    result.context.shards = sharded->shard_count();
  }

  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  const Phase untraced = run_phase(*o, untraced_s, false, nullptr, result);
  const double requests = static_cast<double>(untraced.completed());

  Phase traced;
  if (options.trace) {
    SpanDump dump(options.spans_path,
                  options.spans_path.empty() ? 0 : kSpanDumpRows);
    traced = run_phase(*o, options.seconds / 2, true, &dump, result);
  }
  o->server->stop();
  const std::uint64_t completed = untraced.completed() + traced.completed();
  const std::uint64_t served = o->server->requests_served();
  result.check(served == o->warmup_requests + completed,
               "server served " + std::to_string(served) + " requests, clients "
               "completed " + std::to_string(o->warmup_requests + completed));
  result.check(o->server->shed_connections() == 0, "origin shed connections");

  if (!options.trace) {
    add_end_to_end(result, summarize(untraced.windows, setup_s));
    return result;
  }

  double busy_s = 0.0;
  for (const ClientRun& run : traced.runs) busy_s += run.busy_s;
  std::uint64_t body_bytes = 0;
  for (const ClientRun& run : untraced.runs) body_bytes += run.body_bytes;
  Layers l;
  l.trace_generate_s = median(generate_s);
  l.net_segment_us_p50 = percentile(traced.merged(&ClientRun::segment_us), 50.0);
  l.net_segment_us_p99 = percentile(traced.merged(&ClientRun::segment_us), 99.0);
  l.net_range_us_p50 = percentile(traced.merged(&ClientRun::range_us), 50.0);
  l.net_range_us_p99 = percentile(traced.merged(&ClientRun::range_us), 99.0);
  l.net_ttfb_us_p99 = percentile(traced.merged(&ClientRun::ttfb_us), 99.0);
  l.net_body_us_p50 = percentile(traced.merged(&ClientRun::body_us), 50.0);
  l.net_requests_served = static_cast<double>(served);
  l.net_shed = static_cast<double>(o->server->shed_connections());
  l.net_goodput_mb_per_s = static_cast<double>(body_bytes) / untraced.wall_s / 1e6;
  l.net_busy_frac = busy_s / (traced.wall_s * static_cast<double>(kClients));
  l.trace_overhead_ratio =
      (requests / untraced.wall_s) /
      (static_cast<double>(traced.completed()) / traced.wall_s);
  add_layers(result, l);
  return result;
}

}  // namespace perfbench
