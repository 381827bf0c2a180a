// abrsim — run one adaptive-streaming session from the command line.
//
// Simulates any of the library's algorithms over a throughput trace (a CSV
// file or a generated synthetic trace) and prints a session summary, the
// offline-optimal comparison, and optionally the full per-chunk log as CSV.
//
// Examples:
//   abrsim --algorithm robustmpc --dataset hsdpa --index 3
//   abrsim --algorithm bb --trace mytrace.csv --manifest video.mpd
//   abrsim --algorithm fastmpc --dataset fcc --chunk-log
//   abrsim --algorithm robustmpc --dataset fcc --metrics --trace-out t.json
//   abrsim --algorithm robustmpc --dataset hsdpa --faults plan.json
//   abrsim --origins 2 --kill-origin at=60,restart=150 --chunk-log
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "core/algorithms.hpp"
#include "core/offline_optimal.hpp"
#include "media/mpd.hpp"
#include "net/origin_pool.hpp"
#include "net/origin_sim.hpp"
#include "net/telemetry.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/trace_event.hpp"
#include "sim/chunk_source.hpp"
#include "sim/player.hpp"
#include "testing/fault_plan.hpp"
#include "testing/faulty_source.hpp"
#include "testing/outage_script.hpp"
#include "trace/generators.hpp"
#include "trace/trace_io.hpp"
#include "util/checked_parse.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"

using namespace abr;

namespace {

struct Options {
  std::string algorithm = "robustmpc";
  std::string trace_path;
  std::string dataset = "hsdpa";
  std::size_t index = 0;
  std::uint64_t seed = 20150817;
  double duration_s = 320.0;
  std::string manifest_path;
  std::string preference = "balanced";
  double buffer_s = 30.0;
  std::size_t horizon = 5;
  bool chunk_log = false;
  bool skip_optimal = false;
  bool metrics = false;
  std::string trace_out;
  std::string faults_path;
  bool abort_policy = false;
  std::size_t origins = 1;
  std::vector<std::string> kill_specs;
  std::string journal_path;
  int telemetry_port = -1;
  double telemetry_linger_s = 0.0;
};

void usage() {
  std::puts(
      "usage: abrsim [options]\n"
      "  --algorithm rb|bb|festive|dashjs|mpc|robustmpc|fastmpc|mpcopt|bola\n"
      "  --trace FILE.csv          throughput trace (duration_s,rate_kbps)\n"
      "  --dataset fcc|hsdpa|markov  synthesize instead (default hsdpa)\n"
      "  --index N                 trace index within the dataset\n"
      "  --seed S --duration D     dataset generation parameters\n"
      "  --manifest FILE.mpd       video manifest (default: Envivio test video)\n"
      "  --preference balanced|instability|rebuffering   QoE weights\n"
      "  --buffer SECONDS          playout buffer Bmax (default 30)\n"
      "  --horizon N               MPC look-ahead (default 5)\n"
      "  --chunk-log               print the per-chunk log as CSV\n"
      "  --no-optimal              skip the offline-optimal comparison\n"
      "  --metrics                 enable instrumentation and print a\n"
      "                            Prometheus-format metrics dump at exit\n"
      "  --trace-out FILE.json     write the session timeline as Chrome\n"
      "                            trace-event JSON (chrome://tracing)\n"
      "  --faults PLAN.json        inject transport faults per a seeded\n"
      "                            FaultPlan (deterministic: same plan =>\n"
      "                            bit-identical session)\n"
      "  --abort-policy            abort in-flight transfers that project a\n"
      "                            stall, re-decide at a lower rung, and\n"
      "                            resume from the delivered byte offset\n"
      "                            (needs a range-capable source; inert\n"
      "                            with --origins)\n"
      "  --origins N               route every chunk through a pool of N\n"
      "                            virtual origins with per-origin circuit\n"
      "                            breakers and automatic failover\n"
      "  --kill-origin SPEC        take an origin down in session time:\n"
      "                            at=T[,restart=U][,origin=K]; repeatable.\n"
      "                            Deterministic: same flags => bit-identical\n"
      "                            chunk log. Implies --origins 2 unless set.\n"
      "  --journal FILE.jsonl      write the structured session journal (one\n"
      "                            JSON record per chunk decision with full\n"
      "                            QoE attribution; byte-identical across\n"
      "                            seeded runs). Summarize with abrreport.\n"
      "  --telemetry-port P        serve GET /metrics, /statusz, /healthz on\n"
      "                            P while the session runs (0 = ephemeral;\n"
      "                            implies --metrics)\n"
      "  --telemetry-linger S      keep the telemetry endpoint up S seconds\n"
      "                            after the session ends (for scrapers)");
}

std::optional<core::Algorithm> parse_algorithm(std::string_view name) {
  const std::string lower = util::to_lower(name);
  if (lower == "rb") return core::Algorithm::kRateBased;
  if (lower == "bb") return core::Algorithm::kBufferBased;
  if (lower == "festive") return core::Algorithm::kFestive;
  if (lower == "dashjs" || lower == "dash.js") return core::Algorithm::kDashJs;
  if (lower == "mpc") return core::Algorithm::kMpc;
  if (lower == "robustmpc") return core::Algorithm::kRobustMpc;
  if (lower == "fastmpc") return core::Algorithm::kFastMpc;
  if (lower == "mpcopt" || lower == "mpc-opt") return core::Algorithm::kMpcOpt;
  if (lower == "bola") return core::Algorithm::kBola;
  return std::nullopt;
}

std::optional<qoe::QoePreference> parse_preference(std::string_view name) {
  const std::string lower = util::to_lower(name);
  if (lower == "balanced") return qoe::QoePreference::kBalanced;
  if (lower == "instability") return qoe::QoePreference::kAvoidInstability;
  if (lower == "rebuffering") return qoe::QoePreference::kAvoidRebuffering;
  return std::nullopt;
}

bool parse_args(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    // Overflow-checked numeric options: a malformed or out-of-range value is
    // a usage error, not a silent wrap to a huge count.
    const auto count_value = [&]() -> std::size_t {
      const char* text = value();
      std::size_t out = 0;
      if (!util::parse_size(text, out)) {
        std::fprintf(stderr, "bad count '%s' for %s\n", text,
                     std::string(arg).c_str());
        std::exit(2);
      }
      return out;
    };
    const auto seed_value = [&]() -> std::uint64_t {
      const char* text = value();
      std::uint64_t out = 0;
      if (!util::parse_u64(text, out)) {
        std::fprintf(stderr, "bad seed '%s' for %s\n", text,
                     std::string(arg).c_str());
        std::exit(2);
      }
      return out;
    };
    const auto double_value = [&]() -> double {
      const char* text = value();
      double out = 0.0;
      if (!util::parse_finite_double(text, out)) {
        std::fprintf(stderr, "bad number '%s' for %s\n", text,
                     std::string(arg).c_str());
        std::exit(2);
      }
      return out;
    };
    if (arg == "--algorithm") options.algorithm = value();
    else if (arg == "--trace") options.trace_path = value();
    else if (arg == "--dataset") options.dataset = value();
    else if (arg == "--index") options.index = count_value();
    else if (arg == "--seed") options.seed = seed_value();
    else if (arg == "--duration") options.duration_s = double_value();
    else if (arg == "--manifest") options.manifest_path = value();
    else if (arg == "--preference") options.preference = value();
    else if (arg == "--buffer") options.buffer_s = double_value();
    else if (arg == "--horizon") options.horizon = count_value();
    else if (arg == "--chunk-log") options.chunk_log = true;
    else if (arg == "--no-optimal") options.skip_optimal = true;
    else if (arg == "--metrics") options.metrics = true;
    else if (arg == "--trace-out") options.trace_out = value();
    else if (arg == "--faults") options.faults_path = value();
    else if (arg == "--abort-policy") options.abort_policy = true;
    else if (arg == "--origins") options.origins = count_value();
    else if (arg == "--kill-origin") options.kill_specs.emplace_back(value());
    else if (arg == "--journal") options.journal_path = value();
    else if (arg == "--telemetry-port") {
      const std::size_t port = count_value();
      if (port > 65535) {
        std::fprintf(stderr, "bad port %zu for --telemetry-port\n", port);
        std::exit(2);
      }
      options.telemetry_port = static_cast<int>(port);
    }
    else if (arg == "--telemetry-linger")
      options.telemetry_linger_s = double_value();
    else if (arg == "--help") { usage(); std::exit(0); }
    else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) {
    usage();
    return 2;
  }

  const auto algorithm = parse_algorithm(options.algorithm);
  if (!algorithm.has_value()) {
    std::fprintf(stderr, "unknown algorithm '%s'\n", options.algorithm.c_str());
    return 2;
  }
  const auto preference = parse_preference(options.preference);
  if (!preference.has_value()) {
    std::fprintf(stderr, "unknown preference '%s'\n", options.preference.c_str());
    return 2;
  }

  // Load or synthesize the trace.
  trace::ThroughputTrace session_trace = trace::ThroughputTrace::constant(1.0, 1.0);
  if (!options.trace_path.empty()) {
    session_trace = trace::load_csv(options.trace_path);
  } else {
    trace::DatasetKind kind = trace::DatasetKind::kHsdpa;
    const std::string lower = util::to_lower(options.dataset);
    if (lower == "fcc") kind = trace::DatasetKind::kFcc;
    else if (lower == "hsdpa") kind = trace::DatasetKind::kHsdpa;
    else if (lower == "markov" || lower == "synthetic")
      kind = trace::DatasetKind::kMarkov;
    else {
      std::fprintf(stderr, "unknown dataset '%s'\n", options.dataset.c_str());
      return 2;
    }
    auto traces = trace::make_dataset(kind, options.index + 1,
                                      options.duration_s, options.seed);
    session_trace = std::move(traces.back());
  }

  // Load or default the manifest.
  media::VideoManifest manifest = media::VideoManifest::envivio_default();
  if (!options.manifest_path.empty()) {
    std::ifstream in(options.manifest_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", options.manifest_path.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    manifest = media::from_mpd(buffer.str());
  }

  // Observability: --metrics flips the global registry's kill switch and
  // pre-registers the standard families so the dump shows the full schema;
  // --trace-out attaches a Chrome trace-event writer to the session.
  if (options.metrics || options.telemetry_port >= 0) {
    obs::MetricsRegistry::global().set_enabled(true);
    obs::register_standard_metrics(obs::MetricsRegistry::global());
  }
  obs::TraceWriter tracer(!options.trace_out.empty());
  tracer.set_process_name("abrsim");
  tracer.set_thread_name("player", 0);

  const qoe::QoeModel model(media::QualityFunction::identity(),
                            qoe::preset_weights(*preference));
  sim::SessionConfig session;
  session.buffer_capacity_s = options.buffer_s;
  session.abort_policy.enabled = options.abort_policy;
  if (tracer.enabled()) session.trace_writer = &tracer;

  // --journal attaches the structured JSONL journal to the session; every
  // chunk decision gets one record with the full Eq. (5) attribution.
  std::optional<obs::Journal> journal;
  if (!options.journal_path.empty()) {
    try {
      journal.emplace(options.journal_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    session.journal = &*journal;
  }

  // --telemetry-port serves live scrapes while the (virtual-time) session
  // runs; --telemetry-linger keeps the endpoint up afterwards so external
  // scrapers can collect the final counters.
  std::optional<net::TelemetryServer> telemetry;
  if (options.telemetry_port >= 0) {
    telemetry.emplace(obs::MetricsRegistry::global());
    try {
      telemetry->start(static_cast<std::uint16_t>(options.telemetry_port));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "telemetry: %s\n", e.what());
      return 1;
    }
    std::fprintf(stderr,
                 "telemetry: 127.0.0.1:%u (/metrics /statusz /healthz)\n",
                 static_cast<unsigned>(telemetry->port()));
  }

  core::AlgorithmOptions algo_options;
  algo_options.buffer_capacity_s = options.buffer_s;
  algo_options.mpc_horizon = options.horizon;
  auto instance = core::make_algorithm(*algorithm, manifest, model, algo_options);

  // Source chain: trace -> [origin pool chaos] -> [fault injection]. All
  // three layers run in virtual time off seeded RNGs, so any combination
  // produces a bit-identical chunk log across runs of the same flags.
  sim::TraceChunkSource base_source(session_trace, manifest);
  std::optional<net::SimulatedOriginSource> origin_source;
  std::optional<abr::testing::FaultySource> faulty_source;
  sim::ChunkSource* source = &base_source;
  if (options.origins > 1 || !options.kill_specs.empty()) {
    try {
      abr::testing::OutageScript script;
      for (const std::string& spec : options.kill_specs) {
        script.windows.push_back(
            abr::testing::OutageScript::parse_kill_spec(spec));
      }
      net::SimulatedOriginOptions origin_options;
      origin_options.origins = std::max<std::size_t>(options.origins, 2);
      origin_options.seed = options.seed;
      origin_source.emplace(session_trace, manifest, std::move(script),
                            origin_options);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    source = &*origin_source;
  }
  if (!options.faults_path.empty()) {
    try {
      faulty_source.emplace(*source,
                            abr::testing::FaultPlan::load(options.faults_path));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    source = &*faulty_source;
  }
  sim::PlayerSession player(manifest, model, session);
  const sim::SessionResult result =
      player.run(*source, *instance.controller, *instance.predictor);

  std::printf("trace:     %s (mean %.0f kbps, stddev %.0f kbps)\n",
              session_trace.name().empty() ? "(unnamed)"
                                           : session_trace.name().c_str(),
              session_trace.mean_kbps(), session_trace.stddev_kbps());
  std::printf("video:     %zu chunks x %.0f s, ladder %.0f-%.0f kbps\n",
              manifest.chunk_count(), manifest.chunk_duration_s(),
              manifest.bitrates_kbps().front(), manifest.bitrates_kbps().back());
  std::printf("algorithm: %s (%s weights)\n",
              core::algorithm_name(*algorithm),
              qoe::preference_name(*preference));
  std::printf("\nQoE:              %.0f\n", result.qoe);
  std::printf("average bitrate:  %.0f kbps\n", result.average_bitrate_kbps);
  std::printf("bitrate change:   %.0f kbps/chunk\n",
              result.average_bitrate_change_kbps);
  std::printf("switches:         %zu\n", result.switch_count);
  std::printf("rebuffering:      %.2f s\n", result.total_rebuffer_s);
  std::printf("startup delay:    %.2f s\n", result.startup_delay_s);
  if (faulty_source.has_value()) {
    std::printf("\nfault injection:  %zu faults, %zu retries\n",
                faulty_source->faults_injected(), faulty_source->retries());
    std::printf("transfer attempts:%zu (%zu chunks)\n", result.total_attempts,
                result.chunks.size());
    std::printf("degraded chunks:  %zu\n", result.degraded_chunks);
    std::printf("skipped chunks:   %zu\n", result.skipped_chunks);
  }
  if (options.abort_policy) {
    std::printf("\nabort policy:     %zu aborted, %zu partial, %zu resumes, "
                "%.0f kb wasted\n",
                result.aborted_chunks, result.partial_chunks,
                result.resume_count, result.wasted_kilobits);
  }
  if (origin_source.has_value()) {
    const net::OriginPool& pool = origin_source->pool();
    std::printf("\norigin pool:      %zu origins, %zu failovers, "
                "%zu attempt failures, %zu retries\n",
                pool.size(), origin_source->failovers(),
                origin_source->attempt_failures(), origin_source->retries());
    std::printf("degraded chunks:  %zu\nskipped chunks:   %zu\n",
                result.degraded_chunks, result.skipped_chunks);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      std::printf("origin %zu:         breaker %s, %zu fast-fails, "
                  "transitions %s\n",
                  i, net::breaker_state_name(pool.state(i)), pool.fast_fails(i),
                  pool.transition_string(i).c_str());
    }
  }

  if (!options.skip_optimal) {
    const core::OfflineOptimalPlanner planner(manifest, model, session);
    const double optimal = planner.plan(session_trace).qoe;
    std::printf("offline optimal:  %.0f  (normalized QoE %.3f)\n", optimal,
                core::normalized_qoe(result.qoe, optimal));
  }

  if (options.chunk_log) {
    std::printf("\nchunk,level,bitrate_kbps,start_s,download_s,throughput_kbps,"
                "buffer_after_s,rebuffer_s,wait_s,attempts,degraded,skipped,"
                "origin,aborted,partial,wasted_kb,resumed_from_byte\n");
    for (const sim::ChunkRecord& r : result.chunks) {
      std::printf("%zu,%zu,%.0f,%.3f,%.3f,%.1f,%.3f,%.3f,%.3f,%zu,%d,%d,%zu,"
                  "%d,%d,%.3f,%zu\n",
                  r.index, r.level, r.bitrate_kbps, r.start_s, r.download_s,
                  r.throughput_kbps, r.buffer_after_s, r.rebuffer_s, r.wait_s,
                  r.attempts, r.degraded ? 1 : 0, r.skipped ? 1 : 0, r.origin,
                  r.aborted ? 1 : 0, r.partial ? 1 : 0, r.wasted_kilobits,
                  r.resumed_from_byte);
    }
  }

  if (!options.trace_out.empty()) {
    try {
      tracer.save(options.trace_out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    std::printf("\nwrote Chrome trace: %s (%zu events; open chrome://tracing)\n",
                options.trace_out.c_str(), tracer.event_count());
  }
  if (journal.has_value()) {
    journal->flush();
    std::printf("\nwrote journal: %s (%zu records; summarize with abrreport)\n",
                options.journal_path.c_str(), journal->records());
  }
  if (options.metrics) {
    std::printf("\n# metrics (Prometheus text exposition format)\n");
    std::fflush(stdout);
    obs::MetricsRegistry::global().write_prometheus(std::cout);
    std::cout.flush();
  }
  if (telemetry.has_value()) {
    if (options.telemetry_linger_s > 0.0) {
      std::fflush(stdout);
      std::this_thread::sleep_for(
          std::chrono::duration<double>(options.telemetry_linger_s));
    }
    telemetry->stop();
  }
  return 0;
}
