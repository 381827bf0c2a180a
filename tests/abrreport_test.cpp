// abrreport library: the flat JSONL parser, per-algorithm aggregation over
// journal records, table rendering, and the scrape-body validator entry
// point CI's telemetry smoke job uses.
#include "abrreport.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace abr::tools {
namespace {

TEST(ParseFlatJson, ParsesStringsNumbersAndBooleans) {
  JsonObject object;
  std::string error;
  ASSERT_TRUE(parse_flat_json(
      R"({"name":"s0","qoe":-12.5,"chunks":65,"warm":true,"skip":false})",
      object, error))
      << error;
  EXPECT_EQ(object.at("name").kind, JsonValue::Kind::kString);
  EXPECT_EQ(object.at("name").text, "s0");
  EXPECT_DOUBLE_EQ(object.at("qoe").number, -12.5);
  EXPECT_DOUBLE_EQ(object.at("chunks").number, 65.0);
  EXPECT_TRUE(object.at("warm").boolean);
  EXPECT_FALSE(object.at("skip").boolean);
}

TEST(ParseFlatJson, DecodesEscapes) {
  JsonObject object;
  std::string error;
  ASSERT_TRUE(parse_flat_json(R"({"a":"x\"y\\z\n","b":"A\u00e9"})",
                              object, error))
      << error;
  EXPECT_EQ(object.at("a").text, "x\"y\\z\n");
  EXPECT_EQ(object.at("b").text, "A\xc3\xa9");
}

TEST(ParseFlatJson, AcceptsEmptyObjectAndWhitespace) {
  JsonObject object;
  std::string error;
  EXPECT_TRUE(parse_flat_json("  { }  ", object, error)) << error;
  EXPECT_TRUE(object.empty());
}

TEST(ParseFlatJson, RejectsMalformedInput) {
  JsonObject object;
  std::string error;
  EXPECT_FALSE(parse_flat_json("", object, error));
  EXPECT_FALSE(parse_flat_json("[1,2]", object, error));
  EXPECT_FALSE(parse_flat_json(R"({"a":})", object, error));
  EXPECT_FALSE(parse_flat_json(R"({"a":1)", object, error));
  EXPECT_FALSE(parse_flat_json(R"({"a":1} trailing)", object, error));
  EXPECT_FALSE(parse_flat_json(R"({"a":"unterminated)", object, error));
  EXPECT_FALSE(parse_flat_json(R"({"a":"\q"})", object, error));
}

std::istringstream sample_journal() {
  return std::istringstream(
      R"({"type":"chunk","session":"s0","algo":"MPC","chunk":0,"nodes":100,"warm_start":false,"path":"online"}
{"type":"chunk","session":"s0","algo":"MPC","chunk":1,"nodes":50,"warm_start":true,"path":"online"}
{"type":"chunk","session":"s1","algo":"FastMPC","chunk":0,"nodes":0,"warm_start":false,"path":"table"}
{"type":"session","session":"s0","algo":"MPC","chunks":2,"qoe":100,"qoe_utility":150,"qoe_switch_penalty":20,"qoe_rebuffer_charge":10,"qoe_startup_charge":20,"avg_bitrate_kbps":800,"rebuffer_s":1.5,"switches":3,"degraded":1,"skipped":0,"attempts":4,"faults":2}
{"type":"session","session":"s1","algo":"FastMPC","chunks":1,"qoe":60,"avg_bitrate_kbps":600,"switches":1}
not json at all
)");
}

TEST(SummarizeJournal, AggregatesPerAlgorithm) {
  auto in = sample_journal();
  const ReportSummary summary = summarize_journal(in);
  EXPECT_EQ(summary.lines, 6u);
  EXPECT_EQ(summary.chunk_records, 3u);
  EXPECT_EQ(summary.session_records, 2u);
  EXPECT_EQ(summary.malformed_lines, 1u);
  EXPECT_NE(summary.first_error.find("line 6"), std::string::npos)
      << summary.first_error;

  ASSERT_EQ(summary.algorithms.size(), 2u);
  // Sorted by name: FastMPC before MPC.
  const AlgorithmSummary& fast = summary.algorithms[0];
  EXPECT_EQ(fast.algorithm, "FastMPC");
  EXPECT_EQ(fast.sessions, 1u);
  EXPECT_EQ(fast.chunks, 1u);
  EXPECT_EQ(fast.table_chunks, 1u);
  EXPECT_EQ(fast.online_chunks, 0u);

  const AlgorithmSummary& mpc = summary.algorithms[1];
  EXPECT_EQ(mpc.algorithm, "MPC");
  EXPECT_EQ(mpc.sessions, 1u);
  EXPECT_EQ(mpc.chunks, 2u);
  EXPECT_EQ(mpc.online_chunks, 2u);
  EXPECT_EQ(mpc.warm_starts, 1u);
  EXPECT_EQ(mpc.nodes_expanded, 150u);
  EXPECT_DOUBLE_EQ(mpc.qoe_sum, 100.0);
  EXPECT_DOUBLE_EQ(mpc.utility_sum, 150.0);
  EXPECT_DOUBLE_EQ(mpc.switch_penalty_sum, 20.0);
  EXPECT_DOUBLE_EQ(mpc.rebuffer_charge_sum, 10.0);
  EXPECT_DOUBLE_EQ(mpc.startup_charge_sum, 20.0);
  EXPECT_EQ(mpc.switches, 3u);
  EXPECT_EQ(mpc.degraded_chunks, 1u);
  EXPECT_EQ(mpc.attempts, 4u);
  EXPECT_EQ(mpc.faults, 2u);
}

TEST(RenderReport, ProducesTablesForEveryAlgorithm) {
  auto in = sample_journal();
  const std::string report = render_report(summarize_journal(in));
  EXPECT_NE(report.find("Fig. 9 style"), std::string::npos);
  EXPECT_NE(report.find("Fig. 11 style"), std::string::npos);
  EXPECT_NE(report.find("FastMPC"), std::string::npos);
  EXPECT_NE(report.find("MPC"), std::string::npos);
  EXPECT_NE(report.find("1 malformed"), std::string::npos);
  EXPECT_NE(report.find("warm%"), std::string::npos);
}

TEST(LoadJournal, ThrowsOnMissingFile) {
  EXPECT_THROW(load_journal("/nonexistent-dir/journal.jsonl"),
               std::runtime_error);
}

TEST(CheckMetricsFile, ValidatesExposition) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto good = dir / "abrreport_good_metrics.txt";
  const auto bad = dir / "abrreport_bad_metrics.txt";
  {
    std::ofstream out(good);
    out << "# TYPE requests counter\nrequests 1\n";
  }
  {
    std::ofstream out(bad);
    out << "bad-name 1\n";
  }
  std::ostringstream log;
  EXPECT_EQ(check_metrics_file(good.string(), log), 0);
  EXPECT_NE(log.str().find("valid"), std::string::npos);
  EXPECT_EQ(check_metrics_file(bad.string(), log), 1);
  EXPECT_EQ(check_metrics_file("/nonexistent-dir/metrics.txt", log), 2);
  std::filesystem::remove(good);
  std::filesystem::remove(bad);
}

}  // namespace
}  // namespace abr::tools
