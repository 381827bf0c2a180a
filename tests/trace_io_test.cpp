#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>

#include "trace/generators.hpp"

namespace abr::trace {
namespace {

TEST(TraceIo, CsvRoundTrip) {
  const ThroughputTrace trace({{1.5, 120.25}, {2.0, 900.5}}, "t");
  const ThroughputTrace restored = from_csv(to_csv(trace), "t");
  ASSERT_EQ(restored.segments().size(), 2u);
  EXPECT_NEAR(restored.segments()[0].duration_s, 1.5, 1e-6);
  EXPECT_NEAR(restored.segments()[1].rate_kbps, 900.5, 1e-6);
  EXPECT_EQ(restored.name(), "t");
}

TEST(TraceIo, CsvRoundTripIsBitExact) {
  // Six fixed decimals used to write a sub-microsecond duration as 0, which
  // the reader then rejected; shortest round-trip text keeps every bit.
  EXPECT_EQ(to_csv(ThroughputTrace({{1e-7, 1000.0}})),
            "duration_s,rate_kbps\n1e-07,1000\n");
  const ThroughputTrace trace(
      {{1e-7, 1000.0}, {2.5e-10, 3.3}, {0.1, 9e17}, {1e17, 1.0 / 3.0}}, "t");
  // No value is zero or NaN, so == on each double is equality of its bits.
  EXPECT_EQ(from_csv(to_csv(trace), "t").segments(), trace.segments());
}

TEST(TraceIo, FromCsvRejectsWrongColumns) {
  EXPECT_THROW(from_csv("a,b,c\n1,2,3\n"), std::invalid_argument);
}

TEST(TraceIo, FromCsvRejectsNonNumeric) {
  EXPECT_THROW(from_csv("duration_s,rate_kbps\nx,100\n"), std::invalid_argument);
}

TEST(TraceIo, FileRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "abr_trace_test.csv";
  const ThroughputTrace trace({{5.0, 350.0}, {5.0, 3000.0}});
  save_csv(trace, path.string());
  const ThroughputTrace restored = load_csv(path.string());
  EXPECT_DOUBLE_EQ(restored.period_s(), 10.0);
  EXPECT_DOUBLE_EQ(restored.mean_kbps(), trace.mean_kbps());
  EXPECT_EQ(restored.name(), "abr_trace_test");
  std::filesystem::remove(path);
}

TEST(TraceIo, LoadMissingFileThrows) {
  EXPECT_THROW(load_csv("/nonexistent/trace.csv"), std::runtime_error);
}

TEST(TraceIo, DatasetDirectoryRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() / "abr_dataset_test";
  std::filesystem::remove_all(dir);
  const auto traces = make_dataset(DatasetKind::kFcc, 4, 60.0, 5);
  save_dataset(traces, dir.string(), "fcc");
  const auto loaded = load_dataset(dir.string());
  ASSERT_EQ(loaded.size(), 4u);
  // Sorted by filename: fcc-0 ... fcc-3.
  EXPECT_EQ(loaded[0].name(), "fcc-0");
  EXPECT_NEAR(loaded[2].mean_kbps(), traces[2].mean_kbps(), 1e-3);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace abr::trace
