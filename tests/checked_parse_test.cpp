// Unit tests for util/checked_parse.hpp: the overflow/NaN/Inf-safe numeric
// conversions every hostile-input parser routes through. The interesting
// cases live at the edges — UINT64_MAX-adjacent doubles, values where a
// naive `<= UINT64_MAX` comparison silently rounds, and the textual
// "inf"/"nan" spellings std::from_chars accepts but JSON bans.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "util/checked_parse.hpp"

namespace abr::util {
namespace {

TEST(U64FromDouble, AcceptsExactIntegers) {
  std::uint64_t out = 0;
  EXPECT_TRUE(u64_from_double(0.0, out));
  EXPECT_EQ(out, 0u);
  EXPECT_TRUE(u64_from_double(42.0, out));
  EXPECT_EQ(out, 42u);
  // 2^53: still exactly representable and well inside uint64 range.
  EXPECT_TRUE(u64_from_double(9007199254740992.0, out));
  EXPECT_EQ(out, 9007199254740992ull);
}

TEST(U64FromDouble, Uint64MaxAdjacentBoundary) {
  std::uint64_t out = 0;
  // The largest double below 2^64 is 2^64 - 2048; it must convert.
  const double below = std::nextafter(18446744073709551616.0, 0.0);
  EXPECT_TRUE(u64_from_double(below, out));
  EXPECT_EQ(out, 18446744073709549568ull);  // 2^64 - 2048
  // 2^64 itself does not fit. A naive `v <= (double)UINT64_MAX` comparison
  // would accept it (UINT64_MAX rounds UP to 2^64 as a double) and the cast
  // would be UB; the half-open bound must reject it.
  EXPECT_FALSE(u64_from_double(18446744073709551616.0, out));
  EXPECT_FALSE(u64_from_double(2e19, out));
}

TEST(U64FromDouble, RejectsNegativeFractionalAndNonFinite) {
  std::uint64_t out = 0;
  EXPECT_FALSE(u64_from_double(-1.0, out));
  EXPECT_FALSE(u64_from_double(-0.5, out));
  EXPECT_FALSE(u64_from_double(1.5, out));
  EXPECT_FALSE(u64_from_double(std::numeric_limits<double>::infinity(), out));
  EXPECT_FALSE(u64_from_double(-std::numeric_limits<double>::infinity(), out));
  EXPECT_FALSE(u64_from_double(std::numeric_limits<double>::quiet_NaN(), out));
}

TEST(ParseU64, FullConsumptionAndOverflow) {
  std::uint64_t out = 0;
  EXPECT_TRUE(parse_u64("0", out));
  EXPECT_EQ(out, 0u);
  EXPECT_TRUE(parse_u64("18446744073709551615", out));  // UINT64_MAX
  EXPECT_EQ(out, std::numeric_limits<std::uint64_t>::max());
  // One past UINT64_MAX: stoull would wrap or throw; parse_u64 just fails.
  EXPECT_FALSE(parse_u64("18446744073709551616", out));
  EXPECT_FALSE(parse_u64("99999999999999999999", out));
  EXPECT_FALSE(parse_u64("", out));
  EXPECT_FALSE(parse_u64("12x", out));
  EXPECT_FALSE(parse_u64("-1", out));
  EXPECT_FALSE(parse_u64(" 1", out));
  EXPECT_FALSE(parse_u64("1.0", out));
}

TEST(ParseFiniteDouble, RejectsInfNanSpellings) {
  double out = 0.0;
  EXPECT_TRUE(parse_finite_double("1.25", out));
  EXPECT_DOUBLE_EQ(out, 1.25);
  EXPECT_TRUE(parse_finite_double("-3e2", out));
  EXPECT_DOUBLE_EQ(out, -300.0);
  // std::from_chars accepts these spellings; the finite wrapper must not.
  EXPECT_FALSE(parse_finite_double("inf", out));
  EXPECT_FALSE(parse_finite_double("-inf", out));
  EXPECT_FALSE(parse_finite_double("nan", out));
  EXPECT_FALSE(parse_finite_double("1e999", out));  // overflows to +inf
  EXPECT_FALSE(parse_finite_double("", out));
  EXPECT_FALSE(parse_finite_double("1.5extra", out));
}

TEST(IsJsonNumber, StrictGrammar) {
  EXPECT_TRUE(is_json_number("0"));
  EXPECT_TRUE(is_json_number("-0"));
  EXPECT_TRUE(is_json_number("10"));
  EXPECT_TRUE(is_json_number("-1.25"));
  EXPECT_TRUE(is_json_number("1e9"));
  EXPECT_TRUE(is_json_number("2.5E-3"));
  EXPECT_TRUE(is_json_number("1e+2"));

  EXPECT_FALSE(is_json_number(""));
  EXPECT_FALSE(is_json_number("+1"));       // leading plus
  EXPECT_FALSE(is_json_number("01"));       // leading zero
  EXPECT_FALSE(is_json_number(".5"));       // bare fraction
  EXPECT_FALSE(is_json_number("1."));       // empty fraction
  EXPECT_FALSE(is_json_number("1e"));       // empty exponent
  EXPECT_FALSE(is_json_number("nan"));
  EXPECT_FALSE(is_json_number("NaN"));
  EXPECT_FALSE(is_json_number("inf"));
  EXPECT_FALSE(is_json_number("Infinity"));
  EXPECT_FALSE(is_json_number("0x10"));
}

TEST(SizeFromDouble, MatchesU64OnThisPlatform) {
  std::size_t out = 0;
  EXPECT_TRUE(size_from_double(123.0, out));
  EXPECT_EQ(out, 123u);
  EXPECT_FALSE(size_from_double(-1.0, out));
  EXPECT_FALSE(size_from_double(1e300, out));
}

}  // namespace
}  // namespace abr::util
