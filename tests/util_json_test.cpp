// Unit tests for util/json.hpp: the number formatter pinned byte for byte
// against the printf/strtod formatter it replaced (kept below as a
// test-only oracle), the escaper, and the reader's grammar, depth cap,
// string decoding, dotted lookup, and exact integer conversion.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace abr::util {
namespace {

/// The formatter json_number replaced: identical steps on snprintf/strtod.
std::string legacy_json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  if (value == std::floor(value) && std::fabs(value) < 9.007199254740992e15) {
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(value));
    return buffer;
  }
  const int first_precision =
      std::fabs(value) >= 2.2250738585072014e-308 ? 15 : 1;
  for (int precision = first_precision; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

double from_bits(std::uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

TEST(JsonNumber, EdgeValuesMatchTheLegacyFormatter) {
  std::vector<double> values = {
      0.0, -0.0, 0.0001, -0.0001, 0.1, 0.1 + 0.2, 1e22, 1e23, 1e308, -1e308,
      std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      9007199254740991.0, 9007199254740992.0, 9007199254740994.0,
      -9007199254740992.0, 4503599627370495.5, 1.2003693070755666e+19};
  for (int exponent = -1074; exponent <= 1023; ++exponent) {
    const double power = std::ldexp(1.0, exponent);
    values.push_back(power);
    values.push_back(-power);
    values.push_back(std::nextafter(power, 0.0));
  }
  for (const double value : values) {
    EXPECT_EQ(json_number(value), legacy_json_number(value)) << value;
  }
  // Spellings plain shortest std::to_chars would get wrong.
  EXPECT_EQ(json_number(0.0001), "0.0001");
  EXPECT_EQ(json_number(1.2003693070755666e+19), "1.2003693070755666e+19");
  // 16 digits round-trip 2^-24, but the search from 15 lands on 17.
  EXPECT_EQ(json_number(std::ldexp(1.0, -24)), "5.9604644775390625e-08");
  EXPECT_EQ(json_number(9007199254740992.0), "9007199254740992");
  EXPECT_EQ(json_number(-0.0), "0");
}

TEST(JsonNumber, TenMillionValuesMatchTheLegacyFormatter) {
  // Random bit patterns (every exponent, NaN and infinities included),
  // random subnormals, and journal-like short decimals k / 10^d.
  constexpr std::size_t kShards = 40;
  constexpr std::size_t kBitsPerShard = 150000;
  constexpr std::size_t kSubnormalsPerShard = 6250;
  constexpr std::size_t kDecimalsPerShard = 93750;
  static_assert(kShards * (kBitsPerShard + kSubnormalsPerShard +
                           kDecimalsPerShard) >= 10000000);
  std::vector<std::size_t> mismatches(kShards, 0);
  std::vector<double> first_mismatch(kShards, 0.0);
  parallel_for(kShards, [&](std::size_t shard) {
    Rng rng(0x75F0 + shard);
    const auto check = [&](double value) {
      if (json_number(value) != legacy_json_number(value)) {
        if (mismatches[shard]++ == 0) first_mismatch[shard] = value;
      }
    };
    for (std::size_t i = 0; i < kBitsPerShard; ++i) check(from_bits(rng()));
    for (std::size_t i = 0; i < kSubnormalsPerShard; ++i) {
      const std::uint64_t bits = rng();
      check(from_bits((bits & 0x800FFFFFFFFFFFFFull) | 1));
    }
    for (std::size_t i = 0; i < kDecimalsPerShard; ++i) {
      const double k =
          static_cast<double>(rng.uniform_int(-99999999, 99999999));
      check(k / std::pow(10.0, static_cast<double>(rng.uniform_int(1, 9))));
    }
  });
  std::size_t total = 0;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    total += mismatches[shard];
    EXPECT_EQ(mismatches[shard], 0u)
        << "first mismatch: " << json_number(first_mismatch[shard]) << " vs "
        << legacy_json_number(first_mismatch[shard]);
  }
  EXPECT_EQ(total, 0u);
}

TEST(JsonEscape, ControlBytesWithoutShortFormsUseUnicodeEscapes) {
  EXPECT_EQ(json_escape("\b\f"), "\\u0008\\u000c");
  EXPECT_EQ(json_escape(std::string("\x1f\x7f", 2)), "\\u001f\x7f");
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");  // UTF-8 passes
}

Json parse_ok(const std::string& text) {
  Json document;
  std::string error;
  EXPECT_TRUE(parse_json(text, document, error)) << text << ": " << error;
  EXPECT_TRUE(error.empty());
  return document;
}

std::string parse_error(const std::string& text) {
  Json document;
  std::string error;
  EXPECT_FALSE(parse_json(text, document, error)) << text;
  EXPECT_EQ(document.kind, Json::Kind::kNull) << "reset on failure: " << text;
  return error;
}

TEST(JsonReader, ParsesEveryKindAndKeepsMemberOrder) {
  const Json document = parse_ok(
      " {\"b\": [1, -2.5e3, \"x\", true, false, null, {}, []],\r\n"
      "\t\"a\": {\"n\": 0}} ");
  ASSERT_EQ(document.kind, Json::Kind::kObject);
  ASSERT_EQ(document.members.size(), 2u);
  EXPECT_EQ(document.members[0].first, "b");
  EXPECT_EQ(document.members[1].first, "a");
  const Json& items = document.members[0].second;
  ASSERT_EQ(items.kind, Json::Kind::kArray);
  ASSERT_EQ(items.items.size(), 8u);
  EXPECT_EQ(items.items[0].number, 1.0);
  EXPECT_EQ(items.items[1].number, -2500.0);
  EXPECT_EQ(items.items[1].text, "-2.5e3");  // the lexeme as written
  EXPECT_EQ(items.items[2].text, "x");
  EXPECT_TRUE(items.items[3].boolean);
  EXPECT_EQ(items.items[4].kind, Json::Kind::kBoolean);
  EXPECT_FALSE(items.items[4].boolean);
  EXPECT_EQ(items.items[5].kind, Json::Kind::kNull);
  EXPECT_EQ(items.items[6].kind, Json::Kind::kObject);
  EXPECT_EQ(items.items[7].kind, Json::Kind::kArray);
  EXPECT_EQ(parse_ok("42").number, 42.0);
  EXPECT_EQ(parse_ok("\"s\"").text, "s");
}

TEST(JsonReader, RejectsMalformedDocumentsWithAnOffset) {
  EXPECT_EQ(parse_error(""), "unexpected end of input at offset 0");
  EXPECT_EQ(parse_error("{\"a\": 1,}"), "expected a member name at offset 8");
  EXPECT_EQ(parse_error("[1 2]"), "expected ',' or ']' at offset 3");
  EXPECT_EQ(parse_error("{\"a\" 1}"),
            "expected ':' after a member name at offset 5");
  EXPECT_EQ(parse_error("{} {}"),
            "trailing characters after the document at offset 3");
  EXPECT_EQ(parse_error("[tru]"), "unexpected character at offset 1");
  EXPECT_EQ(parse_error("[1.]"), "bad number at offset 1");
  EXPECT_EQ(parse_error("@"), "unexpected character at offset 0");
  parse_error("[-]");
  parse_error("[1e999]");   // overflows a double
  parse_error("[1e-400]");  // underflows to zero
  parse_error("{\"a\":1");
  parse_error("{\"a\":1 \"b\":2}");
  parse_error("{1:2}");
  // JSON whitespace is space, tab, CR, and LF only.
  parse_error("\v{}");
  parse_error("{}\f");
}

TEST(JsonReader, DepthIsCapped) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  parse_ok(nested(kJsonMaxDepth));
  EXPECT_EQ(parse_error(nested(kJsonMaxDepth + 1)),
            "nesting too deep at offset " + std::to_string(kJsonMaxDepth));
  parse_error(std::string(100000, '['));  // fails fast, no deep recursion
}

TEST(JsonReader, DecodesStringEscapes) {
  EXPECT_EQ(parse_ok(R"("\"\\\/\b\f\n\r\t")").text, "\"\\/\b\f\n\r\t");
  EXPECT_EQ(parse_ok(R"("A\u00e9\u20AC")").text, "A\xc3\xa9\xe2\x82\xac");
  // One UTF-16 unit at a time: each half of a surrogate pair keeps its own
  // three bytes.
  EXPECT_EQ(parse_ok(R"("\ud83d\ude00")").text,
            "\xed\xa0\xbd\xed\xb8\x80");
  EXPECT_EQ(parse_ok(R"("\ud83dx")").text, "\xed\xa0\xbdx");
  EXPECT_EQ(parse_error(R"("\q")"), "unknown escape at offset 2");
  EXPECT_EQ(parse_error(R"("\u12")"), "bad \\u escape at offset 2");
  EXPECT_EQ(parse_error(R"("\u12G4")"), "bad \\u escape at offset 2");
  parse_error(R"("\u+123")");
  parse_error(R"("\u-123")");
  EXPECT_EQ(parse_error("\"a\tb\""),
            "raw control character in a string at offset 2");
  EXPECT_EQ(parse_error("\"abc"), "unterminated string at offset 4");
  parse_error("\"abc\\");
}

TEST(JsonReader, EscaperOutputReadsBack) {
  std::string all;
  for (int byte = 1; byte < 256; ++byte) all += static_cast<char>(byte);
  EXPECT_EQ(parse_ok("\"" + json_escape(all) + "\"").text, all);
}

TEST(JsonReader, GetFollowsDottedPathsAndLastDuplicate) {
  const Json document =
      parse_ok(R"({"soak": {"qoe": 1, "qoe": 2, "list": [3]}, "x": 4})");
  EXPECT_EQ(document.get("soak.qoe").number, 2.0);
  EXPECT_EQ(document.get("x").number, 4.0);
  EXPECT_EQ(document.get("soak.list").kind, Json::Kind::kArray);
  // A missing step yields a null value.
  EXPECT_EQ(document.get("soak.missing").kind, Json::Kind::kNull);
  EXPECT_EQ(document.get("x.y").kind, Json::Kind::kNull);  // x: no members
  EXPECT_EQ(document.get("soak.list.0").kind, Json::Kind::kNull);
  EXPECT_EQ(document.get("soak.missing.deeper").number, 0.0);
}

TEST(JsonReader, ToU64ConvertsIntegerLexemesExactly) {
  const Json document = parse_ok(
      "[9007199254740993, 12345678901234567, 18446744073709551615, "
      "18446744073709551616, 1e3, 1.0, -0, -1, 1.5, 1e300, \"7\", 0]");
  const std::vector<Json>& items = document.items;
  std::uint64_t out = 0;
  ASSERT_TRUE(items[0].to_u64(out));
  EXPECT_EQ(out, 9007199254740993ull);
  ASSERT_TRUE(items[1].to_u64(out));
  EXPECT_EQ(out, 12345678901234567ull);
  ASSERT_TRUE(items[2].to_u64(out));
  EXPECT_EQ(out, std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(items[3].to_u64(out));  // 2^64
  ASSERT_TRUE(items[4].to_u64(out));
  EXPECT_EQ(out, 1000u);
  ASSERT_TRUE(items[5].to_u64(out));
  EXPECT_EQ(out, 1u);
  ASSERT_TRUE(items[6].to_u64(out));
  EXPECT_EQ(out, 0u);
  EXPECT_FALSE(items[7].to_u64(out));
  EXPECT_FALSE(items[8].to_u64(out));
  EXPECT_FALSE(items[9].to_u64(out));
  EXPECT_FALSE(items[10].to_u64(out));  // a string, not a number
  ASSERT_TRUE(items[11].to_u64(out));
  EXPECT_EQ(out, 0u);
}

}  // namespace
}  // namespace abr::util
