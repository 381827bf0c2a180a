#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

// The repository's one JSON layer: writers concatenate json_number and
// json_escape output in their own layout; readers use parse_json.
namespace abr::util {

/// Escapes `text` for a JSON string literal: `"` and `\` get a backslash,
/// \n \r \t their short forms, other bytes below 0x20 \u00xx; all other
/// bytes (UTF-8 included) pass through.
std::string json_escape(std::string_view text);

/// Deterministic JSON number; "null" for NaN and infinities. Integral
/// values below 2^53 print as integers ("350"). Any other value prints as
/// printf's %.{P}g for the least P that reads back as the same double,
/// searching P upward from 15 (from 1 for subnormals) to 17. That is not
/// always the shortest round-tripping text: 2^-24 gets 17 digits although
/// 16 round-trip. Same double in, same bytes out.
std::string json_number(double value);

/// Containers nested deeper than this are rejected, not recursed into.
inline constexpr int kJsonMaxDepth = 64;

/// One parsed JSON value.
struct Json {
  enum class Kind { kNull, kBoolean, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;  ///< kNumber: the value, always finite; else 0
  /// kString: the decoded text. kNumber: the lexeme as written.
  std::string text;
  std::vector<Json> items;  ///< kArray elements
  /// kObject members in document order, repeated names included.
  std::vector<std::pair<std::string, Json>> members;

  /// The value at a dot-separated path of member names ("soak.qoe_sum"), or
  /// a null value when a step is missing. A repeated name resolves to its
  /// last occurrence.
  const Json& get(std::string_view path) const;

  /// Exact unsigned conversion of a number: a lexeme of plain digits
  /// converts digit for digit (2^53 + 1 stays odd, 2^64 fails); any other
  /// lexeme ("1e3", "-1", "1.5") must hold an integral double in [0, 2^64).
  bool to_u64(std::uint64_t& out) const;
};

/// Parses one complete JSON document (RFC 8259: whitespace is space, tab,
/// CR and LF; no raw control characters in strings). Numbers must match
/// the strict JSON grammar and fit a finite double. On malformed input
/// returns false, resets `out`, and sets `error` (with the byte offset).
bool parse_json(std::string_view text, Json& out, std::string& error);

}  // namespace abr::util
