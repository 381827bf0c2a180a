#pragma once

#include <cstdint>
#include <string_view>

namespace abr::util {

/// Checked conversions between doubles and the integer types the flat-JSON
/// parsers deserialize into. Every JSON number arrives as a double; casting
/// it to an integer type without a range check is undefined behaviour when
/// the value is NaN, infinite, or outside the destination range
/// (`static_cast<uint64_t>(1e300)` is UB, not saturation). These helpers
/// reject NaN/Inf, fractional values, and anything outside the destination
/// range, so callers can route bad numbers down the same malformed-input
/// path as a syntax error.

/// Converts `value` to uint64_t. Returns false (leaving `out` untouched)
/// unless `value` is finite, integral, and in [0, 2^64).
bool u64_from_double(double value, std::uint64_t& out);

/// Converts `value` to size_t. Returns false unless `value` is finite,
/// integral, and in [0, SIZE_MAX].
bool size_from_double(double value, std::size_t& out);

/// Parses a non-negative integer out of `text` into uint64_t; returns false
/// on malformed input, trailing garbage, or overflow (std::from_chars under
/// the hood — never wraps, never throws).
bool parse_u64(std::string_view text, std::uint64_t& out);

/// Parses a finite double; returns false on malformed input, trailing
/// garbage, overflow, or the "nan"/"inf" spellings plain parse_double (via
/// std::from_chars) accepts.
bool parse_finite_double(std::string_view text, double& out);

/// True if `text` matches the strict JSON number grammar
/// (`-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`). Rejects the
/// NaN/Inf/hex spellings that strtod-family parsers accept.
bool is_json_number(std::string_view text);

}  // namespace abr::util
