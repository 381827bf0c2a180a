#include "util/checked_parse.hpp"

#include <charconv>
#include <cmath>
#include <cstddef>
#include <limits>

#include "util/strings.hpp"

namespace abr::util {

namespace {

// 2^64 is exactly representable as a double; the half-open upper bound
// avoids the classic `value <= UINT64_MAX` trap (UINT64_MAX rounds up to
// 2^64 as a double, so that comparison admits an out-of-range value).
constexpr double kTwo64 = 18446744073709551616.0;

bool is_integral_finite(double value) {
  return std::isfinite(value) && std::floor(value) == value;
}

}  // namespace

bool u64_from_double(double value, std::uint64_t& out) {
  if (!is_integral_finite(value) || value < 0.0 || value >= kTwo64) {
    return false;
  }
  out = static_cast<std::uint64_t>(value);
  return true;
}

bool size_from_double(double value, std::size_t& out) {
  std::uint64_t wide = 0;
  if (!u64_from_double(value, wide) ||
      wide > std::numeric_limits<std::size_t>::max()) {
    return false;
  }
  out = static_cast<std::size_t>(wide);
  return true;
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) return false;
  out = value;
  return true;
}

bool parse_finite_double(std::string_view text, double& out) {
  double value = 0.0;
  if (!parse_double(text, value) || !std::isfinite(value)) return false;
  out = value;
  return true;
}

bool is_json_number(std::string_view text) {
  std::size_t i = 0;
  const std::size_t n = text.size();
  if (i < n && text[i] == '-') ++i;
  // Integer part: "0" or nonzero digit followed by digits.
  if (i >= n || text[i] < '0' || text[i] > '9') return false;
  if (text[i] == '0') {
    ++i;
  } else {
    while (i < n && text[i] >= '0' && text[i] <= '9') ++i;
  }
  if (i < n && text[i] == '.') {
    ++i;
    if (i >= n || text[i] < '0' || text[i] > '9') return false;
    while (i < n && text[i] >= '0' && text[i] <= '9') ++i;
  }
  if (i < n && (text[i] == 'e' || text[i] == 'E')) {
    ++i;
    if (i < n && (text[i] == '+' || text[i] == '-')) ++i;
    if (i >= n || text[i] < '0' || text[i] > '9') return false;
    while (i < n && text[i] >= '0' && text[i] <= '9') ++i;
  }
  return i == n;
}

}  // namespace abr::util
