#include "util/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "util/checked_parse.hpp"
#include "util/strings.hpp"

namespace abr::util {

std::string json_escape(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\t') {
      out += "\\t";
    } else if (byte < 0x20) {
      out += "\\u00";
      out += kHex[byte >> 4];
      out += kHex[byte & 0xF];
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  char* const end = buffer + sizeof(buffer);
  if (value == std::floor(value) && std::fabs(value) < 9007199254740992.0) {
    const auto integer = static_cast<long long>(value);
    return std::string(buffer, std::to_chars(buffer, end, integer).ptr);
  }
  // Normal values start at 15: %g strips trailing zeros, so a shorter
  // round-tripping string is what the 15-digit rendering collapses to.
  // Subnormals (huge ulps) search from 1. Plain shortest to_chars would
  // differ in spelling ("1e-04" for 0.0001) and in digits.
  const int first_precision =
      std::fabs(value) >= 2.2250738585072014e-308 ? 15 : 1;
  constexpr auto kGeneral = std::chars_format::general;
  char* last = buffer;
  for (int precision = first_precision; precision <= 17; ++precision) {
    last = std::to_chars(buffer, end, value, kGeneral, precision).ptr;
    double parsed = 0.0;
    std::from_chars(buffer, last, parsed);
    if (parsed == value) break;
  }
  return std::string(buffer, last);
}

const Json& Json::get(std::string_view path) const {
  static const Json kMissing;
  const Json* node = this;
  for (const std::string_view name : split(path, '.')) {
    const Json* next = &kMissing;
    for (const auto& [key, value] : node->members) {
      if (key == name) next = &value;
    }
    node = next;
  }
  return *node;
}

bool Json::to_u64(std::uint64_t& out) const {
  if (kind != Kind::kNumber) return false;
  if (text.find_first_not_of("0123456789") == std::string::npos) {
    return parse_u64(text, out);
  }
  return u64_from_double(number, out);
}

namespace {

/// Recursive descent over one document; `depth` counts open containers.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool document(Json& out) {
    if (!value(out, 0)) return false;
    skip_space();
    return pos_ == text_.size() ||
           fail("trailing characters after the document");
  }

  std::string error;

 private:
  bool fail(std::string_view what) {
    error = std::string(what) + " at offset " + std::to_string(pos_);
    return false;
  }
  bool next_is(char c) const { return pos_ < text_.size() && text_[pos_] == c; }
  bool consume(char c) {
    if (!next_is(c)) return false;
    ++pos_;
    return true;
  }
  /// Moves pos_ past characters in `set`.
  void skip(std::string_view set) {
    pos_ = std::min(text_.find_first_not_of(set, pos_), text_.size());
  }
  void skip_space() { skip(" \t\n\r"); }

  bool value(Json& out, int depth) {
    skip_space();
    if (pos_ == text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return container(out, depth + 1, Json::Kind::kObject, '}');
      case '[':
        return container(out, depth + 1, Json::Kind::kArray, ']');
      case '"':
        out.kind = Json::Kind::kString;
        return string(out.text);
      case 't':
        return literal(out, "true", Json::Kind::kBoolean);
      case 'f':
        return literal(out, "false", Json::Kind::kBoolean);
      case 'n':
        return literal(out, "null", Json::Kind::kNull);
      default:
        return number(out);
    }
  }

  /// An object or array; the opening bracket is at pos_.
  bool container(Json& out, int depth, Json::Kind kind, char close) {
    if (depth > kJsonMaxDepth) return fail("nesting too deep");
    ++pos_;
    out.kind = kind;
    skip_space();
    if (consume(close)) return true;
    while (true) {
      Json* slot = nullptr;
      if (kind == Json::Kind::kObject) {
        skip_space();
        if (!next_is('"')) return fail("expected a member name");
        std::string name;
        if (!string(name)) return false;
        skip_space();
        if (!consume(':')) return fail("expected ':' after a member name");
        slot = &out.members.emplace_back(std::move(name), Json{}).second;
      } else {
        slot = &out.items.emplace_back();
      }
      if (!value(*slot, depth)) return false;
      skip_space();
      if (consume(',')) continue;
      if (consume(close)) return true;
      return fail(kind == Json::Kind::kObject ? "expected ',' or '}'"
                                              : "expected ',' or ']'");
    }
  }

  bool literal(Json& out, std::string_view word, Json::Kind kind) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail("unexpected character");
    }
    pos_ += word.size();
    out.kind = kind;
    out.boolean = word == "true";
    return true;
  }

  bool number(Json& out) {
    // Take the maximal run of number characters, then hold it to the
    // strict grammar: a valid document never follows a number with one of
    // these, so the run is exactly the lexeme whenever the input is valid,
    // and "NaN", "1e999", "007" or "+1" fail as one bad token.
    const std::size_t start = pos_;
    skip("0123456789+-.eE");
    const std::string_view lexeme = text_.substr(start, pos_ - start);
    pos_ = start;
    if (lexeme.empty()) return fail("unexpected character");
    if (!is_json_number(lexeme) || !parse_double(lexeme, out.number)) {
      return fail("bad number");
    }
    pos_ += lexeme.size();
    out.kind = Json::Kind::kNumber;
    out.text = lexeme;
    return true;
  }

  /// A string literal; the opening quote is at pos_.
  bool string(std::string& out) {
    static constexpr std::string_view kEscapes = "\"\\/bfnrt";
    static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
    for (++pos_; pos_ < text_.size(); ++pos_) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in a string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (++pos_ == text_.size()) break;
      const std::size_t escape = kEscapes.find(text_[pos_]);
      if (text_[pos_] == 'u') {
        if (!unicode_escape(out)) return false;
      } else if (escape != std::string_view::npos) {
        out += kDecoded[escape];
      } else {
        return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  /// A \u escape (pos_ on the 'u') appended as UTF-8, one UTF-16 unit at
  /// a time, so a surrogate pair becomes two three-byte sequences (journal
  /// strings only ever escape ASCII control characters). pos_ moves onto
  /// the last hex digit.
  bool unicode_escape(std::string& out) {
    const std::string_view hex = text_.substr(pos_ + 1, 4);
    unsigned code = 0;
    const auto [ptr, ec] =
        std::from_chars(hex.data(), hex.data() + hex.size(), code, 16);
    if (ec != std::errc() || ptr - hex.data() != 4) {
      return fail("bad \\u escape");
    }
    pos_ += 4;
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool parse_json(std::string_view text, Json& out, std::string& error) {
  Parser parser(text);
  out = Json{};
  const bool ok = parser.document(out);
  if (!ok) out = Json{};
  error = std::move(parser.error);
  return ok;
}

}  // namespace abr::util
