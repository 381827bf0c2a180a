// Fuzzes abrreport's journal-record rule (tools::parse_flat_json) and,
// under it, the shared util/json reader. Invariants: rejection always
// carries an error message; an accepted line holds only scalars and finite
// numbers (the strict JSON grammar bans NaN/Inf spellings) and reparses to
// the same object.

#include <cmath>
#include <cstdint>
#include <string>

#include "abrreport.hpp"
#include "fuzz_input.hpp"

using abr::tools::JsonObject;
using abr::tools::JsonValue;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string line(reinterpret_cast<const char*>(data), size);
  JsonObject object;
  std::string error;
  const bool ok = abr::tools::parse_flat_json(line, object, error);
  if (!ok) {
    ABR_FUZZ_REQUIRE(!error.empty());
    return 0;
  }
  ABR_FUZZ_REQUIRE(error.empty());
  for (const auto& [key, value] : object) {
    if (value.kind == JsonValue::Kind::kNumber) {
      ABR_FUZZ_REQUIRE(std::isfinite(value.number));
    }
  }

  JsonObject again;
  std::string error_again;
  ABR_FUZZ_REQUIRE(abr::tools::parse_flat_json(line, again, error_again));
  ABR_FUZZ_REQUIRE(again.size() == object.size());
  for (const auto& [key, value] : object) {
    const auto it = again.find(key);
    ABR_FUZZ_REQUIRE(it != again.end());
    ABR_FUZZ_REQUIRE(it->second.kind == value.kind);
    switch (value.kind) {
      case JsonValue::Kind::kString:
        ABR_FUZZ_REQUIRE(it->second.text == value.text);
        break;
      case JsonValue::Kind::kNumber:
        ABR_FUZZ_REQUIRE(it->second.number == value.number);
        break;
      case JsonValue::Kind::kBoolean:
        ABR_FUZZ_REQUIRE(it->second.boolean == value.boolean);
        break;
      default:
        ABR_FUZZ_REQUIRE_MSG(false, "a journal record holds scalars only");
    }
  }
  return 0;
}
