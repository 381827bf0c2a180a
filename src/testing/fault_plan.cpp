#include "testing/fault_plan.hpp"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/json.hpp"
#include "util/rng.hpp"

namespace abr::testing {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kLatencySpike: return "latency_spike";
    case FaultKind::kStall: return "stall";
    case FaultKind::kPartialBody: return "partial_body";
    case FaultKind::kReset: return "reset";
    case FaultKind::kHttpError: return "http_error";
  }
  return "unknown";
}

double FaultPlan::total_rate() const {
  return latency_rate + stall_rate + partial_rate + reset_rate +
         http_error_rate;
}

void FaultPlan::validate() const {
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("FaultPlan: ") + what);
  };
  for (const double rate : {latency_rate, stall_rate, partial_rate, reset_rate,
                            http_error_rate}) {
    require(rate >= 0.0 && rate <= 1.0, "rates must be in [0, 1]");
  }
  require(total_rate() <= 1.0 + 1e-12, "rates must sum to at most 1");
  require(latency_min_s > 0.0 && latency_min_s <= latency_max_s,
          "latency range must satisfy 0 < min <= max");
  require(stall_min_s > 0.0 && stall_min_s <= stall_max_s,
          "stall range must satisfy 0 < min <= max");
  require(http_status >= 500 && http_status <= 599,
          "http_status must be a 5xx code");
  require(error_response_s > 0.0, "error_response_s must be positive");
  require(reset_delay_s > 0.0, "reset_delay_s must be positive");
}

FaultDecision FaultPlan::decide(std::size_t chunk, std::size_t attempt) const {
  FaultDecision decision;
  if (attempt >= max_faulty_attempts) return decision;

  // One independent, reproducible stream per (chunk, attempt): the Rng's
  // splitmix seeding decorrelates the nearby keys.
  util::Rng rng(seed ^ (static_cast<std::uint64_t>(chunk) *
                            0xBF58476D1CE4E5B9ULL +
                        (static_cast<std::uint64_t>(attempt) + 1) *
                            0x94D049BB133111EBULL));
  double u = rng.uniform();
  if (u < latency_rate) {
    decision.kind = FaultKind::kLatencySpike;
    decision.latency_s = rng.uniform(latency_min_s, latency_max_s);
    return decision;
  }
  u -= latency_rate;
  if (u < stall_rate) {
    decision.kind = FaultKind::kStall;
    decision.stall_s = rng.uniform(stall_min_s, stall_max_s);
    decision.body_fraction = rng.uniform(0.1, 0.9);
    return decision;
  }
  u -= stall_rate;
  if (u < partial_rate) {
    decision.kind = FaultKind::kPartialBody;
    decision.body_fraction = rng.uniform(0.1, 0.9);
    return decision;
  }
  u -= partial_rate;
  if (u < reset_rate) {
    decision.kind = FaultKind::kReset;
    return decision;
  }
  u -= reset_rate;
  if (u < http_error_rate) {
    decision.kind = FaultKind::kHttpError;
    return decision;
  }
  return decision;
}

namespace {

/// The double-valued fields by JSON name, in to_json order.
constexpr std::pair<const char*, double FaultPlan::*> kDoubleFields[] = {
    {"latency_rate", &FaultPlan::latency_rate},
    {"stall_rate", &FaultPlan::stall_rate},
    {"partial_rate", &FaultPlan::partial_rate},
    {"reset_rate", &FaultPlan::reset_rate},
    {"http_error_rate", &FaultPlan::http_error_rate},
    {"latency_min_s", &FaultPlan::latency_min_s},
    {"latency_max_s", &FaultPlan::latency_max_s},
    {"stall_min_s", &FaultPlan::stall_min_s},
    {"stall_max_s", &FaultPlan::stall_max_s},
    {"error_response_s", &FaultPlan::error_response_s},
    {"reset_delay_s", &FaultPlan::reset_delay_s},
};

}  // namespace

std::string FaultPlan::to_json() const {
  std::string out = "{\n  \"seed\": " + std::to_string(seed);
  for (const auto& [key, field] : kDoubleFields) {
    out += ",\n  \"" + std::string(key) + "\": " +
           util::json_number(this->*field);
  }
  out += ",\n  \"http_status\": " + std::to_string(http_status);
  out += ",\n  \"max_faulty_attempts\": " +
         std::to_string(max_faulty_attempts);
  return out + "\n}\n";
}

FaultPlan FaultPlan::from_json(std::string_view json) {
  util::Json document;
  std::string error;
  if (!util::parse_json(json, document, error)) {
    throw std::invalid_argument("FaultPlan JSON: " + error);
  }
  if (document.kind != util::Json::Kind::kObject) {
    throw std::invalid_argument("FaultPlan JSON: expected an object");
  }
  FaultPlan plan;
  for (const auto& [key, value] : document.members) {
    const auto bad = [&key](const char* what) {
      return std::invalid_argument("FaultPlan JSON: " + std::string(what) +
                                   " '" + key + "'");
    };
    if (value.kind != util::Json::Kind::kNumber) {
      throw bad("expected a number for");
    }
    double* field = nullptr;
    for (const auto& [name, member] : kDoubleFields) {
      if (key == name) field = &(plan.*member);
    }
    // Integer fields convert from the lexeme: a fractional, negative, or
    // out-of-range value is malformed input, not a silent truncation, and a
    // seed above 2^53 keeps every digit.
    std::uint64_t integer = 0;
    if (field != nullptr) {
      *field = value.number;
    } else if (key == "seed") {
      if (!value.to_u64(plan.seed)) throw bad("value out of range for");
    } else if (key == "http_status") {
      if (!value.to_u64(integer) ||
          integer > static_cast<std::uint64_t>(
                        std::numeric_limits<int>::max())) {
        throw bad("value out of range for");
      }
      plan.http_status = static_cast<int>(integer);
    } else if (key == "max_faulty_attempts") {
      if (!value.to_u64(integer) ||
          static_cast<std::size_t>(integer) != integer) {
        throw bad("value out of range for");
      }
      plan.max_faulty_attempts = static_cast<std::size_t>(integer);
    } else {
      throw bad("unknown key");
    }
  }
  plan.validate();
  return plan;
}

FaultPlan FaultPlan::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("FaultPlan: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_json(buffer.str());
}

}  // namespace abr::testing
