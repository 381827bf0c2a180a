// Fuzzes FaultPlan's flat-JSON loader and the seeded decide() schedule.
//
// Invariants on an accepted plan: validate() holds, decide() is a pure
// function of (seed, chunk, attempt), the attempt cap is respected, and
// to_json -> from_json -> to_json is a fixed point (integer fields print
// and load digit for digit, and every double prints in a form that reads
// back as the same double, so one round closes the loop).

#include <cstdint>
#include <stdexcept>
#include <string>

#include "fuzz_input.hpp"
#include "testing/fault_plan.hpp"

using abr::testing::FaultDecision;
using abr::testing::FaultKind;
using abr::testing::FaultPlan;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string json(reinterpret_cast<const char*>(data), size);
  FaultPlan plan;
  try {
    plan = FaultPlan::from_json(json);
  } catch (const std::invalid_argument&) {
    return 0;  // malformed input: the expected rejection path
  }

  plan.validate();  // from_json validated; must not throw now

  for (const std::size_t chunk : {std::size_t{0}, std::size_t{3}}) {
    for (const std::size_t attempt :
         {std::size_t{0}, std::size_t{1}, plan.max_faulty_attempts}) {
      const FaultDecision first = plan.decide(chunk, attempt);
      const FaultDecision second = plan.decide(chunk, attempt);
      ABR_FUZZ_REQUIRE(first.kind == second.kind);
      ABR_FUZZ_REQUIRE(first.latency_s == second.latency_s);
      ABR_FUZZ_REQUIRE(first.stall_s == second.stall_s);
      ABR_FUZZ_REQUIRE(first.body_fraction == second.body_fraction);
      if (attempt >= plan.max_faulty_attempts) {
        ABR_FUZZ_REQUIRE(first.kind == FaultKind::kNone);
      }
    }
  }

  const std::string serialized = plan.to_json();
  const FaultPlan reparsed = FaultPlan::from_json(serialized);
  ABR_FUZZ_REQUIRE(reparsed.to_json() == serialized);
  return 0;
}
