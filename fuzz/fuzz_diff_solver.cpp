// Differential fuzzer: exact branch-and-bound (HorizonSolver) vs. exhaustive
// enumeration (testing::exhaustive_reference) on the same decoded
// HorizonProblem.
//
// Oracle: the cold branch-and-bound solve, and the solve seeded with the
// decoded warm hint when there is one, return the enumeration's levels and
// objective, compared with `==`. The reference scores every one of the
// levels^N plans with the solver's own arithmetic and tie-break, so no gap
// is allowed and no plan can beat the answer.

#include <cstddef>
#include <cstdint>

#include "core/horizon_solver.hpp"
#include "fuzz_input.hpp"
#include "solver_instance.hpp"
#include "testing/solver_oracle.hpp"

using abr::core::HorizonProblem;
using abr::core::HorizonSolution;
using abr::core::HorizonSolver;

namespace {

void require_equal(const HorizonSolution& reference,
                   const HorizonSolution& solved) {
  ABR_FUZZ_REQUIRE_MSG(solved.levels == reference.levels,
                       "branch-and-bound levels != exhaustive optimum");
  ABR_FUZZ_REQUIRE_MSG(solved.objective == reference.objective,
                       "branch-and-bound objective != exhaustive optimum");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  abr::fuzz::FuzzInput in(data, size);
  abr::fuzz::SolverInstance inst;
  abr::fuzz::decode_solver_instance(in, inst);

  const HorizonSolution reference = abr::testing::exhaustive_reference(
      inst.manifest, inst.model, inst.problem);
  const HorizonSolver bnb(inst.manifest, inst.model);

  HorizonProblem cold = inst.problem;
  cold.warm_hint = {};
  require_equal(reference, bnb.solve(cold));
  if (!inst.problem.warm_hint.empty()) {
    require_equal(reference, bnb.solve(inst.problem));
  }
  return 0;
}
