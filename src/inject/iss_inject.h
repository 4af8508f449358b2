// Architecture-register and program-variable level error injection.
//
// The paper (Tables 11 and 14, after [Cho 13]) shows that naive high-level
// injection -- flipping architectural registers or program variables
// instead of flip-flops -- systematically mis-estimates the improvement of
// software resilience techniques.  These injectors reproduce the four
// high-level models on the ISS:
//
//   regU - uniform over (dynamic instruction, architectural register, bit)
//   regW - uniform over register-write events (flip the written value)
//   varU - uniform over (dynamic instruction, data-segment word, bit)
//   varW - uniform over store events (flip the stored word)
#ifndef CLEAR_INJECT_ISS_INJECT_H
#define CLEAR_INJECT_ISS_INJECT_H

#include <cstdint>

#include "inject/outcome.h"
#include "isa/program.h"

namespace clear::inject {

enum class InjectLevel : std::uint8_t {
  kRegUniform,
  kRegWrite,
  kVarUniform,
  kVarWrite,
};

// Runs an n-injection campaign at the given level; deterministic in seed.
[[nodiscard]] OutcomeCounts run_iss_campaign(const isa::Program& prog,
                                             InjectLevel level, std::size_t n,
                                             std::uint64_t seed);

}  // namespace clear::inject

#endif  // CLEAR_INJECT_ISS_INJECT_H
