// Program-variant composition: applies the selected software/algorithm
// techniques to a benchmark in the paper's top-down order (Fig. 6):
// algorithm (ABFT) first, then EDDI, assertions, CFCSS, and finally DFC
// signature embedding over the laid-out code.
//
// Pass ordering is load-bearing (register discipline):
//   r15 - transient scratch shared by EDDI readback and assertion checks
//   r16 - CFCSS adjusting signature (exclusive)
//   r31 - CFCSS signature register (exclusive)
//   r17..r30 - EDDI shadow registers
#ifndef CLEAR_CORE_VARIANTS_H
#define CLEAR_CORE_VARIANTS_H

#include <cstdint>
#include <string>

#include "isa/program.h"
#include "workloads/workloads.h"

namespace clear::core {

struct Variant {
  bool eddi = false;
  bool eddi_readback = true;  // store-readback on by default [Lin 14]
  bool assertions = false;
  bool assert_data = true;     // Table 10 splits data vs control checks
  bool assert_control = true;
  bool cfcss = false;
  bool dfc = false;
  bool monitor = false;  // hardware technique: no program change
  workloads::AbftKind abft = workloads::AbftKind::kNone;

  // Stable cache-key component describing this variant.
  [[nodiscard]] std::string key() const;

  static Variant base() { return {}; }
};

// Builds the fully transformed, assembled program for `benchmark`.
// Assertion training runs input seeds {input_seed, input_seed+1,
// input_seed+2} (the evaluation input is part of training, eliminating
// false positives exactly as the paper does).
// For ABFT variants, the benchmark must support the requested kind.
[[nodiscard]] isa::Program build_variant_program(const std::string& benchmark,
                                                 const Variant& variant,
                                                 std::uint32_t input_seed = 0);

}  // namespace clear::core

#endif  // CLEAR_CORE_VARIANTS_H
