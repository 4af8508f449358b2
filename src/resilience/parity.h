// Logic-parity group formation heuristics (paper Sec. 2.4, Table 7).
//
// Given the set of flip-flops to protect with parity, these heuristics
// decide which flip-flops share a checker:
//   * kGroupSize    - cluster in registration order into 2^k-sized groups
//   * kVulnerability- sort by measured per-FF vulnerability first
//   * kLocality     - group within functional units (structure-name
//                     prefixes), reducing predictor/checker wiring
//   * kTiming       - sort by available timing slack first
//   * kOptimized    - the paper's Fig. 3 flow: 32-bit unpipelined groups
//                     where slack allows, 16-bit pipelined otherwise,
//                     locality-ordered
// All groups obey the SEMU minimum-spacing constraint through interleaved
// placement (phys::PhysModel enforces/report this, Table 6).
#ifndef CLEAR_RESILIENCE_PARITY_H
#define CLEAR_RESILIENCE_PARITY_H

#include <cstdint>
#include <string>
#include <vector>

#include "phys/phys.h"

namespace clear::resilience {

enum class ParityHeuristic : std::uint8_t {
  kGroupSize,
  kVulnerability,
  kLocality,
  kTiming,
  kOptimized,
};

// Builds a parity plan for `ffs` (indices into the registry of the core
// `model` was built for).
//   vulnerability - per-FF error counts (only used by kVulnerability;
//                   may be empty otherwise)
//   group_bits    - group size for the fixed-size heuristics (4..32);
//                   kOptimized ignores it (Fig. 3 picks 32/16)
[[nodiscard]] phys::ParityPlan build_parity_plan(
    const phys::PhysModel& model, const std::vector<std::uint32_t>& ffs,
    ParityHeuristic heuristic, std::size_t group_bits = 16,
    const std::vector<double>& vulnerability = {});

}  // namespace clear::resilience

#endif  // CLEAR_RESILIENCE_PARITY_H
