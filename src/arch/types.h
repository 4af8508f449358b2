// Shared types between the processor models and the resilience layer.
#ifndef CLEAR_ARCH_TYPES_H
#define CLEAR_ARCH_TYPES_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "isa/iss.h"

namespace clear::arch {

// Per-flip-flop protection assignment (circuit/logic layer techniques).
enum class FFProt : std::uint8_t {
  kNone,
  kLeapDice,      // hardened, SER 2.0e-4 of baseline (Table 4)
  kLhl,           // Light Hardened LEAP, SER 2.5e-1
  kLeapCtrlEco,   // LEAP-ctrl in economy mode, SER 1.0 (unprotected)
  kLeapCtrlRes,   // LEAP-ctrl in resilient mode, SER 2.0e-4
  kEds,           // Error Detection Sequential: detects the upset in-cycle
  kParity,        // member of a logic-parity group: detected next cycle
};

// Hardware recovery techniques (Table 15).
enum class RecoveryKind : std::uint8_t {
  kNone,
  kFlush,  // InO: squash pre-memory pipeline stages and refetch (7 cycles)
  kRob,    // OoO: squash speculative state, restart at commit PC (64 cycles)
  kIr,     // instruction replay: checkpoint rollback (47 / 104 cycles)
  kEir,    // IR extended with DFC replay buffers (same latency)
};

[[nodiscard]] constexpr const char* recovery_name(RecoveryKind k) noexcept {
  switch (k) {
    case RecoveryKind::kNone: return "none";
    case RecoveryKind::kFlush: return "flush";
    case RecoveryKind::kRob: return "RoB";
    case RecoveryKind::kIr: return "IR";
    case RecoveryKind::kEir: return "EIR";
  }
  return "?";
}

// Complete in-simulator resilience configuration for a run.
struct ResilienceConfig {
  std::vector<FFProt> prot;           // per-FF; empty = all kNone
  std::vector<std::int32_t> parity_group;  // per-FF group id; -1 = none
  bool dfc = false;      // DFC signature checker hardware active
  bool monitor = false;  // monitor (checker) core active (OoO only)
  RecoveryKind recovery = RecoveryKind::kNone;

  [[nodiscard]] FFProt prot_of(std::uint32_t ff) const noexcept {
    return ff < prot.size() ? prot[ff] : FFProt::kNone;
  }
  [[nodiscard]] std::int32_t group_of(std::uint32_t ff) const noexcept {
    return ff < parity_group.size() ? parity_group[ff] : -1;
  }
};

// Soft errors to apply during a run.  Single-event upsets carry one flip;
// single-event multiple upsets (SEMUs) carry several flips with the same
// cycle (adjacent flip-flops struck by one particle).
struct InjectionPlan {
  struct Flip {
    std::uint64_t cycle = 0;
    std::uint32_t ff = 0;
  };
  std::vector<Flip> flips;

  static InjectionPlan single(std::uint64_t cycle, std::uint32_t ff) {
    InjectionPlan p;
    p.flips.push_back({cycle, ff});
    return p;
  }
};

// Arms a plan for a run segment starting at `from_cycle`: flips sorted by
// cycle, with those scheduled earlier dropped (they can no longer occur).
// Shared by the cores' reset() (from_cycle 0) and restore() paths so both
// agree on ordering and the drop rule.
[[nodiscard]] inline std::vector<InjectionPlan::Flip> armed_flips(
    const InjectionPlan* plan, std::uint64_t from_cycle) {
  std::vector<InjectionPlan::Flip> flips;
  if (plan == nullptr) return flips;
  flips = plan->flips;
  std::sort(flips.begin(), flips.end(),
            [](const InjectionPlan::Flip& l, const InjectionPlan::Flip& r) {
              return l.cycle < r.cycle;
            });
  auto first = flips.begin();
  while (first != flips.end() && first->cycle < from_cycle) ++first;
  flips.erase(flips.begin(), first);
  return flips;
}

// What the detection logic observed during a run.
enum class DetectionSource : std::uint8_t {
  kNone,
  kEds,
  kParity,
  kDfc,
  kMonitor,
  kSoftware,  // DET instruction committed (EDDI/CFCSS/assertions/ABFT-detect)
};

// A detection event latched by checker hardware but not yet acted upon
// (EDS/parity fire in-cycle, DFC one cycle after the failing sigchk).
// Part of a core's serializable execution state.
struct PendingDetection {
  std::uint64_t due = 0;         // cycle at which recovery/ED engages
  std::uint64_t flip_cycle = 0;  // cycle of the causing upset (IR target)
  DetectionSource src = DetectionSource::kNone;
  std::uint32_t ff = 0;
};

struct CoreRunResult {
  isa::RunStatus status = isa::RunStatus::kRunning;
  isa::Trap trap = isa::Trap::kNone;
  std::int32_t exit_code = 0;
  std::int32_t det_id = 0;
  std::uint64_t cycles = 0;
  std::uint64_t instrs = 0;  // committed instructions
  std::vector<std::uint32_t> output;
  // Detection/recovery bookkeeping.
  DetectionSource detected_by = DetectionSource::kNone;
  std::uint32_t recoveries = 0;  // successful hardware recoveries
};

}  // namespace clear::arch

#endif  // CLEAR_ARCH_TYPES_H
