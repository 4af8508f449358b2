// Selective protection of flip-flops: the paper's Fig. 7 flow with
// Heuristic 1, plus cost evaluation against the physical-design model.
//
// The selector consumes a vulnerability profile (per-FF error counts from
// injection campaigns, possibly of a software/algorithm-transformed
// program), ranks flip-flops by measured vulnerability, and protects them
// one at a time -- choosing LEAP-DICE vs parity vs EDS per Heuristic 1 --
// until the gamma-corrected SDC/DUE improvement target is met.  Residual
// error masses compose analytically:
//   LEAP-DICE            : counts x 2e-4 (Table 4 SER ratio)
//   parity/EDS + recovery: 0 (detected in-cycle, repaired)
//   parity/EDS, no rec.  : SDC -> 0, DUE -> all strikes (every detection
//                          without recovery is a DUE; Table 17's 0.1x DUE)
#ifndef CLEAR_CORE_SELECTION_H
#define CLEAR_CORE_SELECTION_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/types.h"
#include "core/session.h"
#include "phys/phys.h"

namespace clear::core {

// Which tunable low-level techniques the combination may use.  Heuristic 1
// preference order given the available set: parity where timing slack
// allows a 32-bit XOR tree, EDS where it doesn't, LEAP-DICE for flip-flops
// that flush/RoB recovery cannot repair (and as the general fallback).
struct Palette {
  bool dice = false;
  bool parity = false;
  bool eds = false;

  [[nodiscard]] bool any() const noexcept { return dice || parity || eds; }

  static constexpr Palette dice_only() { return {true, false, false}; }
  static constexpr Palette parity_only() { return {false, true, false}; }
  static constexpr Palette eds_only() { return {false, false, true}; }
  static constexpr Palette dice_parity() { return {true, true, false}; }
  static constexpr Palette eds_dice_parity() { return {true, true, true}; }
  static constexpr Palette none() { return {false, false, false}; }
};

enum class Metric : std::uint8_t { kSdc, kDue, kJoint };

// The metric's flag and report token: "sdc", "due" or "joint" ("?" for a
// value outside the enum, e.g. a ledger field written by a newer tool).
[[nodiscard]] const char* metric_token(Metric m) noexcept;
// Inverse of metric_token; false on any other text.
[[nodiscard]] bool parse_metric(const std::string& text, Metric* out);

struct SelectionSpec {
  Palette palette = Palette::dice_parity();
  Metric metric = Metric::kSdc;
  // Improvement target; <= 0 selects the "max" point (protect every FF).
  double target = 50.0;
  arch::RecoveryKind recovery = arch::RecoveryKind::kFlush;
  Variant variant;        // software/algorithm layers applied beneath
  bool lhl_backfill = false;  // Sec. 4: LHL on all unprotected FFs
  bool use_leap_ctrl = false; // Sec. 3.2.1: LEAP-ctrl for ABFT-covered FFs
};

struct CostReport {
  bool target_met = true;
  double area = 0.0;
  double power = 0.0;
  double energy = 0.0;
  double exec = 0.0;
  double gamma = 1.0;
  double ff_delta = 0.0;
  Improvement imp;                 // vs the unprotected base design
  double sdc_protected_frac = 0.0; // Fig. 1d x-axis
  double rel_stddev = 0.0;         // SP&R artifact band across benchmarks
  std::size_t n_dice = 0;
  std::size_t n_parity = 0;
  std::size_t n_eds = 0;
  std::size_t n_lhl = 0;
  std::size_t n_ctrl = 0;
  std::vector<arch::FFProt> prot;
  phys::ParityPlan parity_plan;
};

// evaluate() and evaluate_cost_greedy() collect missing profiles through
// the session; everything else is const and safe to share across threads.
class Selector {
 public:
  explicit Selector(Session& session);
  ~Selector();

  [[nodiscard]] const phys::PhysModel& model() const noexcept {
    return *model_;
  }

  // Full Fig. 7 evaluation: select, cost, gamma-corrected improvements.
  CostReport evaluate(const SelectionSpec& spec);

  // Evaluation against an explicit profile pair (Sec. 4 train/validate:
  // select on `train`, then measure the same protection choice on
  // `validate`).  base gives the unprotected reference masses.  Read-only:
  // one Selector may serve any number of threads at once.
  [[nodiscard]] CostReport evaluate_with_profiles(
      const SelectionSpec& spec, const ProfileSet& base,
      const ProfileSet& train, const ProfileSet& validate) const;

  // Ablation: replace the vulnerability-ordered greedy of Fig. 7 with a
  // cost-effectiveness-ordered greedy (error mass removed per unit energy).
  CostReport evaluate_cost_greedy(const SelectionSpec& spec);

  // In-simulator configuration realizing a report's protection choice
  // (used by integration tests to cross-validate the analytic model).
  [[nodiscard]] arch::ResilienceConfig build_config(
      const CostReport& report, arch::RecoveryKind recovery) const;

 private:
  // base_train / base_validate: unprotected reference masses matching the
  // benchmark coverage of `train` / `validate` respectively.
  CostReport run_selection(const SelectionSpec& spec,
                           const ProfileSet& base_train,
                           const ProfileSet& base_validate,
                           const ProfileSet& train,
                           const ProfileSet& validate, bool cost_greedy) const;

  Session* session_;
  std::unique_ptr<arch::Core> proto_;
  std::unique_ptr<phys::PhysModel> model_;
  // Per-FF facts every selection reads, tabulated once: the FF sits in a
  // flush/RoB-recoverable stage, and its slack fits a 32-bit XOR tree.
  std::vector<bool> flushable_;
  std::vector<bool> parity_fits32_;
};

}  // namespace clear::core

#endif  // CLEAR_CORE_SELECTION_H
