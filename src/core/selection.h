// Selective protection of flip-flops: the paper's Fig. 7 flow with
// Heuristic 1, plus cost evaluation against the physical-design model.
//
// The selector consumes a prepared stack (core::ComboStack, combos.h):
// per-FF error counts from injection campaigns, possibly of a
// software/algorithm-transformed program, with the unprotected reference
// mass and the vulnerability order.  It protects flip-flops one at a time
// in that order -- choosing LEAP-DICE vs parity vs EDS per Heuristic 1 --
// until the gamma-corrected SDC/DUE improvement target is met.  Every
// cost the tables, the exploration and the Sec. 4 study report comes from
// that one pass, Selector::evaluate(spec, stack).  Residual
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

// One profile as a selection reads it: per-FF counts (ff_count each), the
// error-free execution overhead and the benchmark names (the SP&R noise
// reads only those).  Views a measured ProfileSet, or the composed counts
// of a multi-layer software stack, which has no campaigns of its own.
// The viewed storage must outlive the view.
struct ProfileView {
  std::uint32_t ff_count = 0;
  const std::uint64_t* sdc = nullptr;
  const std::uint64_t* due = nullptr;
  const std::uint64_t* total = nullptr;
  double exec_overhead = 0.0;
  const std::vector<BenchProfile>* benches = nullptr;

  ProfileView() = default;
  explicit ProfileView(const ProfileSet& p);
};

// What a selection needs of its profile pair under one metric, whatever
// the palette, target and recovery: the reference and starting masses and
// the vulnerability order.  Part of every core::ComboStack, so an
// exploration computes it once per software stack instead of once per
// combo.
struct SelectionBasis {
  Metric metric = Metric::kSdc;
  ErrorMass orig;      // the unprotected base design (the reference)
  ErrorMass train;     // the train profile's per-FF counts, summed in FF
  ErrorMass validate;  // index order (likewise for validate)
  // The FFs with a nonzero metric count in train, stable-sorted by
  // descending count.  The stable sort of every FF puts the zero-count
  // FFs after these, in index order, so every target walks a prefix of
  // that one order and the max point walks all of it.
  std::vector<std::uint32_t> ranked;
};

[[nodiscard]] SelectionBasis selection_basis(Metric metric,
                                             const ErrorMass& orig,
                                             const ProfileView& train,
                                             const ProfileView& validate);

class ComboStack;  // core/combos.h: the prepared input of every evaluation

// evaluate(spec) collects missing profiles through the session;
// everything else is const and safe to share across threads.
class Selector {
 public:
  explicit Selector(Session& session);
  ~Selector();

  [[nodiscard]] const phys::PhysModel& model() const noexcept {
    return *model_;
  }

  // Full Fig. 7 evaluation on a prepared stack: select on its train
  // view, then measure the same protection choice on its validate view
  // against its reference mass (gamma-corrected improvements and costs).
  // Throws std::invalid_argument when spec.metric is not the metric the
  // stack was prepared for.  Read-only: one Selector may serve any
  // number of threads at once.
  [[nodiscard]] CostReport evaluate(const SelectionSpec& spec,
                                    const ComboStack& stack) const;

  // The same on spec.variant's measured profile: collects it (and the
  // base profile), builds its stack and evaluates.
  CostReport evaluate(const SelectionSpec& spec);

  // In-simulator configuration realizing a report's protection choice
  // (used by integration tests to cross-validate the analytic model).
  [[nodiscard]] arch::ResilienceConfig build_config(
      const CostReport& report, arch::RecoveryKind recovery) const;

 private:
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
