// Cross-layer combination enumeration and evaluation (paper Sec. 3).
//
// enumerate_combos() reproduces the paper's 586 combinations (Table 18:
// 417 InO + 169 OoO) from the validity rules the paper states:
//   * any non-empty subset of the per-core detection/correction techniques
//     with no recovery;
//   * flush (InO) / RoB (OoO) recovery over single-cycle in-pipeline
//     detectors {EDS, parity} (+ monitor on OoO), with LEAP-DICE forced on
//     unflushable stages;
//   * IR/EIR recovery over hardware detectors {EDS, parity, DFC}
//     (+ monitor on OoO), optionally augmented with selective LEAP-DICE;
//     EIR exactly when DFC participates (DFC needs the extended buffers);
//   * ABFT correction composes with everything (applied first, Fig. 6);
//     ABFT detection only with unconstrained combos (its multi-million-
//     cycle detection latency rules out hardware recovery).
//
// evaluate_combo() applies the paper's top-down methodology: profile the
// software/algorithm-transformed program, then run selective hardening on
// top of it toward the requested target.
#ifndef CLEAR_CORE_COMBOS_H
#define CLEAR_CORE_COMBOS_H

#include <string>
#include <vector>

#include "core/selection.h"

namespace clear::core {

struct Combo {
  bool dice = false;
  bool eds = false;
  bool parity = false;
  bool dfc = false;
  bool assertions = false;
  bool cfcss = false;
  bool eddi = false;
  bool monitor = false;
  workloads::AbftKind abft = workloads::AbftKind::kNone;
  arch::RecoveryKind recovery = arch::RecoveryKind::kNone;

  [[nodiscard]] std::string name() const;
  [[nodiscard]] bool has_tunable() const noexcept {
    return dice || eds || parity;
  }
  [[nodiscard]] Palette palette() const noexcept {
    return Palette{dice, parity, eds};
  }
  [[nodiscard]] Variant variant() const;
  [[nodiscard]] int software_layers() const noexcept {
    return (assertions ? 1 : 0) + (cfcss ? 1 : 0) + (eddi ? 1 : 0) +
           (dfc ? 1 : 0) + (monitor ? 1 : 0) +
           (abft != workloads::AbftKind::kNone ? 1 : 0);
  }
};

// All valid combinations for a core ("InO": 417, "OoO": 169).
[[nodiscard]] std::vector<Combo> enumerate_combos(const std::string& core);

// FNV-1a digest over the enumeration's combo names in order.  Pins the
// combination space: the exploration ledger (src/explore) stores it so a
// ledger written against a different enumeration is refused instead of
// silently re-indexed, and the golden test (tests/data/combos_golden.txt)
// fails loudly when a validity-rule change reshapes the space.
[[nodiscard]] std::uint64_t enumeration_fingerprint(const std::string& core);

// The profiled program variants combo_profile() consumes for this combo:
// the full variant when at most one profiled layer is involved, otherwise
// the per-layer single-technique variants (plus the base profile it
// composes on).  Exploration prefetches the union of these across a batch
// of combos as ONE engine::run_campaigns submission, so golden-run
// recording overlaps faulty runs across combos and combos sharing a
// variant share its campaigns through the cache pack.
[[nodiscard]] std::vector<Variant> combo_layer_variants(const Combo& combo);

// Every profiled variant the read-only evaluation below consults for
// this combo: the base variant plus combo_layer_variants().  Collect
// them with Session::prefetch before calling combo_cost_lower_bound,
// combo_profile or evaluate_combo, which read the session through
// Session::resident() and throw std::logic_error on a missing profile.
[[nodiscard]] std::vector<Variant> combo_variants(const Combo& combo);

// Analytic lower bound on evaluate_combo(...).energy for any target:
// the combo's fixed technique overheads (DFC / monitor / recovery
// hardware, with a safety margin for the SP&R noise band) times its
// software layers' measured execution overheads; the selective-hardening
// contribution is bounded below by zero.  Pure function of the combo and
// the resident single-layer profiles -- bit-identical across shards --
// and never triggers campaigns.  The exploration engine prunes a combo
// when this bound already exceeds a Pareto-dominating evaluated point.
[[nodiscard]] double combo_cost_lower_bound(const Session& session,
                                            const phys::PhysModel& model,
                                            const Combo& combo);

// Profile for a combo's software/algorithm stack.  Exact (measured) when
// at most one profiled layer is involved; multi-layer stacks compose
// per-FF survival ratios from the single-layer profiles under an
// independence assumption (used only for the Fig. 1d design-space cloud;
// every table row uses measured profiles).  A composed set has no
// measured campaigns of its own: its benches carry only the benchmark
// names and base cycles, with empty campaigns.
[[nodiscard]] ProfileSet combo_profile(const Session& session,
                                       const Combo& combo);

struct ComboPoint {
  std::string combo;
  double target = 0.0;  // <= 0: fixed/maximum point
  bool target_met = true;
  double energy = 0.0;
  double area = 0.0;
  double power = 0.0;
  double exec = 0.0;
  double sdc_protected_pct = 0.0;  // Fig. 1d x-axis
  Improvement imp;
};

// Evaluates one combination at one SDC-improvement target.  Full
// design-space exploration (Fig. 1d) lives in explore::run_exploration,
// which drives this per combination with sharding, resume and pruning.
// Read-only (the profiles of combo_variants() must be resident): threads
// may evaluate combos concurrently against one Session and one Selector.
[[nodiscard]] ComboPoint evaluate_combo(const Session& session,
                                        const Selector& selector,
                                        const Combo& combo, double target,
                                        Metric metric = Metric::kSdc);

}  // namespace clear::core

#endif  // CLEAR_CORE_COMBOS_H
