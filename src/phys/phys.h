// Physical-design evaluation (paper Sec. 2.3).
//
// The paper ran Synopsys synthesis / place-and-route / power analysis on a
// commercial 28nm library for every resilient design variant.  Neither the
// tools nor the PDK are available, so this module provides an analytic
// physical model with the same observable structure:
//
//   * a synthetic standard-cell library whose hardened flip-flop variants
//     carry the paper's measured relative costs (Table 4 is used as cell
//     data: LEAP-DICE 2.0x area / 1.8x power at 2e-4 SER, etc.);
//   * a baseline design characterization calibrated by two published
//     anchors per core -- the flip-flop share of total area and of total
//     power implied by the paper's "harden every flip-flop" cost (Table 3
//     / Table 17 "max" columns);
//   * a deterministic statistical placement that reproduces the baseline
//     nearest-neighbour flip-flop spacing distribution (Table 5) and
//     enforces the SEMU minimum-spacing constraint inside parity groups
//     (Table 6);
//   * a per-flip-flop timing-slack model that decides whether a parity
//     group can use an unpipelined XOR tree (Fig. 3);
//   * cost evaluation for hardening/parity/EDS configurations plus
//     technique-level constants (DFC checker, monitor core, recovery
//     hardware -- Table 15) and the flip-flop-count deltas feeding the
//     gamma correction of Eq. 1;
//   * a deterministic SP&R-artifact noise model (the paper reports 0.6-3.1%
//     relative standard deviation across per-benchmark layouts).
#ifndef CLEAR_PHYS_PHYS_H
#define CLEAR_PHYS_PHYS_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/core.h"
#include "arch/types.h"

namespace clear::phys {

// Relative cell costs (baseline DFF = 1.0); Table 4.
struct CellCosts {
  double area = 1.0;
  double power = 1.0;
  double delay = 1.0;
  double ser = 1.0;
};
[[nodiscard]] CellCosts ff_cell(arch::FFProt p) noexcept;

// Fractional overheads relative to the unprotected baseline design.
struct Overhead {
  double area = 0.0;
  double power = 0.0;

  Overhead& operator+=(const Overhead& o) noexcept {
    area += o.area;
    power += o.power;
    return *this;
  }
};

// A parity grouping: which flip-flops share a checker, and whether the
// predictor tree needs pipelining to preserve the clock period.
struct ParityGroup {
  std::vector<std::uint32_t> ffs;
  bool pipelined = false;
};
struct ParityPlan {
  std::vector<ParityGroup> groups;
};

// Spacing histogram bins, in flip-flop lengths (Tables 5/6):
// [<1, 1-2, 2-3, 3-4, >4]
using SpacingHistogram = std::array<double, 5>;

class PhysModel {
 public:
  explicit PhysModel(const arch::Core& core);

  [[nodiscard]] double period_ps() const noexcept { return 1000.0 / clock_ghz_; }

  // -- timing ---------------------------------------------------------
  // Deterministic per-FF timing slack (ps).
  [[nodiscard]] double slack_ps(std::uint32_t ff) const;
  // Delay of an n-input XOR predictor tree (ps).
  [[nodiscard]] static double xor_tree_delay_ps(std::size_t n);
  // True if every member has enough slack for an unpipelined n-bit tree.
  [[nodiscard]] bool group_fits_unpipelined(
      const std::vector<std::uint32_t>& ffs) const;

  // -- placement ------------------------------------------------------
  // Scalar placement coordinate (FF-length units) of a flip-flop.
  [[nodiscard]] double position(std::uint32_t ff) const;
  // Distance to the physically nearest neighbouring FF, baseline layout.
  [[nodiscard]] double nn_spacing(std::uint32_t ff) const;
  [[nodiscard]] SpacingHistogram baseline_spacing_histogram() const;
  // Spacing between same-group neighbours after the SEMU minimum-spacing
  // layout constraint is applied (paper Sec. 2.4 / Table 6).  Also
  // returns the average same-group spacing through *avg.
  [[nodiscard]] SpacingHistogram parity_spacing_histogram(
      const ParityPlan& plan, double* avg) const;
  // Rank of the FF's functional unit (the first dotted component of its
  // structure name, "rob.e3.result" -> "rob") among the core's units in
  // name order: comparing ranks orders FFs as comparing unit names does.
  [[nodiscard]] std::uint32_t unit_rank(std::uint32_t ff) const {
    return unit_rank_[ff];
  }

  // -- cost evaluation -------------------------------------------------
  // Hardening cost summed over the listed FFs of `prot`.  An unprotected
  // FF adds exactly zero, so listing every protected FF in ascending index
  // order gives the bit-identical result of listing every FF.
  [[nodiscard]] Overhead hardening_overhead(
      const std::vector<arch::FFProt>& prot,
      const std::vector<std::uint32_t>& ffs) const;
  [[nodiscard]] Overhead parity_overhead(const ParityPlan& plan) const;
  // EDS flip-flops additionally need delay buffers, detection-signal
  // aggregation and routing (the hidden costs of Sec. 3.1 / Table 17).
  [[nodiscard]] Overhead eds_overhead(std::size_t eds_ffs) const;
  [[nodiscard]] Overhead dfc_overhead() const;
  [[nodiscard]] Overhead monitor_overhead() const;
  [[nodiscard]] Overhead recovery_overhead(arch::RecoveryKind k) const;
  [[nodiscard]] double recovery_latency_cycles(arch::RecoveryKind k) const;

  // Flip-flop count added by a technique, as a fraction of the baseline
  // flip-flop count (feeds gamma, Eq. 1):
  [[nodiscard]] double dfc_ff_delta() const;
  [[nodiscard]] double monitor_ff_delta() const;
  [[nodiscard]] double recovery_ff_delta(arch::RecoveryKind k) const;
  [[nodiscard]] double parity_ff_delta(const ParityPlan& plan) const;

  // Deterministic SP&R artifact multiplier for a (design, benchmark)
  // layout run; mean 1.0, relative sigma inside the paper's 0.6-3.1% band.
  [[nodiscard]] double spnr_noise(const std::string& design_key,
                                  const std::string& benchmark) const;

 private:
  std::string core_;
  double clock_ghz_ = 1.0;
  std::uint32_t ff_count_ = 0;
  // Total area/power in normalized cell units (baseline DFF area = 1).
  double total_area_ = 0.0;
  double total_power_ = 0.0;
  double ff_area_share_ = 0.0;
  double ff_power_share_ = 0.0;
  std::array<double, 5> spacing_pmf_{};
  double path_mean_frac_ = 0.0;
  double path_sd_frac_ = 0.0;
  std::vector<double> positions_;  // cumulative placement coordinates
  std::vector<double> nn_;         // per-FF nearest-neighbour distance
  std::vector<double> slack_;      // per-FF slack_ps(), tabulated
  std::vector<std::uint32_t> unit_rank_;  // per-FF unit_rank(), tabulated
  std::uint64_t salt_ = 0;
};

}  // namespace clear::phys

#endif  // CLEAR_PHYS_PHYS_H
