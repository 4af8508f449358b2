// Physical-design model tests: cell library, calibration anchors, spacing
// distributions, SEMU detection under parity layouts, timing, cost
// monotonicity, SP&R noise band.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "arch/core.h"
#include "core/variants.h"
#include "phys/phys.h"
#include "util/rng.h"

namespace {

using namespace clear;

// Every FF index of `prot`, ascending: the list that prices the whole
// vector.
std::vector<std::uint32_t> every_ff(const std::vector<arch::FFProt>& prot) {
  std::vector<std::uint32_t> all(prot.size());
  std::iota(all.begin(), all.end(), 0u);
  return all;
}

TEST(CellLibrary, MatchesTable4) {
  const auto dice = phys::ff_cell(arch::FFProt::kLeapDice);
  EXPECT_DOUBLE_EQ(dice.area, 2.0);
  EXPECT_DOUBLE_EQ(dice.power, 1.8);
  EXPECT_DOUBLE_EQ(dice.ser, 2.0e-4);
  const auto lhl = phys::ff_cell(arch::FFProt::kLhl);
  EXPECT_DOUBLE_EQ(lhl.area, 1.2);
  EXPECT_DOUBLE_EQ(lhl.ser, 2.5e-1);
  const auto eco = phys::ff_cell(arch::FFProt::kLeapCtrlEco);
  EXPECT_DOUBLE_EQ(eco.area, 3.1);
  EXPECT_DOUBLE_EQ(eco.power, 1.2);
  const auto eds = phys::ff_cell(arch::FFProt::kEds);
  EXPECT_DOUBLE_EQ(eds.area, 1.5);
}

TEST(PhysModel, HardenAllMatchesPaperMaxCosts) {
  // Calibration anchor: LEAP-DICE on every FF costs 9.3% area / 22.4%
  // power on InO, 6.5% / 9.4% on OoO (Table 17 "max").
  auto ino = arch::make_ino_core();
  phys::PhysModel m(*ino);
  std::vector<arch::FFProt> all(ino->registry().ff_count(),
                                arch::FFProt::kLeapDice);
  const auto o = m.hardening_overhead(all, every_ff(all));
  EXPECT_NEAR(o.area, 0.093, 1e-9);
  EXPECT_NEAR(o.power, 0.224, 1e-9);

  auto ooo = arch::make_ooo_core();
  phys::PhysModel mo(*ooo);
  std::vector<arch::FFProt> allo(ooo->registry().ff_count(),
                                 arch::FFProt::kLeapDice);
  const auto oo = mo.hardening_overhead(allo, every_ff(allo));
  EXPECT_NEAR(oo.area, 0.065, 1e-9);
  EXPECT_NEAR(oo.power, 0.094, 1e-9);
}

TEST(PhysModel, HardeningCostScalesWithSelection) {
  auto core = arch::make_ino_core();
  phys::PhysModel m(*core);
  const auto n = core->registry().ff_count();
  std::vector<arch::FFProt> half(n, arch::FFProt::kNone);
  for (std::uint32_t i = 0; i < n / 2; ++i) half[i] = arch::FFProt::kLeapDice;
  std::vector<arch::FFProt> full(n, arch::FFProt::kLeapDice);
  const auto oh = m.hardening_overhead(half, every_ff(half));
  const auto of = m.hardening_overhead(full, every_ff(full));
  EXPECT_NEAR(oh.area * 2, of.area, 0.01);
  EXPECT_LT(oh.power, of.power);
}

TEST(PhysModel, BaselineSpacingMatchesTable5) {
  auto core = arch::make_ino_core();
  phys::PhysModel m(*core);
  const auto h = m.baseline_spacing_histogram();
  // Paper Table 5 (InO): 65.2% adjacent, 30% in 1-2 lengths.
  EXPECT_NEAR(h[0], 0.652, 0.05);
  EXPECT_NEAR(h[1], 0.300, 0.05);
  double sum = 0;
  for (double v : h) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(PhysModel, ParityPlacementEliminatesSemuAdjacency) {
  auto core = arch::make_ino_core();
  phys::PhysModel m(*core);
  // 16-bit locality groups over all FFs.
  phys::ParityPlan plan;
  const auto n = core->registry().ff_count();
  for (std::uint32_t base = 0; base < n; base += 16 * 16) {
    // interleave 16 groups over a 256-FF region
    for (int g = 0; g < 16; ++g) {
      phys::ParityGroup grp;
      for (std::uint32_t k = base + g; k < std::min(base + 256, n); k += 16) {
        grp.ffs.push_back(k);
      }
      if (grp.ffs.size() > 1) plan.groups.push_back(std::move(grp));
    }
  }
  double avg = 0;
  const auto h = m.parity_spacing_histogram(plan, &avg);
  EXPECT_DOUBLE_EQ(h[0], 0.0);  // Table 6: 0% within one FF length
  EXPECT_GT(avg, 1.5);
}

// A SEMU: one particle flips a flip-flop and its physical neighbour in the
// same cycle.  Every InO FF is in a 16-bit parity group, with no recovery,
// and 600 strikes land on mcf.  With the minimum-spacing layout the two
// flips sit in different groups and every strike is detected; naive
// layout-order grouping puts both in one group, where they cancel.
struct SemuCounts {
  int detected = 0, escaped = 0, vanished = 0;
};

SemuCounts semu_strikes(bool min_spacing) {
  const auto prog = core::build_variant_program("mcf", core::Variant::base());
  auto ino = arch::make_ino_core();
  phys::PhysModel model(*ino);
  const auto n = ino->registry().ff_count();
  arch::ResilienceConfig cfg;
  cfg.prot.assign(n, arch::FFProt::kParity);
  cfg.parity_group.assign(n, -1);
  for (std::uint32_t f = 0; f < n; ++f) {
    cfg.parity_group[f] = static_cast<std::int32_t>(min_spacing ? f % 16
                                                                : f / 16);
  }
  cfg.recovery = arch::RecoveryKind::kNone;
  const auto clean = ino->run_clean(prog);
  SemuCounts counts;
  util::Rng rng(0x5E3Dull);
  for (int t = 0; t < 600; ++t) {
    const auto f = static_cast<std::uint32_t>(rng.below(n));
    // The physical neighbour within one FF length, or none.
    const std::uint32_t g =
        model.nn_spacing(f) < 1.0 ? (f + 1 < n ? f + 1 : f - 1) : f;
    const std::uint64_t cycle = 1 + rng.below(clean.cycles - 1);
    arch::InjectionPlan plan;
    plan.flips.push_back({cycle, f});
    if (g != f) plan.flips.push_back({cycle, g});
    const auto r = ino->run(prog, &cfg, &plan, clean.cycles * 2 + 64);
    if (r.status == isa::RunStatus::kDetected) {
      ++counts.detected;
    } else if (r.status == isa::RunStatus::kHalted &&
               r.output == clean.output) {
      ++counts.vanished;
    } else {
      ++counts.escaped;
    }
  }
  return counts;
}

TEST(PhysModel, MinSpacingParityDetectsEverySemu) {
  const auto spaced = semu_strikes(true);
  EXPECT_EQ(spaced.detected, 600);
  EXPECT_EQ(spaced.escaped, 0);
  EXPECT_EQ(spaced.vanished, 0);
  const auto naive = semu_strikes(false);
  EXPECT_EQ(naive.detected, 233);
  EXPECT_EQ(naive.escaped, 31);
  EXPECT_EQ(naive.vanished, 336);
}

TEST(PhysModel, TimingSlackDeterministicAndBounded) {
  auto core = arch::make_ino_core();
  phys::PhysModel m(*core);
  const double period = m.period_ps();
  EXPECT_NEAR(period, 500.0, 1e-9);  // 2 GHz
  for (std::uint32_t f = 0; f < 100; ++f) {
    const double s = m.slack_ps(f);
    EXPECT_EQ(s, m.slack_ps(f));
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, period);
  }
}

TEST(PhysModel, XorTreeDelayGrowsWithWidth) {
  const double d16 = phys::PhysModel::xor_tree_delay_ps(16);
  const double d32 = phys::PhysModel::xor_tree_delay_ps(32);
  EXPECT_GT(d32, d16);
}

TEST(PhysModel, EdsCostsExceedBareCellCosts) {
  // The hidden EDS costs (delay buffers + aggregation, Sec. 3.1).
  auto core = arch::make_ino_core();
  phys::PhysModel m(*core);
  const auto n = core->registry().ff_count();
  const auto eds = m.eds_overhead(n);
  std::vector<arch::FFProt> cells(n, arch::FFProt::kEds);
  // Bare-cell delta would be 0.5x area of the FF share:
  const double bare_area = 0.5 * 0.093;
  EXPECT_GT(eds.area, bare_area * 1.3);
  EXPECT_GT(eds.power, 0.0);
}

TEST(PhysModel, RecoveryCostsMatchTable15Shape) {
  auto ino = arch::make_ino_core();
  phys::PhysModel m(*ino);
  const auto ir = m.recovery_overhead(arch::RecoveryKind::kIr);
  const auto eir = m.recovery_overhead(arch::RecoveryKind::kEir);
  const auto flush = m.recovery_overhead(arch::RecoveryKind::kFlush);
  EXPECT_GT(eir.area, ir.area);      // EIR = IR + DFC buffers
  EXPECT_LT(flush.area, ir.area / 10);
  EXPECT_EQ(m.recovery_latency_cycles(arch::RecoveryKind::kFlush), 7.0);
  EXPECT_EQ(m.recovery_latency_cycles(arch::RecoveryKind::kIr), 47.0);

  auto ooo = arch::make_ooo_core();
  phys::PhysModel mo(*ooo);
  EXPECT_EQ(mo.recovery_latency_cycles(arch::RecoveryKind::kRob), 64.0);
  EXPECT_EQ(mo.recovery_latency_cycles(arch::RecoveryKind::kIr), 104.0);
  EXPECT_LT(mo.recovery_overhead(arch::RecoveryKind::kRob).area, 0.001);
}

TEST(PhysModel, GammaDeltasMatchPaper) {
  auto ino = arch::make_ino_core();
  phys::PhysModel m(*ino);
  // DFC adds ~20% FFs on InO (paper Sec. 2.1: gamma 1.28 = 1.2 x 1.062).
  EXPECT_NEAR(m.dfc_ff_delta(), 0.20, 0.05);
  EXPECT_NEAR(m.recovery_ff_delta(arch::RecoveryKind::kIr), 0.40, 1e-9);
  auto ooo = arch::make_ooo_core();
  phys::PhysModel mo(*ooo);
  EXPECT_NEAR(mo.monitor_ff_delta(), 0.38, 1e-9);  // paper: +38% FFs
  EXPECT_LT(mo.dfc_ff_delta(), 0.03);
}

TEST(PhysModel, SpnrNoiseWithinPaperBand) {
  auto core = arch::make_ino_core();
  phys::PhysModel m(*core);
  // Relative stddev across per-benchmark layouts must sit in 0.6-3.1%.
  double sum = 0, sum2 = 0;
  const int n = 18;
  for (int b = 0; b < n; ++b) {
    const double v = m.spnr_noise("design_a", "bench" + std::to_string(b));
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  const double rel = std::sqrt(std::max(0.0, var)) / mean;
  EXPECT_GT(rel, 0.003);
  EXPECT_LT(rel, 0.035);
  EXPECT_NEAR(mean, 1.0, 0.02);
  // Deterministic
  EXPECT_EQ(m.spnr_noise("x", "y"), m.spnr_noise("x", "y"));
}

TEST(PhysModel, MonitorCoreCostsMatchTable3) {
  auto ooo = arch::make_ooo_core();
  phys::PhysModel m(*ooo);
  const auto o = m.monitor_overhead();
  EXPECT_NEAR(o.area, 0.09, 0.03);    // paper: 9% area
  EXPECT_NEAR(o.power, 0.163, 0.05);  // paper: 16.3% power
}

TEST(PhysModel, DfcCostsSmallOnBigCore) {
  auto ino = arch::make_ino_core();
  auto ooo = arch::make_ooo_core();
  phys::PhysModel mi(*ino);
  phys::PhysModel mo(*ooo);
  EXPECT_GT(mi.dfc_overhead().area, mo.dfc_overhead().area);
  EXPECT_LT(mo.dfc_overhead().area, 0.005);
}

}  // namespace
