// Tables 21 & 22: ABFT cross-layer combinations and the flip-flop coverage
// of ABFT correction.
#include "bench/common.h"

namespace clear::bench {
namespace {

void abft_sweep(const std::string& cn, const char* label, core::Combo combo,
                bool leap_ctrl) {
  std::printf("\n%s | %s\n", cn.c_str(), label);
  bench::TextTable t({"Target", "Area", "Power", "Energy", "Exec",
                      "SDC imp", "DUE imp"});
  auto& session = bench::session(cn);
  auto& selector = bench::selector(cn);
  session.prefetch(core::combo_variants(combo));
  const core::ComboStack stack(session, combo, core::Metric::kSdc);
  for (const double target : {2.0, 5.0, 50.0, 500.0, -1.0}) {
    core::ComboPoint p;
    if (!leap_ctrl) {
      p = core::evaluate_combo(selector, stack, combo, target);
    } else {
      // LEAP-ctrl variant (Sec. 3.2.1): selected hardened FFs use the
      // dual-mode cell so the protection can idle when ABFT runs.
      core::SelectionSpec spec;
      spec.palette = combo.palette();
      spec.target = target;
      spec.recovery = combo.recovery;
      spec.variant = combo.variant();
      spec.use_leap_ctrl = true;
      const auto rep = selector.evaluate(spec, stack);
      p.energy = rep.energy;
      p.area = rep.area;
      p.power = rep.power;
      p.exec = rep.exec;
      p.imp = rep.imp;
    }
    t.add_row({target < 0 ? "max" : bench::TextTable::factor(target),
               bench::TextTable::pct(p.area * 100),
               bench::TextTable::pct(p.power * 100),
               bench::TextTable::pct(p.energy * 100),
               bench::TextTable::pct(p.exec * 100),
               bench::TextTable::factor(p.imp.sdc),
               bench::TextTable::factor(p.imp.due)});
  }
  t.print(std::cout);
}

}  // namespace

void table21_22_abft() {
  bench::header("Table 21", "ABFT cross-layer combinations");
  bench::note("paper E@50x: InO ABFTc+DICE+parity+flush 3.1%, OoO 1.9%;"
              " ABFTd+DICE+parity 30%/25.5%");
  for (const char* cn : {"InO", "OoO"}) {
    core::Combo c;
    c.dice = true;
    c.parity = true;
    c.abft = workloads::AbftKind::kCorrection;
    c.recovery = std::string(cn) == "InO" ? arch::RecoveryKind::kFlush
                                          : arch::RecoveryKind::kRob;
    abft_sweep(cn, "ABFT correction + DICE + parity (+flush/RoB)", c, false);
    abft_sweep(cn, "ABFT correction + LEAP-ctrl + DICE + parity", c, true);
    core::Combo d;
    d.dice = true;
    d.parity = true;
    d.abft = workloads::AbftKind::kDetection;
    d.recovery = arch::RecoveryKind::kNone;
    abft_sweep(cn, "ABFT detection + DICE + parity (no recovery)", d, false);
  }

  bench::header("Table 22", "FFs with errors corrected by ABFT");
  bench::TextTable t({"Core", "union (paper 44/22%)",
                      "intersection (paper 5/2%)"});
  for (const char* cn : {"InO", "OoO"}) {
    auto& s = bench::session(cn);
    const auto& base = s.profiles(core::Variant::base());
    core::Variant v;
    v.abft = workloads::AbftKind::kCorrection;
    const auto& ab = s.profiles(v);
    // Per ABFT benchmark: an FF is "corrected" when its base-run errors
    // disappear under the ABFT variant.
    std::vector<std::size_t> per_ff_corrected(base.ff_count, 0);
    std::size_t n_benches = ab.benches.size();
    for (const auto& abp : ab.benches) {
      for (const auto& bp : base.benches) {
        if (bp.benchmark != abp.benchmark) continue;
        for (std::uint32_t f = 0; f < base.ff_count; ++f) {
          const auto berr = bp.campaign.per_ff[f].sdc() +
                            bp.campaign.per_ff[f].due();
          const auto aerr = abp.campaign.per_ff[f].sdc() +
                            abp.campaign.per_ff[f].due();
          if (berr > 0 && aerr < berr) ++per_ff_corrected[f];
        }
      }
    }
    std::size_t uni = 0, inter = 0;
    for (std::uint32_t f = 0; f < base.ff_count; ++f) {
      uni += per_ff_corrected[f] > 0;
      inter += per_ff_corrected[f] == n_benches;
    }
    const double n = static_cast<double>(base.ff_count);
    t.add_row({cn, bench::TextTable::pct(100.0 * static_cast<double>(uni) / n),
               bench::TextTable::pct(100.0 * static_cast<double>(inter) / n)});
  }
  t.print(std::cout);
}

}  // namespace clear::bench
