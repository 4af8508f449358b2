// Table 19: cross-layer combinations for general-purpose processors.
#include "bench/common.h"

namespace clear::bench {
namespace {

void combo_sweep(const std::string& cn, const char* label, const char* paper,
                 core::Combo combo) {
  std::printf("\n%s | %s  (paper E@50x: %s)\n", cn.c_str(), label, paper);
  bench::TextTable t({"Target", "Area", "Power", "Energy", "Exec", "SDC imp",
                      "DUE imp", "met"});
  bench::session(cn).prefetch(core::combo_variants(combo));
  for (const double target : {2.0, 5.0, 50.0, 500.0, -1.0}) {
    const auto p = core::evaluate_combo(bench::session(cn),
                                        bench::selector(cn), combo,
                                        target, core::Metric::kSdc);
    t.add_row({target < 0 ? "max" : bench::TextTable::factor(target),
               bench::TextTable::pct(p.area * 100),
               bench::TextTable::pct(p.power * 100),
               bench::TextTable::pct(p.energy * 100),
               bench::TextTable::pct(p.exec * 100),
               bench::TextTable::factor(p.imp.sdc),
               bench::TextTable::factor(p.imp.due), p.target_met ? "y" : "n"});
  }
  t.print(std::cout);
}

}  // namespace

void table19_crosslayer() {
  bench::header("Table 19", "Cross-layer combinations (general purpose)");
  {
    core::Combo c;
    c.dice = true;
    c.parity = true;
    c.recovery = arch::RecoveryKind::kFlush;
    combo_sweep("InO", "LEAP-DICE + parity (+flush)", "6.1%", c);
    c.eds = true;
    combo_sweep("InO", "EDS + LEAP-DICE + parity (+flush)", "6.6%", c);
  }
  {
    core::Combo c;
    c.dice = true;
    c.parity = true;
    c.dfc = true;
    c.recovery = arch::RecoveryKind::kEir;
    combo_sweep("InO", "DFC + LEAP-DICE + parity (+EIR)", "60.2%", c);
  }
  {
    core::Combo c;
    c.dice = true;
    c.parity = true;
    c.assertions = true;
    combo_sweep("InO", "Assertions + DICE + parity (no rec)", "18%", c);
    c.assertions = false;
    c.cfcss = true;
    combo_sweep("InO", "CFCSS + DICE + parity (no rec)", "44.6%", c);
    c.cfcss = false;
    c.eddi = true;
    combo_sweep("InO", "EDDI + DICE + parity (no rec)", "111%", c);
  }
  {
    core::Combo c;
    c.dice = true;
    c.parity = true;
    c.recovery = arch::RecoveryKind::kRob;
    combo_sweep("OoO", "LEAP-DICE + parity (+RoB)", "2.0%", c);
    c.eds = true;
    combo_sweep("OoO", "EDS + LEAP-DICE + parity (+RoB)", "2.3%", c);
    c.eds = false;
    c.dfc = true;
    c.recovery = arch::RecoveryKind::kEir;
    combo_sweep("OoO", "DFC + DICE + parity (+EIR)", "22.2%", c);
    c.dfc = false;
    c.monitor = true;
    c.recovery = arch::RecoveryKind::kRob;
    combo_sweep("OoO", "Monitor + DICE + parity (+RoB)", "20%", c);
  }
}

}  // namespace clear::bench
