// Table 17: cost vs SDC/DUE improvement for the tunable techniques
// (LEAP-DICE only / parity only / EDS only), bounded vs unconstrained.
#include "bench/common.h"

namespace clear::bench {
namespace {

void sweep(const std::string& cn, const char* name, core::Palette pal,
           arch::RecoveryKind bounded_rec) {
  std::printf("\n%s, %s:\n", cn.c_str(), name);
  bench::TextTable t({"Recovery", "Metric", "2x", "5x", "50x", "500x", "max"});
  for (const bool bounded : {true, false}) {
    for (const core::Metric m : {core::Metric::kSdc, core::Metric::kDue}) {
      const arch::RecoveryKind rec =
          bounded ? bounded_rec : arch::RecoveryKind::kNone;
      if (!bounded && m == core::Metric::kDue && !pal.dice) {
        t.add_row({"unconstrained", "DUE",
                   "n/a (detection-only worsens DUE)", "", "", "", ""});
        continue;
      }
      std::vector<std::string> cells;
      for (const double target : {2.0, 5.0, 50.0, 500.0, -1.0}) {
        core::SelectionSpec spec;
        spec.palette = pal;
        spec.metric = m;
        spec.target = target;
        spec.recovery = rec;
        const auto rep = bench::selector(cn).evaluate(spec);
        cells.push_back("A " + bench::TextTable::pct(rep.area * 100) + " E " +
                        bench::TextTable::pct(rep.energy * 100));
      }
      t.add_row({bounded ? arch::recovery_name(rec) : "unconstrained",
                 m == core::Metric::kSdc ? "SDC" : "DUE", cells[0], cells[1],
                 cells[2], cells[3], cells[4]});
    }
  }
  t.print(std::cout);
}

}  // namespace

void table17_tunable() {
  bench::header("Table 17", "Tunable techniques: cost vs improvement");
  bench::note("paper reference (InO, energy %): DICE 2/4.3/7.3/8.2/22.4;"
              " parity+IR 23.4/26/29.4/30.5/44.1; EDS+IR 23.1/25.4/28.5/"
              "29.6/43.9 — OoO: DICE 1.5/1.7/3.1/3.5/9.4");
  for (const char* cn : {"InO", "OoO"}) {
    sweep(cn, "LEAP-DICE only", core::Palette::dice_only(),
          arch::RecoveryKind::kNone);
    sweep(cn, "Logic parity only (+IR when bounded)",
          core::Palette::parity_only(), arch::RecoveryKind::kIr);
    sweep(cn, "EDS only (+IR when bounded)", core::Palette::eds_only(),
          arch::RecoveryKind::kIr);
  }
}

}  // namespace clear::bench
