// Figs. 9 & 10: the cost-vs-improvement bounds that new resilience
// techniques must beat -- the cross-layer frontier (DICE+parity+recovery)
// and the best standalone technique (LEAP-DICE).
#include "bench/common.h"

#include <fstream>

namespace clear::bench {
namespace {

void frontier(const char* fig, const char* title, core::Palette pal,
              bool with_recovery) {
  bench::header(fig, title);
  std::ofstream csv(std::string(fig) + ".csv");
  csv << "core,metric,target,energy_pct\n";
  for (const char* cn : {"InO", "OoO"}) {
    bench::TextTable t({"Metric", "2x", "5x", "50x", "500x", "max"});
    for (const core::Metric m : {core::Metric::kSdc, core::Metric::kDue}) {
      std::vector<std::string> cells;
      for (const double target : {2.0, 5.0, 50.0, 500.0, -1.0}) {
        core::SelectionSpec spec;
        spec.palette = pal;
        spec.metric = m;
        spec.target = target;
        spec.recovery =
            with_recovery
                ? (std::string(cn) == "InO" ? arch::RecoveryKind::kFlush
                                            : arch::RecoveryKind::kRob)
                : arch::RecoveryKind::kNone;
        const auto rep = bench::selector(cn).evaluate(spec);
        cells.push_back(bench::TextTable::pct(rep.energy * 100));
        csv << cn << ',' << (m == core::Metric::kSdc ? "SDC" : "DUE") << ','
            << target << ',' << rep.energy * 100 << '\n';
      }
      t.add_row({m == core::Metric::kSdc ? "SDC" : "DUE", cells[0], cells[1],
                 cells[2], cells[3], cells[4]});
    }
    std::printf("\n--- %s core (energy cost at each improvement) ---\n", cn);
    t.print(std::cout);
  }
  bench::note("(new techniques must fall below these curves to be"
              " competitive; series also written to CSV)");
}

}  // namespace

void fig09_10_bounds() {
  frontier("fig09", "Bound: LEAP-DICE + parity + micro-arch recovery",
           core::Palette::dice_parity(), true);
  frontier("fig10", "Bound: best standalone technique (LEAP-DICE)",
           core::Palette::dice_only(), false);
}

}  // namespace clear::bench
