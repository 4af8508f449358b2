// Table 20: joint SDC+DUE improvement targets with DICE + parity +
// flush/RoB recovery.
#include "bench/common.h"

namespace clear::bench {

void table20_joint() {
  bench::header("Table 20", "Joint SDC/DUE targets (DICE+parity+flush/RoB)");
  bench::note("paper (InO energy): 2x 2%, 5x 4.2%, 50x 9%, 500x 10.8%,"
              " max 17.9%; (OoO): 0.1/0.4/2.2/2.8/7%");
  for (const char* cn : {"InO", "OoO"}) {
    std::printf("\n--- %s core ---\n", cn);
    bench::TextTable t(
        {"Joint target", "Area", "Power", "Energy", "SDC imp", "DUE imp"});
    for (const double target : {2.0, 5.0, 50.0, 500.0, -1.0}) {
      core::SelectionSpec spec;
      spec.palette = core::Palette::dice_parity();
      spec.metric = core::Metric::kJoint;
      spec.target = target;
      spec.recovery = std::string(cn) == "InO" ? arch::RecoveryKind::kFlush
                                               : arch::RecoveryKind::kRob;
      const auto rep = bench::selector(cn).evaluate(spec);
      t.add_row({target < 0 ? "max" : bench::TextTable::factor(target),
                 bench::TextTable::pct(rep.area * 100),
                 bench::TextTable::pct(rep.power * 100),
                 bench::TextTable::pct(rep.energy * 100),
                 bench::TextTable::factor(rep.imp.sdc),
                 bench::TextTable::factor(rep.imp.due)});
    }
    t.print(std::cout);
  }
}

}  // namespace clear::bench
