// Table 4: resilient flip-flop cells (library data adopted from the
// paper's measured radiation-test values).
#include "bench/common.h"

#include "phys/phys.h"

namespace clear::bench {

void table04_cell_library() {
  bench::header("Table 4", "Resilient flip-flops (cell library)");
  bench::TextTable t({"Type", "SER", "Area", "Power", "Delay"});
  auto row = [&](const char* name, arch::FFProt p) {
    const auto c = phys::ff_cell(p);
    char ser[32];
    std::snprintf(ser, sizeof(ser), "%.1e", c.ser);
    t.add_row({name, ser, bench::TextTable::num(c.area, 1),
               bench::TextTable::num(c.power, 1),
               bench::TextTable::num(c.delay, 1)});
  };
  row("Baseline", arch::FFProt::kNone);
  row("Light Hardened LEAP (LHL)", arch::FFProt::kLhl);
  row("LEAP-DICE", arch::FFProt::kLeapDice);
  row("LEAP-ctrl (economy)", arch::FFProt::kLeapCtrlEco);
  row("LEAP-ctrl (resilient)", arch::FFProt::kLeapCtrlRes);
  row("EDS (detects)", arch::FFProt::kEds);
  t.print(std::cout);
  bench::note("(values are Table 4 of the paper, used as cell-library data;"
              " EDS cell costs exclude delay buffers/aggregation, see"
              " Table 17 bench)");
}

}  // namespace clear::bench
