// Table 13: why EDDI needs store-readback -- closing the store-datapath
// escape raises SDC improvement by an order of magnitude.
#include "bench/common.h"

namespace clear::bench {

void table13_eddi_readback() {
  bench::header("Table 13", "EDDI: importance of store-readback (InO)");
  auto& s = bench::session("InO");
  const auto& base = s.profiles(core::Variant::base());

  bench::TextTable t({"Variant", "Paper SDC/detected", "SDC improve",
                      "% SDC detected", "SDC escapes", "DUE improve"});
  for (const bool rb : {false, true}) {
    core::Variant v;
    v.eddi = true;
    v.eddi_readback = rb;
    const auto& p = s.profiles(v);
    const double g = core::gamma_correction(0.0, p.exec_overhead);
    const auto imp = core::improvement(base.mass(), p.mass(), g);
    const double detected_frac =
        1.0 - static_cast<double>(p.totals.sdc()) /
                  std::max<double>(1.0, static_cast<double>(base.totals.sdc()));
    t.add_row({rb ? "with store-readback" : "without store-readback",
               rb ? "37.8x / 98.7%" : "3.3x / 86.1%",
               bench::TextTable::factor(imp.sdc),
               bench::TextTable::pct(detected_frac * 100),
               std::to_string(p.totals.sdc()),
               bench::TextTable::factor(imp.due)});
  }
  t.print(std::cout);
  bench::note("(readback re-loads every stored value: corruption in the"
              " store datapath is caught before it becomes silent output)");
}

}  // namespace clear::bench
