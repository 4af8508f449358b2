// Table 12: CFCSS error coverage -- control-flow-only checking leaves most
// SDCs uncovered.
#include "bench/common.h"

namespace clear::bench {

void table12_cfcss() {
  bench::header("Table 12", "CFCSS error coverage (InO)");
  auto& s = bench::session("InO");
  const auto& base = s.profiles(core::Variant::base());
  core::Variant v;
  v.cfcss = true;
  const auto& cf = s.profiles(v);

  std::size_t sdc_ffs = 0, cov_ffs = 0;
  double det_frac = 0;
  std::size_t det_n = 0;
  for (std::uint32_t f = 0; f < base.ff_count; ++f) {
    if (base.ff_sdc[f] == 0) continue;
    ++sdc_ffs;
    const double b = static_cast<double>(base.ff_sdc[f]);
    const double d = static_cast<double>(cf.ff_sdc[f]);
    if (d < b) {
      ++cov_ffs;
      det_frac += (b - d) / b;
      ++det_n;
    }
  }
  const double g = core::gamma_correction(0.0, cf.exec_overhead);
  const auto imp = core::improvement(base.mass(), cf.mass(), g);

  bench::TextTable t({"Quantity", "Paper", "Ours"});
  t.add_row({"% FFs w/ SDC-causing error detected by CFCSS", "55%",
             bench::TextTable::pct(100.0 * static_cast<double>(cov_ffs) /
                                   std::max<std::size_t>(1, sdc_ffs))});
  t.add_row({"% of SDC errors detected per covered FF", "61%",
             bench::TextTable::pct(det_n ? 100 * det_frac /
                                               static_cast<double>(det_n)
                                         : 0)});
  t.add_row({"Resulting SDC improvement", "1.5x",
             bench::TextTable::factor(imp.sdc)});
  t.add_row({"Resulting DUE improvement", "0.5x",
             bench::TextTable::factor(imp.due)});
  t.print(std::cout);
  bench::note("(SDCs from corrupted data values never touch the signature"
              " chain; crash-type DUEs abort before the check runs)");
}

}  // namespace clear::bench
