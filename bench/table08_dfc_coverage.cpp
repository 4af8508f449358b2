// Table 8: DFC error coverage -- why dataflow checking caps out near 30%.
#include "bench/common.h"

namespace clear::bench {
namespace {

void coverage_rows(const std::string& cn, bench::TextTable* t) {
  auto& s = bench::session(cn);
  const auto& base = s.profiles(core::Variant::base());
  core::Variant v;
  v.dfc = true;
  const auto& dfc = s.profiles(v);

  // FFs whose SDC-causing errors DFC detects at least partially.
  std::size_t sdc_ffs = 0, sdc_cov_ffs = 0;
  double det_frac_sum = 0;
  std::size_t det_frac_n = 0;
  for (std::uint32_t f = 0; f < base.ff_count; ++f) {
    if (base.ff_sdc[f] == 0) continue;
    ++sdc_ffs;
    const double b = static_cast<double>(base.ff_sdc[f]);
    const double d = static_cast<double>(dfc.ff_sdc[f]);
    if (d < b) {
      ++sdc_cov_ffs;
      det_frac_sum += (b - d) / b;
      ++det_frac_n;
    }
  }
  const double overall_sdc =
      1.0 - static_cast<double>(dfc.totals.sdc()) /
                std::max<double>(1, static_cast<double>(base.totals.sdc()));
  const double g = core::gamma_correction(0.2, dfc.exec_overhead);
  const double imp = core::ratio_capped(
                         static_cast<double>(base.totals.sdc()),
                         static_cast<double>(dfc.totals.sdc())) /
                     g;
  t->add_row({cn,
              bench::TextTable::pct(100.0 * static_cast<double>(sdc_cov_ffs) /
                                    std::max<std::size_t>(1, sdc_ffs)),
              bench::TextTable::pct(det_frac_n
                                        ? 100.0 * det_frac_sum /
                                              static_cast<double>(det_frac_n)
                                        : 0),
              bench::TextTable::pct(100.0 * overall_sdc),
              bench::TextTable::factor(imp)});
}

}  // namespace

void table08_dfc_coverage() {
  bench::header("Table 8", "DFC error coverage (SDC)");
  bench::TextTable t({"Core", "% SDC-FFs covered (paper 57/65%)",
                      "% errors detected per covered FF (paper ~30%)",
                      "overall % SDC detected (paper 15.9/19.3%)",
                      "SDC improvement (paper 1.2x)"});
  coverage_rows("InO", &t);
  coverage_rows("OoO", &t);
  t.print(std::cout);
  bench::note("(DFC checks committed-instruction signatures: pure data-value"
              " corruptions escape, bounding coverage)");
}

}  // namespace clear::bench
