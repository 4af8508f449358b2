// Fig. 8: ABFT correction vs ABFT detection -- per-benchmark SDC/DUE
// improvement scatter (detection cannot improve DUE).
#include "bench/common.h"

namespace clear::bench {

void fig08_abft_scatter() {
  bench::header("Fig. 8", "ABFT correction vs detection (per benchmark)");
  bench::TextTable t(
      {"Benchmark", "Kind", "SDC improvement", "DUE improvement"});
  auto& s = bench::session("InO");
  const auto& base = s.profiles(core::Variant::base());
  for (const auto kind :
       {workloads::AbftKind::kCorrection, workloads::AbftKind::kDetection}) {
    core::Variant v;
    v.abft = kind;
    const auto& prof = s.profiles(v);
    for (const auto& bp : prof.benches) {
      for (const auto& bb : base.benches) {
        if (bb.benchmark != bp.benchmark) continue;
        const double g = core::gamma_correction(
            0.0, static_cast<double>(bp.campaign.nominal_cycles) /
                         static_cast<double>(bp.base_cycles) -
                     1.0);
        const auto imp = core::improvement(
            core::mass_of(bb.campaign.totals),
            core::mass_of(bp.campaign.totals), g);
        t.add_row({bp.benchmark,
                   kind == workloads::AbftKind::kCorrection ? "correction"
                                                            : "detection",
                   bench::TextTable::factor(imp.sdc),
                   bench::TextTable::factor(imp.due)});
      }
    }
  }
  t.print(std::cout);
  bench::note("(paper Fig. 8: correction points sit at DUE >= 1, detection"
              " points at DUE < 1 -- every detected error becomes a DUE)");
}

}  // namespace clear::bench
