// Tables 23/24 (trained vs validated improvement of standalone high-level
// techniques) and Tables 25/26 (LHL backfill for tunable selections).
#include "bench/common.h"

namespace clear::bench {
namespace {

void tv_row(bench::TextTable* t, const std::string& cn, const char* name,
            const char* paper, const core::Variant& v, core::Metric m) {
  const auto tv =
      core::standalone_train_validate(bench::session(cn), v, m, 50, 99);
  char p[32];
  std::snprintf(p, sizeof(p), "%.1e", tv.p_value);
  t->add_row({cn, name, paper, bench::TextTable::factor(tv.trained),
              bench::TextTable::factor(tv.validated),
              bench::TextTable::pct(tv.underestimate_pct), p});
}

}  // namespace

void table23_26_benchdep() {
  for (const core::Metric m : {core::Metric::kSdc, core::Metric::kDue}) {
    const bool sdc = m == core::Metric::kSdc;
    bench::header(sdc ? "Table 23" : "Table 24",
                  sdc ? "Trained vs validated SDC improvement (standalone)"
                      : "Trained vs validated DUE improvement (standalone)");
    bench::TextTable t({"Core", "Technique", "Paper train/val", "Train",
                        "Validate", "Under-estimate", "p-value"});
    {
      core::Variant v;
      v.dfc = true;
      tv_row(&t, "InO", "DFC", sdc ? "1.3x/1.2x" : "1.4x/1.3x", v, m);
    }
    {
      core::Variant v;
      v.assertions = true;
      tv_row(&t, "InO", "Assertions", sdc ? "1.5x/1.4x" : "0.6x/0.6x", v, m);
    }
    {
      core::Variant v;
      v.cfcss = true;
      tv_row(&t, "InO", "CFCSS", sdc ? "1.6x/1.5x" : "0.6x/0.6x", v, m);
    }
    {
      core::Variant v;
      v.eddi = true;
      tv_row(&t, "InO", "EDDI", sdc ? "37.8x/30.4x" : "0.4x/0.4x", v, m);
    }
    {
      core::Variant v;
      v.dfc = true;
      tv_row(&t, "OoO", "DFC", sdc ? "1.3x/1.2x" : "1.4x/1.3x", v, m);
    }
    {
      core::Variant v;
      v.monitor = true;
      tv_row(&t, "OoO", "Monitor core", sdc ? "19.6x/17.5x" : "15.2x/13.9x",
             v, m);
    }
    t.print(std::cout);
  }

  for (const core::Metric m : {core::Metric::kSdc, core::Metric::kDue}) {
    const bool sdc = m == core::Metric::kSdc;
    bench::header(sdc ? "Table 25" : "Table 26",
                  sdc ? "SDC: LHL backfill restores validated targets"
                      : "DUE: LHL backfill restores validated targets");
    for (const char* cn : {"InO", "OoO"}) {
      std::printf("\n--- %s core ---\n", cn);
      bench::TextTable t({"Target", "Train", "Validate", "After LHL",
                          "Area before", "Power before", "Area after",
                          "Power after"});
      for (const double target : {5.0, 10.0, 20.0, 50.0, 500.0}) {
        const auto row = core::lhl_backfill_row(
            bench::session(cn), bench::selector(cn), target, m, 10, 99);
        t.add_row({bench::TextTable::factor(target),
                   bench::TextTable::factor(row.trained),
                   bench::TextTable::factor(row.validated),
                   bench::TextTable::factor(row.after_lhl),
                   bench::TextTable::pct(row.area_before * 100),
                   bench::TextTable::pct(row.power_before * 100),
                   bench::TextTable::pct(row.area_after * 100),
                   bench::TextTable::pct(row.power_after * 100)});
      }
      t.print(std::cout);
    }
    bench::note("(paper InO @50x SDC: train 50x, validate 38.9x, after LHL"
                " 152.3x at +1.2% power)");
  }
}

}  // namespace clear::bench
