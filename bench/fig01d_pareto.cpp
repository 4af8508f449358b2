// Fig. 1d: the full design-space cloud -- energy cost vs % of SDC-causing
// errors protected, for every valid cross-layer combination -- produced
// by the exploration engine (src/explore).  Emits the full dataset to
// fig01d_<core>.csv and prints the Pareto frontier.
#include "bench/common.h"

#include <fstream>

#include "explore/explore.h"

namespace clear::bench {
namespace {

void explore_core(const std::string& cn) {
  // The figure wants the whole cloud: pruning off, every combination
  // evaluated (the engine shares its campaigns with pruned runs through
  // the cache pack either way).
  explore::ExploreSpec spec;
  spec.core = cn;
  spec.target = 50.0;
  spec.prune = false;
  const explore::Ledger ledger = explore::run_exploration(spec, "");
  const std::string path = "fig01d_" + cn + ".csv";
  {
    std::ofstream out(path);
    out << "combo,kind,target,met,energy_pct,sdc_protected_pct,sdc_imp,"
           "due_imp\n";
    for (const auto& p : ledger.records) {
      out << '"' << p.combo << "\"," << explore::record_kind_name(p.kind)
          << ',' << p.target << ',' << p.target_met << ',' << p.energy * 100
          << ',' << p.sdc_protected_pct << ',' << p.imp_sdc << ','
          << p.imp_due << '\n';
    }
  }
  // The header's 586 counts combinations: the evaluated points, not the
  // two fixed-reference anchor records per core.
  std::size_t points = 0, anchors = 0;
  for (const auto& p : ledger.records) {
    points += p.kind == explore::RecordKind::kPoint ? 1 : 0;
    anchors += p.kind == explore::RecordKind::kAnchor ? 1 : 0;
  }
  std::printf("\n%s: %zu combinations evaluated, %zu anchors -> %s\n",
              cn.c_str(), points, anchors, path.c_str());

  bench::TextTable t({"Pareto combos (by energy)", "Energy",
                      "% SDC protected", "SDC imp"});
  int shown = 0;
  for (const auto* p : explore::pareto_frontier(ledger)) {
    t.add_row({p->combo, bench::TextTable::pct(p->energy * 100),
               bench::TextTable::pct(p->sdc_protected_pct),
               bench::TextTable::factor(p->imp_sdc)});
    if (++shown >= 12) break;
  }
  t.print(std::cout);
}

}  // namespace

void fig01d_pareto() {
  bench::header("Fig. 1d", "Design-space exploration: 586 combinations");
  explore_core("InO");
  explore_core("OoO");
  bench::note("(paper's qualitative result: optimized DICE+parity+recovery"
              " combinations dominate the low-cost frontier; most cross-"
              "layer combinations are far costlier -- the engine's pruning"
              " skips exactly those)");
}

}  // namespace clear::bench
