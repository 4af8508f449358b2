// Tables 5 & 6: flip-flop spacing distributions -- baseline layout vs the
// SEMU minimum-spacing constraint inside parity groups.
#include "bench/common.h"

#include "phys/phys.h"
#include "resilience/parity.h"

namespace clear::bench {

void table05_06_spacing() {
  bench::header("Tables 5+6", "FF spacing: baseline vs parity-group layout");
  static const char* kBins[5] = {"< 1 FF length (SEMU-vulnerable)",
                                 "1 - 2 lengths", "2 - 3 lengths",
                                 "3 - 4 lengths", "> 4 lengths"};
  const double paper5[2][5] = {{65.2, 30.0, 3.7, 0.6, 0.5},
                               {42.2, 30.6, 18.4, 3.5, 5.3}};
  const double paper6[2][5] = {{0.0, 7.8, 5.3, 3.4, 83.3},
                               {0.0, 8.8, 10.6, 18.3, 62.2}};
  int ci = 0;
  for (const char* cn : {"InO", "OoO"}) {
    auto proto = arch::make_core(cn);
    phys::PhysModel model(*proto);
    const auto base = model.baseline_spacing_histogram();

    std::vector<std::uint32_t> all;
    for (std::uint32_t f = 0; f < proto->registry().ff_count(); ++f) {
      all.push_back(f);
    }
    const auto plan = resilience::build_parity_plan(
        model, all, resilience::ParityHeuristic::kOptimized);
    double avg = 0;
    const auto par = model.parity_spacing_histogram(plan, &avg);

    std::printf("\n--- %s core ---\n", cn);
    bench::TextTable t({"Distance", "Baseline paper", "Baseline ours",
                        "Parity-group paper", "Parity-group ours"});
    for (int b = 0; b < 5; ++b) {
      t.add_row({kBins[b], bench::TextTable::pct(paper5[ci][b]),
                 bench::TextTable::pct(base[b] * 100),
                 bench::TextTable::pct(paper6[ci][b]),
                 bench::TextTable::pct(par[b] * 100)});
    }
    t.print(std::cout);
    std::printf("average same-group spacing: %s FF lengths (paper: %s)\n",
                bench::TextTable::num(avg, 1).c_str(),
                ci == 0 ? "4.4" : "12.8");
    ++ci;
  }
}

}  // namespace clear::bench
