// Table 7: parity grouping heuristics, protecting every InO flip-flop.
#include "bench/common.h"

#include "phys/phys.h"
#include "resilience/parity.h"

namespace clear::bench {

void table07_parity_heuristics() {
  bench::header("Table 7", "Parity heuristics (all InO FFs protected)");
  auto proto = arch::make_core("InO");
  phys::PhysModel model(*proto);
  auto& s = bench::session("InO");
  const auto& base = s.profiles(core::Variant::base());
  std::vector<double> vuln(base.ff_count);
  for (std::uint32_t f = 0; f < base.ff_count; ++f) {
    vuln[f] = static_cast<double>(base.ff_sdc[f] + base.ff_due[f]);
  }
  std::vector<std::uint32_t> all(base.ff_count);
  for (std::uint32_t f = 0; f < base.ff_count; ++f) all[f] = f;

  bench::TextTable t({"Heuristic", "Paper area/energy", "Area cost",
                      "Power/energy cost", "Groups", "Pipelined"});
  auto row = [&](const char* name, const char* paper,
                 resilience::ParityHeuristic h, std::size_t bits) {
    const auto plan =
        resilience::build_parity_plan(model, all, h, bits, vuln);
    const auto oh = model.parity_overhead(plan);
    std::size_t piped = 0;
    for (const auto& g : plan.groups) piped += g.pipelined;
    t.add_row({name, paper, bench::TextTable::pct(oh.area * 100),
               bench::TextTable::pct(oh.power * 100),
               std::to_string(plan.groups.size()), std::to_string(piped)});
  };
  row("Vulnerability (4-bit)", "15.2% / 42%",
      resilience::ParityHeuristic::kVulnerability, 4);
  row("Vulnerability (8-bit)", "13.4% / 29.8%",
      resilience::ParityHeuristic::kVulnerability, 8);
  row("Vulnerability (16-bit)", "13.3% / 27.9%",
      resilience::ParityHeuristic::kVulnerability, 16);
  row("Vulnerability (32-bit)", "14.6% / 35.3%",
      resilience::ParityHeuristic::kVulnerability, 32);
  row("Locality (16-bit)", "13.4% / 29.4%",
      resilience::ParityHeuristic::kLocality, 16);
  row("Timing (16-bit)", "11.5% / 26.8%",
      resilience::ParityHeuristic::kTiming, 16);
  row("Optimized (16/32)", "10.9% / 23.1%",
      resilience::ParityHeuristic::kOptimized, 16);
  t.print(std::cout);
}

}  // namespace clear::bench
