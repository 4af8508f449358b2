// Table 1: processor designs studied.
#include "bench/common.h"

#include "arch/core.h"

namespace clear::bench {

void table01_designs() {
  bench::header("Table 1", "Processor designs studied");
  bench::TextTable t({"Core", "Description", "Clk", "FFs (paper)", "FFs (ours)",
                      "Injections", "IPC (paper)", "IPC (ours)"});
  for (const char* name : {"InO", "OoO"}) {
    auto& s = bench::session(name);
    const auto& base = s.profiles(core::Variant::base());
    double ipc = 0;
    std::uint64_t injections = 0;
    for (const auto& b : base.benches) {
      ipc += static_cast<double>(b.campaign.nominal_instrs) /
             static_cast<double>(b.campaign.nominal_cycles);
      injections += b.campaign.totals.total();
    }
    ipc /= static_cast<double>(base.benches.size());
    auto proto = arch::make_core(name);
    t.add_row({name,
               std::string(name) == "InO" ? "simple, in-order (Leon3-class)"
                                          : "superscalar OoO (IVM-class)",
               bench::TextTable::num(proto->clock_ghz(), 1) + " GHz",
               std::string(name) == "InO" ? "1250" : "13819",
               std::to_string(proto->registry().ff_count()),
               std::to_string(injections),
               std::string(name) == "InO" ? "0.4" : "1.3",
               bench::TextTable::num(ipc, 2)});
  }
  t.print(std::cout);
  bench::note("(paper: 5.9M/3.5M injections via FPGA emulation; reduced-scale"
              " campaigns here, margins reported per bench)");
}

}  // namespace clear::bench
