// Table 9: the monitor (checker) core keeps up with the main OoO core.
#include "bench/common.h"

namespace clear::bench {

void table09_monitor_ipc() {
  bench::header("Table 9", "Monitor core vs main core throughput");
  auto& s = bench::session("OoO");
  const auto& base = s.profiles(core::Variant::base());
  double ipc = 0;
  for (const auto& b : base.benches) {
    ipc += static_cast<double>(b.campaign.nominal_instrs) /
           static_cast<double>(b.campaign.nominal_cycles);
  }
  ipc /= static_cast<double>(base.benches.size());

  // Monitor model: a simple 2 GHz in-order checker at IPC 0.7 (paper).
  const double mon_clk = 2.0, mon_ipc = 0.7, main_clk = 0.6;
  const double checker_rate_per_main_cycle = mon_clk / main_clk * mon_ipc;

  bench::TextTable t({"Design", "Clock", "IPC"});
  t.add_row({"OoO main core (paper 600 MHz, 1.3 IPC)", "600 MHz",
             bench::TextTable::num(ipc, 2)});
  t.add_row({"Monitor core (paper 2 GHz, 0.7 IPC)", "2 GHz",
             bench::TextTable::num(mon_ipc, 2)});
  t.print(std::cout);
  std::printf(
      "checker validation rate: %.2f instr/main-cycle >= commit width 2 -> "
      "no stall (paper's condition)\n",
      checker_rate_per_main_cycle);
  std::printf("main-core commit rate: %.2f instr/cycle\n", ipc);
}

}  // namespace clear::bench
