// paper_tables: prints every reproduced table and figure of the paper's
// evaluation, in paper order, each next to the paper-reported values.
//
//   ./paper_tables
//
// Takes no flags.  Campaigns are memoized in CLEAR_CACHE_DIR, so a second
// run on the same cache only reads; stdout is byte-identical either way
// and at any CLEAR_THREADS.  Figs. 1d, 9 and 10 also write their series
// as CSV files into the working directory.
#include <cstdio>
#include <exception>

#include "bench/common.h"

int main() {
  using namespace clear::bench;
  try {
    for (const auto print :
         {fig01d_pareto, table01_designs, table02_ff_vulnerability,
          table03_standalone, table04_cell_library, table05_06_spacing,
          table07_parity_heuristics, table08_dfc_coverage,
          table09_monitor_ipc, table10_assertions,
          table11_14_injection_levels, table12_cfcss, table13_eddi_readback,
          table15_recovery, table16_selective_eddi, table17_tunable,
          table18_combinations, table19_crosslayer, table20_joint,
          fig08_abft_scatter, table21_22_abft, fig09_10_bounds,
          table23_26_benchdep, table27_similarity}) {
      print();
    }
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "paper_tables: %s\n", e.what());
    return 1;
  }
  return 0;
}
