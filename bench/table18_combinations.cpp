// Table 18: the 586 cross-layer combinations.
#include "bench/common.h"

namespace clear::bench {
namespace {

void count_rows(const std::string& cn, bench::TextTable* t) {
  const auto combos = core::enumerate_combos(cn);
  int no_rec = 0, squash = 0, replay = 0, abft_alone = 0, abft_corr = 0,
      abft_det = 0;
  for (const auto& c : combos) {
    const bool any = c.dice || c.eds || c.parity || c.dfc || c.assertions ||
                     c.cfcss || c.eddi || c.monitor;
    if (c.abft == workloads::AbftKind::kNone) {
      if (c.recovery == arch::RecoveryKind::kNone) ++no_rec;
      else if (c.recovery == arch::RecoveryKind::kFlush ||
               c.recovery == arch::RecoveryKind::kRob) ++squash;
      else ++replay;
    } else if (!any) {
      ++abft_alone;
    } else if (c.abft == workloads::AbftKind::kCorrection) {
      ++abft_corr;
    } else {
      ++abft_det;
    }
  }
  t->add_row({cn, std::to_string(no_rec), std::to_string(squash),
              std::to_string(replay), std::to_string(abft_alone),
              std::to_string(abft_corr), std::to_string(abft_det),
              std::to_string(combos.size())});
}

}  // namespace

void table18_combinations() {
  bench::header("Table 18", "Creating the 586 cross-layer combinations");
  bench::TextTable t({"Core", "No rec.", "Flush/RoB", "IR/EIR", "ABFT alone",
                      "+ABFT corr.", "+ABFT det.", "Total"});
  count_rows("InO", &t);
  count_rows("OoO", &t);
  t.print(std::cout);
  const auto total =
      core::enumerate_combos("InO").size() + core::enumerate_combos("OoO").size();
  std::printf("combined total: %zu (paper: 586 = 417 InO + 169 OoO)\n", total);
}

}  // namespace clear::bench
