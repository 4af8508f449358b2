// Table 15: hardware error recovery -- costs, latencies and coverage,
// plus an in-simulator demonstration of each mechanism.
#include "bench/common.h"

#include "engine/engine.h"
#include "inject/campaign.h"
#include "phys/phys.h"

namespace clear::bench {

void table15_recovery() {
  bench::header("Table 15", "Hardware error recovery");
  for (const char* cn : {"InO", "OoO"}) {
    auto proto = arch::make_core(cn);
    phys::PhysModel model(*proto);
    std::printf("\n--- %s core ---\n", cn);
    bench::TextTable t({"Type", "Area", "Power", "Latency (cycles)",
                        "Unrecoverable FF errors"});
    auto row = [&](const char* name, arch::RecoveryKind k,
                   const char* unrec) {
      const auto oh = model.recovery_overhead(k);
      t.add_row({name, bench::TextTable::pct(oh.area * 100, 2),
                 bench::TextTable::pct(oh.power * 100, 2),
                 bench::TextTable::num(model.recovery_latency_cycles(k), 0),
                 unrec});
    };
    if (std::string(cn) == "InO") {
      row("Instruction Replay (IR)", arch::RecoveryKind::kIr, "none");
      row("Extended IR (EIR)", arch::RecoveryKind::kEir, "none");
      row("Flush", arch::RecoveryKind::kFlush,
          "FFs after memory write stage");
    } else {
      row("Instruction Replay (IR)", arch::RecoveryKind::kIr, "none");
      row("Extended IR (EIR)", arch::RecoveryKind::kEir, "none");
      row("Reorder Buffer (RoB)", arch::RecoveryKind::kRob,
          "FFs after reorder buffer (store buffer)");
    }
    t.print(std::cout);
  }

  // In-simulator demonstration: full-EDS detection + each recovery.
  bench::note("\nIn-simulator recovery demonstration (gcc benchmark, full-EDS"
              " detection):");
  bench::TextTable d({"Core", "Recovery", "Injections", "Recovered", "ED",
                      "SDC left"});
  for (const char* cn : {"InO", "OoO"}) {
    const auto prog = core::build_variant_program("gcc", core::Variant::base());
    auto proto = arch::make_core(cn);
    for (const arch::RecoveryKind k :
         {std::string(cn) == "InO" ? arch::RecoveryKind::kFlush
                                   : arch::RecoveryKind::kRob,
          arch::RecoveryKind::kIr}) {
      arch::ResilienceConfig cfg;
      cfg.prot.assign(proto->registry().ff_count(), arch::FFProt::kEds);
      if (k == arch::RecoveryKind::kFlush || k == arch::RecoveryKind::kRob) {
        // Heuristic 1: unflushable state gets LEAP-DICE instead.
        for (const auto& st : proto->registry().structures()) {
          if (!st.flags.flushable) {
            for (std::uint32_t b = 0; b < st.width; ++b) {
              cfg.prot[st.first_ff + b] = arch::FFProt::kLeapDice;
            }
          }
        }
      }
      cfg.recovery = k;
      inject::CampaignSpec spec;
      spec.core_name = cn;
      spec.program = &prog;
      spec.injections = 1200;
      spec.cfg = &cfg;
      spec.key = std::string(cn) + "/gcc/rec_" + arch::recovery_name(k);
      const auto r = engine::run_campaign(spec);
      d.add_row({cn, arch::recovery_name(k),
                 std::to_string(r.totals.total()),
                 std::to_string(r.totals.recovered),
                 std::to_string(r.totals.ed), std::to_string(r.totals.sdc())});
    }
  }
  d.print(std::cout);
}

}  // namespace clear::bench
