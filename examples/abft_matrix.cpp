// ABFT for matrix workloads (the paper's Sec. 3.2 scenario): when the
// application space is restricted to matrix algorithms, Algorithm-Based
// Fault Tolerance correction combines with selective hardening for extra
// savings -- and ABFT detection does not.
//
//   $ ./abft_matrix
#include <cstdio>

#include "core/combos.h"
#include "isa/assembler.h"
#include "isa/iss.h"
#include "workloads/workloads.h"

int main() {
  using namespace clear;

  // 1. Show ABFT correction doing its job on one kernel.
  std::printf("=== ABFT correction demo: inner_product ===\n");
  const auto base = isa::assemble(workloads::build_benchmark("inner_product"));
  const auto abft =
      isa::assemble(workloads::build_abft_variant("inner_product"));
  const auto rb = isa::run_program(base);
  const auto ra = isa::run_program(abft);
  std::printf("base result: %u (%llu instructions)\n", rb.output[0],
              static_cast<unsigned long long>(rb.steps));
  std::printf("ABFT result: %u (%llu instructions, %+.1f%% overhead)\n",
              ra.output[0], static_cast<unsigned long long>(ra.steps),
              100.0 * (static_cast<double>(ra.steps) /
                           static_cast<double>(rb.steps) -
                       1.0));

  // 2. Corrupt a partial sum mid-run: the checksum verification recomputes
  // the damaged segment in place -- no external recovery involved.
  isa::Machine m(abft);
  std::uint64_t step = 0;
  m.pre_exec_hook = [&](isa::Machine& mm, const isa::Instr&) {
    if (step++ == 60) mm.set_reg(5, mm.reg(5) ^ 0x00400000u);
  };
  while (m.step()) {
  }
  std::printf("corrupted run: status=%s, output %s (in-place correction)\n",
              isa::run_status_name(m.status()),
              !m.output().empty() && m.output()[0] == ra.output[0]
                  ? "CORRECT"
                  : "corrupt");

  // 3. Cross-layer: ABFT correction + DICE + parity + flush vs the
  // general-purpose combination, on the matrix benchmarks (Table 21).
  std::printf("\n=== cross-layer costs on the InO core (50x SDC) ===\n");
  core::Session session("InO");
  core::Selector selector(session);
  core::Combo general;
  general.dice = true;
  general.parity = true;
  general.recovery = arch::RecoveryKind::kFlush;
  core::Combo with_abft = general;
  with_abft.abft = workloads::AbftKind::kCorrection;
  core::Combo with_det = general;
  with_det.abft = workloads::AbftKind::kDetection;
  with_det.recovery = arch::RecoveryKind::kNone;

  for (const auto& [name, combo] :
       {std::pair<const char*, core::Combo>{"DICE+parity+flush", general},
        {"ABFTcorr + DICE+parity+flush", with_abft},
        {"ABFTdet + DICE+parity (no rec)", with_det}}) {
    session.prefetch(core::combo_variants(combo));
    const auto p = core::evaluate_combo(session, selector, combo, 50.0);
    std::printf("%-34s energy %6.2f%%  SDC %8.1fx  DUE %6.1fx\n", name,
                p.energy * 100, p.imp.sdc, p.imp.due);
  }
  std::printf(
      "\n(Sec. 3.2.1 caveat: general-purpose processors would need LEAP-ctrl"
      " dual-mode\n cells to exploit ABFT, which is impractical -- see"
      " Table 21 in paper_tables)\n");
  return 0;
}
