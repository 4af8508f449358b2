// Cross-validation of the two microarchitectural models against the ISS
// golden model, plus targeted pipeline-behaviour tests.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "arch/core.h"
#include "isa/assembler.h"
#include "isa/iss.h"
#include "soft/transforms.h"
#include "assemble_text.h"

namespace {

using namespace clear;

// Committed instructions per cycle of a run (0 for a run of no cycles).
double ipc(const arch::CoreRunResult& r) {
  return r.cycles ? static_cast<double>(r.instrs) /
                        static_cast<double>(r.cycles)
                  : 0.0;
}

const char* kSumLoop = R"(
  .text
    addi r1, r0, 25
    addi r2, r0, 0
  loop:
    add r2, r2, r1
    addi r1, r1, -1
    bne r1, r0, loop
    out r2
    halt 0
)";

const char* kMemProgram = R"(
  .data
  arr: .word 7, 3, 9, 1, 5, 8, 2, 6
  res: .space 1
  .text
    la r1, arr
    addi r2, r0, 0
    addi r3, r0, 8
  loop:
    lw r4, 0(r1)
    add r2, r2, r4
    addi r1, r1, 4
    addi r3, r3, -1
    bne r3, r0, loop
    la r5, res
    sw r2, 0(r5)
    lw r6, 0(r5)
    out r6
    halt 0
)";

const char* kCallProgram = R"(
  .text
    addi r4, r0, 3
    addi r5, r0, 0
  outer:
    call square
    add r5, r5, r6
    addi r4, r4, -1
    bne r4, r0, outer
    out r5
    halt 0
  square:
    mul r6, r4, r4
    ret
)";

const char* kMulDivProgram = R"(
  .text
    addi r1, r0, 1000
    addi r2, r0, 7
    mul r3, r1, r2
    div r4, r3, r2
    rem r5, r3, r1
    mulh r6, r3, r3
    out r3
    out r4
    out r5
    out r6
    halt 0
)";

const char* kByteProgram = R"(
  .data
  buf: .space 4
  .text
    la r1, buf
    addi r2, r0, 200
    sb r2, 1(r1)
    sb r2, 6(r1)
    lbu r3, 1(r1)
    lb r4, 6(r1)
    out r3
    out r4
    halt 0
)";

class CoreParity : public ::testing::TestWithParam<const char*> {};

TEST_P(CoreParity, MatchesIssOnBothCores) {
  const auto prog = isa::assemble_text(GetParam());
  const auto golden = isa::run_program(prog);
  ASSERT_EQ(golden.status, isa::RunStatus::kHalted);

  for (auto maker : {arch::make_ino_core, arch::make_ooo_core}) {
    auto core = maker();
    const auto r = core->run_clean(prog);
    EXPECT_EQ(r.status, isa::RunStatus::kHalted) << core->name();
    EXPECT_EQ(r.output, golden.output) << core->name();
    EXPECT_EQ(r.exit_code, golden.exit_code) << core->name();
    EXPECT_EQ(r.instrs, golden.steps) << core->name();
    EXPECT_GT(r.cycles, 0u) << core->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, CoreParity,
                         ::testing::Values(kSumLoop, kMemProgram, kCallProgram,
                                           kMulDivProgram, kByteProgram));

TEST(InOCore, RegistryIsLeonClass) {
  auto core = arch::make_ino_core();
  const auto n = core->registry().ff_count();
  // Same order of magnitude as the Leon3's 1,250 flip-flops (Table 1).
  EXPECT_GT(n, 800u);
  EXPECT_LT(n, 2500u);
}

TEST(OoOCore, RegistryIsIvmClass) {
  auto core = arch::make_ooo_core();
  const auto n = core->registry().ff_count();
  // Same order of magnitude as the IVM's 13,819 flip-flops (Table 1).
  EXPECT_GT(n, 8000u);
  EXPECT_LT(n, 20000u);
}

// Plan resolution reads the FF count without building a core per call.
TEST(Cores, FfCountMatchesTheRegistry) {
  for (const char* name : {"InO", "OoO"}) {
    EXPECT_EQ(arch::core_ff_count(name),
              arch::make_core(name)->registry().ff_count())
        << name;
  }
  EXPECT_EQ(arch::core_ff_count("Leon3"), 0u);
}

TEST(InOCore, IpcIsLow) {
  const auto prog = isa::assemble_text(kMemProgram);
  auto core = arch::make_ino_core();
  const auto r = core->run_clean(prog);
  // Paper Table 1: InO IPC ~0.4; the in-order model should be well below 1.
  EXPECT_LT(ipc(r), 0.8);
  EXPECT_GT(ipc(r), 0.15);
}

TEST(OoOCore, IpcBeatsInO) {
  const auto prog = isa::assemble_text(kSumLoop);
  auto ino = arch::make_ino_core();
  auto ooo = arch::make_ooo_core();
  const auto ri = ino->run_clean(prog);
  const auto ro = ooo->run_clean(prog);
  EXPECT_GT(ipc(ro), ipc(ri));
}

TEST(Cores, WatchdogProducesHang) {
  const auto prog = isa::assemble_text(".text\nspin: j spin\n");
  for (auto maker : {arch::make_ino_core, arch::make_ooo_core}) {
    auto core = maker();
    const auto r = core->run(prog, nullptr, nullptr, 500);
    EXPECT_EQ(r.status, isa::RunStatus::kWatchdog);
  }
}

TEST(Cores, TrapsPropagate) {
  const auto prog = isa::assemble_text(R"(
    .text
      addi r1, r0, 5
      div r2, r1, r0
      halt 0
  )");
  for (auto maker : {arch::make_ino_core, arch::make_ooo_core}) {
    auto core = maker();
    const auto r = core->run_clean(prog);
    EXPECT_EQ(r.status, isa::RunStatus::kTrapped) << core->name();
    EXPECT_EQ(r.trap, isa::Trap::kDivByZero) << core->name();
  }
}

TEST(Cores, DeterministicAcrossRuns) {
  const auto prog = isa::assemble_text(kCallProgram);
  for (auto maker : {arch::make_ino_core, arch::make_ooo_core}) {
    auto core = maker();
    const auto a = core->run_clean(prog);
    const auto b = core->run_clean(prog);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.instrs, b.instrs);
  }
}

TEST(Cores, InjectionIntoStateCanChangeOutcome) {
  // Flip every bit of the InO fetch PC at cycle 3 one at a time: at least
  // one flip must produce a non-Vanished outcome (sanity that injection
  // actually reaches live state).
  const auto prog = isa::assemble_text(kMemProgram);
  auto core = arch::make_ino_core();
  const auto clean = core->run_clean(prog);
  int affected = 0;
  const auto& structures = core->registry().structures();
  const auto* fpc = &structures[0];
  ASSERT_EQ(fpc->name, "f.pc");
  for (std::uint32_t b = 0; b < fpc->width; ++b) {
    const auto plan = arch::InjectionPlan::single(3, fpc->first_ff + b);
    const auto r = core->run(prog, nullptr, &plan, clean.cycles * 2);
    if (r.status != isa::RunStatus::kHalted || r.output != clean.output) {
      ++affected;
    }
  }
  EXPECT_GT(affected, 4);
}

TEST(Cores, InjectionIntoDeadStateVanishes) {
  // Flips in the InO diagnostic register (x.debug) must never affect
  // program outcome: it is written every cycle and read by nothing.
  const auto prog = isa::assemble_text(kSumLoop);
  auto core = arch::make_ino_core();
  const auto clean = core->run_clean(prog);
  const arch::FFStructure* dbg = nullptr;
  for (const auto& s : core->registry().structures()) {
    if (s.name == "x.debug") dbg = &s;
  }
  ASSERT_NE(dbg, nullptr);
  for (std::uint32_t b = 0; b < dbg->width; b += 7) {
    for (std::uint64_t c = 2; c < clean.cycles; c += clean.cycles / 5) {
      const auto plan = arch::InjectionPlan::single(c, dbg->first_ff + b);
      const auto r = core->run(prog, nullptr, &plan, clean.cycles * 2);
      EXPECT_EQ(r.status, isa::RunStatus::kHalted);
      EXPECT_EQ(r.output, clean.output);
    }
  }
}

TEST(Cores, OpcodeFlipsNeverCrashTheSimulator) {
  // Regression: a flip in an execute-pipe opcode latch can morph an ALU op
  // into a divide; with a zero operand this must raise the architectural
  // div-by-zero trap, not a host SIGFPE.  Sweep flips over every bit of
  // the opcode-carrying structures on both cores.
  const auto prog = isa::assemble_text(R"(
    .text
      addi r1, r0, 0
      addi r2, r0, 7
      add r3, r2, r1
      sub r4, r2, r1
      out r3
      out r4
      halt 0
  )");
  for (auto maker : {arch::make_ino_core, arch::make_ooo_core}) {
    auto core = maker();
    const auto clean = core->run_clean(prog);
    for (const auto& s : core->registry().structures()) {
      if (s.name.find(".op") == std::string::npos) continue;
      for (std::uint32_t b = 0; b < s.width; ++b) {
        for (std::uint64_t c = 1; c < clean.cycles; c += 3) {
          const auto plan = arch::InjectionPlan::single(c, s.first_ff + b);
          const auto r = core->run(prog, nullptr, &plan, clean.cycles * 2);
          (void)r;  // any outcome is fine; the host must survive
        }
      }
    }
  }
  SUCCEED();
}

TEST(Cores, MakeCoreByName) {
  EXPECT_NE(arch::make_core("InO"), nullptr);
  EXPECT_NE(arch::make_core("OoO"), nullptr);
  EXPECT_EQ(arch::make_core("bogus"), nullptr);
}

TEST(Cores, SegmentedExecutionMatchesMonolithic) {
  // Driving a run through many small step_to() segments must be
  // bit-identical to a single run() call.
  const auto prog = isa::assemble_text(kMemProgram);
  for (auto maker : {arch::make_ino_core, arch::make_ooo_core}) {
    auto core = maker();
    const auto mono = core->run_clean(prog);
    core->begin(prog, nullptr, nullptr);
    while (core->step_to(core->cycle() + 37, 20'000'000)) {
    }
    const auto seg = core->current_result();
    EXPECT_EQ(seg.status, mono.status) << core->name();
    EXPECT_EQ(seg.cycles, mono.cycles) << core->name();
    EXPECT_EQ(seg.instrs, mono.instrs) << core->name();
    EXPECT_EQ(seg.output, mono.output) << core->name();
  }
}

TEST(Cores, SnapshotRestoreResumesBitExactly) {
  const auto prog = isa::assemble_text(kCallProgram);
  for (auto maker : {arch::make_ino_core, arch::make_ooo_core}) {
    auto core = maker();
    const auto full = core->run_clean(prog);
    ASSERT_EQ(full.status, isa::RunStatus::kHalted) << core->name();

    core->begin(prog, nullptr, nullptr);
    ASSERT_TRUE(core->step_to(full.cycles / 2, 20'000'000)) << core->name();
    arch::CoreCheckpoint cp;
    core->snapshot(&cp);

    // Resume on a *different* instance of the same model.
    auto other = maker();
    other->begin(prog, nullptr, nullptr);
    other->restore(cp, nullptr);
    EXPECT_EQ(other->cycle(), cp.cycle) << core->name();
    EXPECT_TRUE(other->state_matches(cp)) << core->name();
    other->step_to(20'000'000, 20'000'000);
    const auto resumed = other->current_result();
    EXPECT_EQ(resumed.status, full.status) << core->name();
    EXPECT_EQ(resumed.cycles, full.cycles) << core->name();
    EXPECT_EQ(resumed.instrs, full.instrs) << core->name();
    EXPECT_EQ(resumed.output, full.output) << core->name();
  }
}

TEST(Cores, RestoredFaultyRunMatchesFromCycleZero) {
  // Fork semantics: restoring a mid-run snapshot and arming a flip after
  // the snapshot cycle must reproduce the from-cycle-0 faulty run exactly,
  // for live and dead targets alike.
  const auto prog = isa::assemble_text(kMemProgram);
  for (auto maker : {arch::make_ino_core, arch::make_ooo_core}) {
    auto core = maker();
    const auto clean = core->run_clean(prog);
    const std::uint64_t snap_cycle = clean.cycles / 3;
    core->begin(prog, nullptr, nullptr);
    ASSERT_TRUE(core->step_to(snap_cycle, 20'000'000));
    arch::CoreCheckpoint cp;
    core->snapshot(&cp);

    const std::uint32_t ffs = core->registry().ff_count();
    for (std::uint32_t ff = 0; ff < ffs; ff += ffs / 23) {
      const auto plan =
          arch::InjectionPlan::single(snap_cycle + 5, ff % ffs);
      const auto slow = core->run(prog, nullptr, &plan, clean.cycles * 2);
      core->begin(prog, nullptr, nullptr);
      core->restore(cp, &plan);
      core->step_to(clean.cycles * 2, clean.cycles * 2);
      const auto fast = core->current_result();
      EXPECT_EQ(fast.status, slow.status) << core->name() << " ff " << ff;
      EXPECT_EQ(fast.cycles, slow.cycles) << core->name() << " ff " << ff;
      EXPECT_EQ(fast.output, slow.output) << core->name() << " ff " << ff;
      EXPECT_EQ(fast.instrs, slow.instrs) << core->name() << " ff " << ff;
    }
  }
}

TEST(Cores, RecoveryEndingsPerCore) {
  // How each core ends a detected upset under each recovery kind.  Every
  // FF is EDS-protected, so the flip is detected in the cycle it lands.
  // A core's own pipeline mechanism (InO flush, OoO RoB) repairs only
  // flushable FFs and refuses the other core's; IR/EIR roll back on both.
  // The last rows put the same fetch-PC flip under DFC instead of EDS:
  // only EIR's replay buffers recover a DFC detection.
  using arch::DetectionSource;
  using arch::RecoveryKind;
  using isa::RunStatus;
  const auto prog = soft::apply_dfc(isa::parse_asm(kMemProgram));
  struct Case {
    const char* core;
    const char* ff;  // structure name; bit 3 flips at cycle 5
    RecoveryKind rec;
    bool dfc;  // DFC checker instead of EDS on every FF
    RunStatus status;
    DetectionSource by;
    std::uint32_t recoveries;
  };
  constexpr auto kOk = RunStatus::kHalted;
  constexpr auto kDet = RunStatus::kDetected;
  constexpr auto kEds = DetectionSource::kEds;
  constexpr auto kDfc = DetectionSource::kDfc;
  constexpr auto kNoDet = DetectionSource::kNone;
  const Case cases[] = {
      // InO: f.pc is flushable, w.s.npc (the committed next-PC) is not.
      {"InO", "f.pc", RecoveryKind::kNone, false, kDet, kEds, 0},
      {"InO", "f.pc", RecoveryKind::kFlush, false, kOk, kNoDet, 1},
      {"InO", "f.pc", RecoveryKind::kRob, false, kDet, kEds, 0},
      {"InO", "f.pc", RecoveryKind::kIr, false, kOk, kNoDet, 1},
      {"InO", "f.pc", RecoveryKind::kEir, false, kOk, kNoDet, 1},
      {"InO", "w.s.npc", RecoveryKind::kNone, false, kDet, kEds, 0},
      {"InO", "w.s.npc", RecoveryKind::kFlush, false, kDet, kEds, 0},
      {"InO", "w.s.npc", RecoveryKind::kRob, false, kDet, kEds, 0},
      {"InO", "w.s.npc", RecoveryKind::kIr, false, kOk, kNoDet, 1},
      {"InO", "w.s.npc", RecoveryKind::kEir, false, kOk, kNoDet, 1},
      {"InO", "f.pc", RecoveryKind::kIr, true, kDet, kDfc, 0},
      {"InO", "f.pc", RecoveryKind::kEir, true, kOk, kNoDet, 1},
      // OoO: RF0.PCreg is flushable, the commit anchor is not.
      {"OoO", "RF0.PCreg", RecoveryKind::kNone, false, kDet, kEds, 0},
      {"OoO", "RF0.PCreg", RecoveryKind::kFlush, false, kDet, kEds, 0},
      {"OoO", "RF0.PCreg", RecoveryKind::kRob, false, kOk, kNoDet, 1},
      {"OoO", "RF0.PCreg", RecoveryKind::kIr, false, kOk, kNoDet, 1},
      {"OoO", "RF0.PCreg", RecoveryKind::kEir, false, kOk, kNoDet, 1},
      {"OoO", "regs.wb.wb.flushpc", RecoveryKind::kNone, false, kDet, kEds, 0},
      {"OoO", "regs.wb.wb.flushpc", RecoveryKind::kFlush, false, kDet, kEds, 0},
      {"OoO", "regs.wb.wb.flushpc", RecoveryKind::kRob, false, kDet, kEds, 0},
      {"OoO", "regs.wb.wb.flushpc", RecoveryKind::kIr, false, kOk, kNoDet, 1},
      {"OoO", "regs.wb.wb.flushpc", RecoveryKind::kEir, false, kOk, kNoDet, 1},
      {"OoO", "RF0.PCreg", RecoveryKind::kIr, true, kDet, kDfc, 0},
      {"OoO", "RF0.PCreg", RecoveryKind::kEir, true, kOk, kNoDet, 1},
  };
  for (const Case& tc : cases) {
    auto core = arch::make_core(tc.core);
    const auto clean = core->run_clean(prog);
    const arch::FFStructure* target = nullptr;
    for (const auto& s : core->registry().structures()) {
      if (s.name == tc.ff) target = &s;
    }
    ASSERT_NE(target, nullptr) << tc.ff;
    arch::ResilienceConfig cfg;
    cfg.recovery = tc.rec;
    cfg.dfc = tc.dfc;
    if (!tc.dfc) {
      cfg.prot.assign(core->registry().ff_count(), arch::FFProt::kEds);
    }
    const auto plan = arch::InjectionPlan::single(5, target->first_ff + 3);
    const auto r = core->run(prog, &cfg, &plan, clean.cycles * 4);
    const std::string what = std::string(tc.core) + " " + tc.ff + " " +
                             arch::recovery_name(tc.rec) +
                             (tc.dfc ? " dfc" : " eds");
    EXPECT_EQ(r.status, tc.status) << what;
    EXPECT_EQ(r.detected_by, tc.by) << what;
    EXPECT_EQ(r.recoveries, tc.recoveries) << what;
    if (tc.status == kOk) {
      EXPECT_EQ(r.output, clean.output) << what;
    }
  }
}

TEST(Cores, StateMatchesTracksConvergence) {
  // Two independent instances following the same program hold the same
  // forward state at every boundary, each checked against a snapshot of
  // the other; a corrupted run differs while the corruption is live.
  const auto prog = isa::assemble_text(kSumLoop);
  auto a = arch::make_ino_core();
  auto b = arch::make_ino_core();
  const auto clean = a->run_clean(prog);
  a->begin(prog, nullptr, nullptr);
  b->begin(prog, nullptr, nullptr);
  arch::CoreCheckpoint ca, cb;
  for (std::uint64_t c = 8; c < clean.cycles; c += 8) {
    const bool ra = a->step_to(c, 20'000'000);
    const bool rb = b->step_to(c, 20'000'000);
    ASSERT_EQ(ra, rb);
    a->snapshot(&ca);
    b->snapshot(&cb);
    EXPECT_TRUE(b->state_matches(ca)) << "cycle " << c;
    EXPECT_TRUE(a->state_matches(cb)) << "cycle " << c;
    if (!ra) break;
  }
  // Corrupt b's fetch PC mid-run (bit 31: the bogus fetch takes several
  // cycles to reach writeback): the states must differ at the next check
  // while the run is still live.
  const auto plan = arch::InjectionPlan::single(4, 31);
  a->begin(prog, nullptr, nullptr);
  b->begin(prog, nullptr, &plan);
  a->step_to(6, 20'000'000);
  ASSERT_TRUE(b->step_to(6, 20'000'000));
  a->snapshot(&ca);
  b->snapshot(&cb);
  EXPECT_FALSE(b->state_matches(ca));
  EXPECT_FALSE(a->state_matches(cb));
  EXPECT_TRUE(a->quiescent());
  EXPECT_TRUE(b->quiescent());  // flip applied, nothing pending
}

}  // namespace
