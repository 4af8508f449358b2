// Software-transformation tests: functional preservation, detection
// behaviour, overhead shape, and composition ordering.
#include <gtest/gtest.h>

#include "arch/core.h"
#include "inject/iss_inject.h"
#include "isa/assembler.h"
#include "isa/iss.h"
#include "soft/transforms.h"
#include "workloads/workloads.h"

namespace {

using namespace clear;

const std::vector<std::string> kSampleBenchmarks = {
    "bzip2", "mcf", "gcc", "parser", "inner_product", "integer_sort"};

// ---- EDDI -------------------------------------------------------------

TEST(Eddi, PreservesSemanticsOnAllBenchmarks) {
  for (const auto& name : workloads::benchmarks_for_core("InO")) {
    const auto base = isa::assemble(workloads::build_benchmark(name));
    const auto eddi =
        isa::assemble(soft::apply_eddi(workloads::build_benchmark(name), true));
    const auto rb = isa::run_program(base);
    const auto re = isa::run_program(eddi);
    ASSERT_EQ(re.status, isa::RunStatus::kHalted) << name;
    EXPECT_EQ(re.output, rb.output) << name;
  }
}

TEST(Eddi, ExecutionOverheadRoughlyDoubles) {
  // Paper Table 3: EDDI execution time impact 110%.
  double total_ratio = 0;
  int n = 0;
  for (const auto& name : kSampleBenchmarks) {
    const auto base = isa::run_program(
        isa::assemble(workloads::build_benchmark(name)));
    const auto eddi = isa::run_program(isa::assemble(
        soft::apply_eddi(workloads::build_benchmark(name), true)));
    total_ratio += static_cast<double>(eddi.steps) /
                   static_cast<double>(base.steps);
    ++n;
  }
  const double avg = total_ratio / n;
  EXPECT_GT(avg, 1.7);
  EXPECT_LT(avg, 3.0);
}

TEST(Eddi, DetectsInjectedRegisterCorruption) {
  // Flip a shadowed computation register mid-run: EDDI must raise det 81
  // before corrupt data escapes through a store/branch/output.
  const auto prog = isa::assemble(
      soft::apply_eddi(workloads::build_benchmark("inner_product"), true));
  const auto golden = isa::run_program(prog);
  int detected = 0;
  int silent = 0;
  for (int t = 0; t < 60; ++t) {
    isa::Machine m(prog);
    std::uint64_t step = 0;
    const std::uint64_t at = 20 + 11 * static_cast<std::uint64_t>(t);
    m.pre_exec_hook = [&](isa::Machine& mm, const isa::Instr&) {
      if (step++ == at) {
        mm.set_reg(5, mm.reg(5) ^ (1u << (t % 31)));
      }
    };
    while (m.step()) {
    }
    if (m.status() == isa::RunStatus::kDetected) {
      EXPECT_EQ(m.det_id(), 81);
      ++detected;
    } else if (m.status() == isa::RunStatus::kHalted &&
               m.output() != golden.output) {
      ++silent;
    }
  }
  EXPECT_GT(detected, 10);
  EXPECT_EQ(silent, 0);  // r5 is shadowed: no silent corruption escapes
}

TEST(Eddi, StoreReadbackCatchesStorePathCorruption) {
  // Corrupt the value *as stored to memory* (post-compare): only the
  // readback variant can catch it -- the Table 13 effect.
  for (bool readback : {false, true}) {
    const auto prog = isa::assemble(
        soft::apply_eddi(workloads::build_benchmark("mcf"), readback));
    int detected = 0;
    int escaped = 0;
    const auto golden = isa::run_program(prog);
    for (int t = 0; t < 40; ++t) {
      isa::Machine m(prog);
      std::uint64_t store_no = 0;
      const std::uint64_t at = static_cast<std::uint64_t>(t);
      m.post_store_hook = [&](isa::Machine& mm, std::uint32_t addr,
                              std::uint32_t word) {
        if (store_no++ == at) {
          mm.poke_word(addr, word ^ 0x10u);
        }
      };
      while (m.step()) {
      }
      if (m.status() == isa::RunStatus::kDetected) {
        ++detected;
      } else if (m.status() == isa::RunStatus::kHalted &&
                 m.output() != golden.output) {
        ++escaped;
      }
    }
    if (readback) {
      EXPECT_GT(detected, 20) << "readback must catch store corruption";
    } else {
      EXPECT_EQ(detected, 0) << "plain EDDI cannot see store corruption";
      EXPECT_GT(escaped, 2);
    }
  }
}

// ---- CFCSS ------------------------------------------------------------

TEST(Cfcss, PreservesSemanticsOnAllBenchmarks) {
  for (const auto& name : workloads::benchmarks_for_core("InO")) {
    const auto base = isa::assemble(workloads::build_benchmark(name));
    const auto cfcss =
        isa::assemble(soft::apply_cfcss(workloads::build_benchmark(name)));
    const auto rb = isa::run_program(base);
    const auto rc = isa::run_program(cfcss);
    ASSERT_EQ(rc.status, isa::RunStatus::kHalted) << name;
    EXPECT_EQ(rc.output, rb.output) << name;
  }
}

TEST(Cfcss, OverheadMatchesPaperShape) {
  // Paper Table 3: CFCSS execution time impact 40.6%.
  double total_ratio = 0;
  int n = 0;
  for (const auto& name : kSampleBenchmarks) {
    const auto base = isa::run_program(
        isa::assemble(workloads::build_benchmark(name)));
    const auto cf = isa::run_program(
        isa::assemble(soft::apply_cfcss(workloads::build_benchmark(name))));
    total_ratio +=
        static_cast<double>(cf.steps) / static_cast<double>(base.steps);
    ++n;
  }
  const double avg = total_ratio / n;
  // The reproduction kernels have shorter basic blocks than SPEC, so the
  // per-block CFCSS cost weighs heavier than the paper's 40.6%.
  EXPECT_GT(avg, 1.15);
  EXPECT_LT(avg, 3.6);
}

TEST(Cfcss, DetectsControlFlowHijack) {
  // Force the PC to a wrong block mid-run: the signature chain must
  // mismatch at the next block check.
  const auto unit = soft::apply_cfcss(workloads::build_benchmark("gcc"));
  const auto prog = isa::assemble(unit);
  int detected = 0;
  for (int t = 0; t < 30; ++t) {
    isa::Machine m(prog);
    std::uint64_t step = 0;
    const std::uint64_t at = 40 + 17 * static_cast<std::uint64_t>(t);
    bool hijacked = false;
    m.pre_exec_hook = [&](isa::Machine& mm, const isa::Instr&) {
      if (step++ == at && !hijacked) {
        // Jump to an arbitrary earlier location (wrong basic block): the
        // delta round trip is the public way to rewrite a Machine's pc.
        isa::MachineDelta d;
        mm.capture_delta(nullptr, 0, &d);
        d.pc = (mm.pc() + 24 + 8 * (t % 5)) %
               (static_cast<std::uint32_t>(prog.code.size()) * 4) & ~3u;
        mm.restore_delta(d, nullptr, 0);
        hijacked = true;
      }
    };
    std::uint64_t steps = 0;
    while (m.step() && ++steps < 500000) {
    }
    if (m.status() == isa::RunStatus::kDetected && m.det_id() == 80) {
      ++detected;
    }
  }
  // CFCSS catches a solid fraction of control-flow hijacks (not all:
  // some land inside the same block or trap first).
  EXPECT_GT(detected, 8);
}

// ---- DFC ---------------------------------------------------------------

TEST(Dfc, SignatureTablePopulatedAndProgramRuns) {
  const auto base = isa::assemble(workloads::build_benchmark("gcc"));
  const auto prog = soft::apply_dfc(workloads::build_benchmark("gcc"));
  EXPECT_GT(prog.dfc_signatures.size(), 4u);
  const auto rb = isa::run_program(base);
  const auto rd = isa::run_program(prog);
  ASSERT_EQ(rd.status, isa::RunStatus::kHalted);
  EXPECT_EQ(rd.output, rb.output);
  // Paper: DFC execution impact ~6.2% on InO (one sigchk per block).
  const double ratio =
      static_cast<double>(rd.steps) / static_cast<double>(rb.steps);
  EXPECT_GT(ratio, 1.01);
  EXPECT_LT(ratio, 1.35);
}

TEST(Dfc, CleanRunPassesAllChecksOnCore) {
  // The core-side checker must agree with the pass-computed signatures on
  // every benchmark (no false positives).
  for (const auto& name : workloads::benchmarks_for_core("InO")) {
    const auto prog = soft::apply_dfc(workloads::build_benchmark(name));
    auto core = arch::make_ino_core();
    arch::ResilienceConfig cfg;
    cfg.dfc = true;
    const auto r = core->run(prog, &cfg, nullptr, 20'000'000);
    EXPECT_EQ(r.status, isa::RunStatus::kHalted) << name;
  }
}

TEST(Dfc, CoreCheckerCatchesInstructionCorruption) {
  // Flip bits in instruction-carrying pipeline latches: DFC detects the
  // commit-stream deviation at the next sigchk.
  const auto prog = soft::apply_dfc(workloads::build_benchmark("gcc"));
  auto core = arch::make_ino_core();
  arch::ResilienceConfig cfg;
  cfg.dfc = true;
  cfg.recovery = arch::RecoveryKind::kNone;
  const arch::FFStructure* inst_latch = nullptr;
  for (const auto& s : core->registry().structures()) {
    if (s.name == "a.ctrl.op") inst_latch = &s;
  }
  ASSERT_NE(inst_latch, nullptr);
  const auto clean = core->run(prog, &cfg, nullptr, 20'000'000);
  ASSERT_EQ(clean.status, isa::RunStatus::kHalted);
  int detected = 0;
  for (std::uint32_t b = 0; b < inst_latch->width; ++b) {
    for (int c = 0; c < 24; ++c) {
      const auto plan = arch::InjectionPlan::single(
          40 + 31 * static_cast<std::uint64_t>(c), inst_latch->first_ff + b);
      const auto r = core->run(prog, &cfg, &plan, clean.cycles * 2);
      if (r.status == isa::RunStatus::kDetected &&
          r.detected_by == arch::DetectionSource::kDfc) {
        ++detected;
      }
    }
  }
  EXPECT_GT(detected, 5);
}

// ---- assertions ---------------------------------------------------------

TEST(Assertions, TrainedProgramHasNoFalsePositives) {
  for (const auto& name : kSampleBenchmarks) {
    auto plan = soft::insert_assertion_sites(workloads::build_benchmark(name));
    std::vector<soft::ValueBounds> bounds;
    // Train on 3 inputs including the evaluation input (paper method).
    for (std::uint32_t seed : {0u, 1u, 2u}) {
      auto tplan =
          soft::insert_assertion_sites(workloads::build_benchmark(name, seed));
      soft::train_assertions(isa::assemble(tplan.unit), tplan, &bounds);
    }
    const auto checked = soft::emit_assertions(plan, bounds);
    const auto r = isa::run_program(isa::assemble(checked));
    EXPECT_EQ(r.status, isa::RunStatus::kHalted) << name;
    const auto base = isa::run_program(
        isa::assemble(workloads::build_benchmark(name)));
    EXPECT_EQ(r.output, base.output) << name;
  }
}

TEST(Assertions, UntrainedInputCanFalsePositive) {
  // Train WITHOUT the evaluation input: a sufficiently different input may
  // trip a likely-invariant -- the false-positive phenomenon of Table 10.
  int fp = 0;
  int total = 0;
  for (const auto& name : workloads::benchmarks_for_core("InO")) {
    std::vector<soft::ValueBounds> bounds;
    for (std::uint32_t seed : {7u, 8u}) {
      auto tplan =
          soft::insert_assertion_sites(workloads::build_benchmark(name, seed));
      soft::train_assertions(isa::assemble(tplan.unit), tplan, &bounds);
    }
    auto plan = soft::insert_assertion_sites(workloads::build_benchmark(name));
    const auto checked = soft::emit_assertions(plan, bounds);
    const auto r = isa::run_program(isa::assemble(checked));
    ++total;
    if (r.status == isa::RunStatus::kDetected) ++fp;
  }
  // Some benchmarks fire (range-sensitive checksums), most do not.
  EXPECT_GT(fp, 0);
  EXPECT_LT(fp, total);
}

TEST(Assertions, DetectsGrossCorruption) {
  const auto name = "inner_product";
  std::vector<soft::ValueBounds> bounds;
  for (std::uint32_t seed : {0u, 1u, 2u}) {
    auto tplan =
        soft::insert_assertion_sites(workloads::build_benchmark(name, seed));
    soft::train_assertions(isa::assemble(tplan.unit), tplan, &bounds);
  }
  auto plan = soft::insert_assertion_sites(workloads::build_benchmark(name));
  const auto prog = isa::assemble(soft::emit_assertions(plan, bounds));
  int detected = 0;
  for (int t = 0; t < 30; ++t) {
    isa::Machine m(prog);
    std::uint64_t step = 0;
    m.pre_exec_hook = [&](isa::Machine& mm, const isa::Instr&) {
      if (step++ == 30 + static_cast<std::uint64_t>(t) * 7) {
        mm.set_reg(5, mm.reg(5) ^ 0x40000000u);  // high-bit corruption
      }
    };
    while (m.step()) {
    }
    if (m.status() == isa::RunStatus::kDetected && m.det_id() == 82) {
      ++detected;
    }
  }
  EXPECT_GT(detected, 5);
}

// ---- composition ---------------------------------------------------------

TEST(Composition, EddiThenCfcssPreservesSemantics) {
  for (const auto& name : kSampleBenchmarks) {
    const auto base = isa::run_program(
        isa::assemble(workloads::build_benchmark(name)));
    auto unit = soft::apply_eddi(workloads::build_benchmark(name), true);
    unit = soft::apply_cfcss(unit);
    const auto r = isa::run_program(isa::assemble(unit));
    ASSERT_EQ(r.status, isa::RunStatus::kHalted) << name;
    EXPECT_EQ(r.output, base.output) << name;
  }
}

TEST(Composition, FullStackEddiAssertCfcssDfc) {
  const auto name = "mcf";
  const auto base =
      isa::run_program(isa::assemble(workloads::build_benchmark(name)));
  auto unit = soft::apply_eddi(workloads::build_benchmark(name), true);
  auto plan = soft::insert_assertion_sites(unit);
  std::vector<soft::ValueBounds> bounds;
  soft::train_assertions(isa::assemble(plan.unit), plan, &bounds);
  unit = soft::emit_assertions(plan, bounds);
  unit = soft::apply_cfcss(unit);
  const auto prog = soft::apply_dfc(unit);
  auto core = arch::make_ino_core();
  arch::ResilienceConfig cfg;
  cfg.dfc = true;
  const auto r = core->run(prog, &cfg, nullptr, 20'000'000);
  ASSERT_EQ(r.status, isa::RunStatus::kHalted);
  EXPECT_EQ(r.output, base.output);
}

}  // namespace
