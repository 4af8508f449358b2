// Benchmark-suite validation: every kernel assembles, halts, produces
// deterministic output; ABFT variants agree with their base kernels; the
// whole suite cross-validates ISS vs InO vs OoO (the golden-model parity
// that the injection campaigns rely on).
#include <gtest/gtest.h>

#include "arch/core.h"
#include "isa/assembler.h"
#include "isa/iss.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace {

using namespace clear;

class EveryBenchmark : public ::testing::TestWithParam<const char*> {};

TEST_P(EveryBenchmark, AssemblesAndHalts) {
  const auto prog = isa::assemble(workloads::build_benchmark(GetParam()));
  const auto r = isa::run_program(prog);
  EXPECT_EQ(r.status, isa::RunStatus::kHalted) << GetParam();
  EXPECT_FALSE(r.output.empty()) << GetParam();
  EXPECT_LT(r.steps, 20000u) << GetParam() << " too long for campaigns";
  EXPECT_GT(r.steps, 100u) << GetParam() << " too short to be interesting";
}

TEST_P(EveryBenchmark, MatchesIssOnBothCores) {
  const auto prog = isa::assemble(workloads::build_benchmark(GetParam()));
  const auto golden = isa::run_program(prog);
  for (auto maker : {arch::make_ino_core, arch::make_ooo_core}) {
    auto core = maker();
    const auto r = core->run_clean(prog);
    ASSERT_EQ(r.status, isa::RunStatus::kHalted)
        << GetParam() << " on " << core->name();
    EXPECT_EQ(r.output, golden.output) << GetParam() << " on " << core->name();
    EXPECT_EQ(r.instrs, golden.steps) << GetParam() << " on " << core->name();
  }
}

TEST_P(EveryBenchmark, InputSeedChangesData) {
  const auto p0 = isa::assemble(workloads::build_benchmark(GetParam(), 0));
  const auto p1 = isa::assemble(workloads::build_benchmark(GetParam(), 1));
  EXPECT_NE(p0.data, p1.data) << GetParam();
  const auto r1 = isa::run_program(p1);
  EXPECT_EQ(r1.status, isa::RunStatus::kHalted)
      << GetParam() << " must halt on training inputs too";
}

INSTANTIATE_TEST_SUITE_P(
    Suite, EveryBenchmark,
    ::testing::Values("bzip2", "crafty", "gzip", "mcf", "parser", "gcc",
                      "vpr", "twolf", "vortex", "gap", "eon",
                      "2d_convolution", "debayer_filter", "inner_product",
                      "fft1d", "histogram_eq", "integer_sort",
                      "change_detection"));

TEST(BenchmarkList, HasPaperStructure) {
  const auto& list = workloads::benchmark_list();
  ASSERT_EQ(list.size(), 18u);
  int spec = 0;
  int perfect = 0;
  int corr = 0;
  int det = 0;
  for (const auto& b : list) {
    if (b.suite == "SPEC") ++spec;
    if (b.suite == "PERFECT") ++perfect;
    if (b.abft == workloads::AbftKind::kCorrection) ++corr;
    if (b.abft == workloads::AbftKind::kDetection) ++det;
  }
  EXPECT_EQ(spec, 11);     // 11 SPEC for InO (paper footnote 3)
  EXPECT_EQ(perfect, 7);   // 7 PERFECT for InO
  EXPECT_EQ(corr, 3);      // ABFT correction: conv, debayer, inner (Sec 3.2)
  EXPECT_EQ(det, 4);
}

TEST(BenchmarkList, OoOSubsetMatchesFootnote3) {
  const auto ino = workloads::benchmarks_for_core("InO");
  const auto ooo = workloads::benchmarks_for_core("OoO");
  EXPECT_EQ(ino.size(), 18u);
  EXPECT_EQ(ooo.size(), 11u);  // 8 SPEC + 3 PERFECT
  int spec = 0;
  for (const auto& n : ooo) {
    for (const auto& b : workloads::benchmark_list()) {
      if (b.name == n && b.suite == "SPEC") ++spec;
    }
  }
  EXPECT_EQ(spec, 8);
}

class AbftBenchmark : public ::testing::TestWithParam<const char*> {};

TEST_P(AbftBenchmark, VariantHaltsCleanly) {
  // Error-free ABFT runs must never fire their detectors (no false
  // positives) and must terminate normally.
  const auto prog = isa::assemble(workloads::build_abft_variant(GetParam()));
  const auto r = isa::run_program(prog);
  EXPECT_EQ(r.status, isa::RunStatus::kHalted) << GetParam();
}

TEST_P(AbftBenchmark, VariantMatchesCoreExecution) {
  const auto prog = isa::assemble(workloads::build_abft_variant(GetParam()));
  const auto golden = isa::run_program(prog);
  auto core = arch::make_ino_core();
  const auto r = core->run_clean(prog);
  EXPECT_EQ(r.status, isa::RunStatus::kHalted) << GetParam();
  EXPECT_EQ(r.output, golden.output) << GetParam();
}

TEST_P(AbftBenchmark, OverheadIsModest) {
  // ABFT correction overhead is small (paper: 1.4% exec time); detection
  // can be larger (paper: up to 56.9%) but bounded.
  const auto base = isa::run_program(
      isa::assemble(workloads::build_benchmark(GetParam())));
  const auto abft = isa::run_program(
      isa::assemble(workloads::build_abft_variant(GetParam())));
  EXPECT_LT(abft.steps, base.steps * 4) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Suite, AbftBenchmark,
                         ::testing::Values("2d_convolution", "debayer_filter",
                                           "inner_product", "fft1d",
                                           "histogram_eq", "integer_sort",
                                           "change_detection"));

TEST(Abft, BaseBenchmarkHasNoVariant) {
  EXPECT_THROW(workloads::build_abft_variant("bzip2"), std::logic_error);
}

// Random always-halting program generator for differential testing.
// Structure: a scratch data area, K sequential counted loops each containing
// random ALU/memory operations on r3..r12, optional calls to a tiny leaf
// routine, final output of live registers.
isa::AsmUnit random_program(std::uint64_t seed) {
  util::Rng rng(seed);
  std::string src = ".data\nscratch: .space 16\nconsts: .word ";
  for (int i = 0; i < 8; ++i) {
    if (i != 0) src += ", ";
    src += std::to_string(static_cast<std::int64_t>(rng.below(2000)) - 1000);
  }
  src += "\n.text\n";
  // Seed registers.
  for (int r = 3; r <= 12; ++r) {
    src += "  li r" + std::to_string(r) + ", " +
           std::to_string(static_cast<std::int64_t>(rng.below(100000)) -
                          50000) +
           "\n";
  }
  const int blocks = 2 + static_cast<int>(rng.below(4));
  const bool uses_call = rng.below(2) == 0;
  for (int b = 0; b < blocks; ++b) {
    const int trips = 2 + static_cast<int>(rng.below(4));
    src += "  addi r14, r0, " + std::to_string(trips) + "\n";
    src += "blk" + std::to_string(b) + ":\n";
    const int ops = 3 + static_cast<int>(rng.below(9));
    for (int i = 0; i < ops; ++i) {
      const int rd = 3 + static_cast<int>(rng.below(10));
      const int ra = 3 + static_cast<int>(rng.below(10));
      const int rb = 3 + static_cast<int>(rng.below(10));
      auto R = [](int r) { return "r" + std::to_string(r); };
      switch (rng.below(12)) {
        case 0: src += "  add " + R(rd) + ", " + R(ra) + ", " + R(rb) + "\n"; break;
        case 1: src += "  sub " + R(rd) + ", " + R(ra) + ", " + R(rb) + "\n"; break;
        case 2: src += "  xor " + R(rd) + ", " + R(ra) + ", " + R(rb) + "\n"; break;
        case 3: src += "  and " + R(rd) + ", " + R(ra) + ", " + R(rb) + "\n"; break;
        case 4: src += "  slli " + R(rd) + ", " + R(ra) + ", " +
                       std::to_string(rng.below(31)) + "\n"; break;
        case 5: src += "  srli " + R(rd) + ", " + R(ra) + ", " +
                       std::to_string(rng.below(31)) + "\n"; break;
        case 6: src += "  mul " + R(rd) + ", " + R(ra) + ", " + R(rb) + "\n"; break;
        case 7:
          // Guarded division: force a non-zero divisor.
          src += "  ori r13, " + R(rb) + ", 1\n";
          src += "  div " + R(rd) + ", " + R(ra) + ", r13\n";
          break;
        case 8:
          // Masked store into the scratch area.
          src += "  andi r13, " + R(ra) + ", 12\n";
          src += "  la r15, scratch\n  add r13, r13, r15\n";
          src += "  sw " + R(rb) + ", 0(r13)\n";
          break;
        case 9:
          src += "  andi r13, " + R(ra) + ", 12\n";
          src += "  la r15, scratch\n  add r13, r13, r15\n";
          src += "  lw " + R(rd) + ", 0(r13)\n";
          break;
        case 10:
          src += "  andi r13, " + R(ra) + ", 7\n";
          src += "  la r15, consts\n  slli r13, r13, 2\n  add r13, r13, r15\n";
          src += "  lw " + R(rd) + ", 0(r13)\n";
          break;
        default:
          src += "  slt " + R(rd) + ", " + R(ra) + ", " + R(rb) + "\n";
          break;
      }
    }
    if (uses_call && rng.below(2) == 0) {
      src += "  call leaf\n";
    }
    src += "  addi r14, r14, -1\n";
    src += "  bne r14, r0, blk" + std::to_string(b) + "\n";
  }
  for (int r = 3; r <= 8; ++r) src += "  out r" + std::to_string(r) + "\n";
  src += "  halt 0\n";
  if (uses_call) {
    src += "leaf:\n  add r4, r4, r5\n  xor r5, r5, r6\n  ret\n";
  }
  return isa::parse_asm(src, "random");
}

// Property-based differential testing: random always-halting programs must
// behave identically on the ISS and both pipeline models.
class RandomProgram : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgram, DifferentialIssVsCores) {
  const auto unit = random_program(
      0xC0FFEE * static_cast<std::uint64_t>(GetParam()) + 17);
  const auto prog = isa::assemble(unit);
  const auto golden = isa::run_program(prog);
  ASSERT_EQ(golden.status, isa::RunStatus::kHalted);
  for (auto maker : {arch::make_ino_core, arch::make_ooo_core}) {
    auto core = maker();
    const auto r = core->run_clean(prog);
    ASSERT_EQ(r.status, isa::RunStatus::kHalted)
        << "seed " << GetParam() << " on " << core->name();
    EXPECT_EQ(r.output, golden.output)
        << "seed " << GetParam() << " on " << core->name();
    EXPECT_EQ(r.instrs, golden.steps)
        << "seed " << GetParam() << " on " << core->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, RandomProgram, ::testing::Range(0, 40));

}  // namespace
