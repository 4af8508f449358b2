#include <gtest/gtest.h>

#include "isa/assembler.h"
#include "isa/iss.h"
#include "assemble_text.h"

namespace {

using namespace clear::isa;

RunResult run_src(const std::string& src, std::uint64_t max_steps = 0) {
  return run_program(assemble_text(src), max_steps);
}

TEST(Iss, SumLoop) {
  const auto r = run_src(R"(
    .text
      addi r1, r0, 10
      addi r2, r0, 0
    loop:
      add r2, r2, r1
      addi r1, r1, -1
      bne r1, r0, loop
      out r2
      halt 0
  )");
  EXPECT_EQ(r.status, RunStatus::kHalted);
  ASSERT_EQ(r.output.size(), 1u);
  EXPECT_EQ(r.output[0], 55u);
}

TEST(Iss, MemoryReadWrite) {
  const auto r = run_src(R"(
    .data
    arr: .word 3, 1, 4, 1, 5
    .text
      la r1, arr
      addi r2, r0, 0   ; sum
      addi r3, r0, 5   ; n
    loop:
      lw r4, 0(r1)
      add r2, r2, r4
      addi r1, r1, 4
      addi r3, r3, -1
      bne r3, r0, loop
      out r2
      halt 0
  )");
  EXPECT_EQ(r.status, RunStatus::kHalted);
  ASSERT_EQ(r.output.size(), 1u);
  EXPECT_EQ(r.output[0], 14u);
}

TEST(Iss, ByteAccess) {
  const auto r = run_src(R"(
    .data
    b: .word 0
    .text
      la r1, b
      addi r2, r0, 0x7f
      sb r2, 1(r1)
      lbu r3, 1(r1)
      out r3
      lb r4, 1(r1)
      out r4
      addi r2, r0, 0xff
      sb r2, 2(r1)
      lb r5, 2(r1)
      out r5
      halt 0
  )");
  EXPECT_EQ(r.status, RunStatus::kHalted);
  ASSERT_EQ(r.output.size(), 3u);
  EXPECT_EQ(r.output[0], 0x7fu);
  EXPECT_EQ(r.output[1], 0x7fu);
  EXPECT_EQ(r.output[2], 0xffffffffu);  // sign-extended
}

TEST(Iss, CallReturn) {
  const auto r = run_src(R"(
    .text
      addi r4, r0, 21
      call double_it
      out r4
      halt 0
    double_it:
      add r4, r4, r4
      ret
  )");
  EXPECT_EQ(r.status, RunStatus::kHalted);
  ASSERT_EQ(r.output.size(), 1u);
  EXPECT_EQ(r.output[0], 42u);
}

TEST(Iss, DivByZeroTraps) {
  const auto r = run_src(R"(
    .text
      addi r1, r0, 10
      div r2, r1, r0
      halt 0
  )");
  EXPECT_EQ(r.status, RunStatus::kTrapped);
  EXPECT_EQ(r.trap, Trap::kDivByZero);
}

TEST(Iss, MisalignedLoadTraps) {
  const auto r = run_src(R"(
    .text
      addi r1, r0, 0x1002
      lw r2, 0(r1)
      halt 0
  )");
  EXPECT_EQ(r.status, RunStatus::kTrapped);
  EXPECT_EQ(r.trap, Trap::kMisalignedLoad);
}

TEST(Iss, OutOfBoundsStoreTraps) {
  const auto r = run_src(R"(
    .text
      li r1, 0x40000000
      sw r1, 0(r1)
      halt 0
  )");
  EXPECT_EQ(r.status, RunStatus::kTrapped);
  EXPECT_EQ(r.trap, Trap::kStoreOutOfBounds);
}

TEST(Iss, RunawayLoopHitsWatchdog) {
  const auto r = run_src(".text\nspin: j spin\n", 1000);
  EXPECT_EQ(r.status, RunStatus::kWatchdog);
  EXPECT_EQ(r.steps, 1000u);
}

TEST(Iss, FallingOffCodeTraps) {
  const auto r = run_src(".text\n addi r1, r0, 1\n");
  EXPECT_EQ(r.status, RunStatus::kTrapped);
  EXPECT_EQ(r.trap, Trap::kPcOutOfBounds);
}

TEST(Iss, DetInstructionReportsDetection) {
  const auto r = run_src(".text\n det 7\n halt 0\n");
  EXPECT_EQ(r.status, RunStatus::kDetected);
  EXPECT_EQ(r.det_id, 7);
}

TEST(Iss, R0IsHardwiredZero) {
  const auto r = run_src(R"(
    .text
      addi r0, r0, 99
      out r0
      halt 0
  )");
  ASSERT_EQ(r.output.size(), 1u);
  EXPECT_EQ(r.output[0], 0u);
}

TEST(Iss, SigchkIsArchitecturalNop) {
  const auto r = run_src(R"(
    .text
      addi r1, r0, 5
      sigchk 3
      out r1
      halt 0
  )");
  EXPECT_EQ(r.status, RunStatus::kHalted);
  ASSERT_EQ(r.output.size(), 1u);
  EXPECT_EQ(r.output[0], 5u);
}

TEST(Iss, HooksObserveExecution) {
  const auto prog = assemble_text(R"(
    .text
      addi r1, r0, 3
      addi r2, r0, 4
      add r3, r1, r2
      sw r3, 0x1000(r0)
      halt 0
  )");
  Machine m(prog);
  int writes = 0;
  int stores = 0;
  std::uint32_t last_written = 0;
  m.post_write_hook = [&](Machine&, const Instr&, std::uint32_t v) {
    ++writes;
    last_written = v;
  };
  m.post_store_hook = [&](Machine&, std::uint32_t addr, std::uint32_t v) {
    ++stores;
    EXPECT_EQ(addr, 0x1000u);
    EXPECT_EQ(v, 7u);
  };
  while (m.step()) {
  }
  EXPECT_EQ(writes, 3);
  EXPECT_EQ(stores, 1);
  EXPECT_EQ(last_written, 7u);
  EXPECT_EQ(m.peek_word(0x1000), 7u);
}

TEST(Iss, MulDivProgram) {
  const auto r = run_src(R"(
    .text
      addi r1, r0, 12
      addi r2, r0, 5
      mul r3, r1, r2
      div r4, r3, r2
      rem r5, r3, r1
      out r3
      out r4
      out r5
      halt 0
  )");
  ASSERT_EQ(r.output.size(), 3u);
  EXPECT_EQ(r.output[0], 60u);
  EXPECT_EQ(r.output[1], 12u);
  EXPECT_EQ(r.output[2], 0u);
}

}  // namespace
