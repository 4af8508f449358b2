#include <gtest/gtest.h>

#include "isa/assembler.h"
#include "isa/isa.h"
#include "assemble_text.h"

namespace {

using namespace clear::isa;

TEST(Encoding, RoundTripsAllOpcodes) {
  for (int o = 0; o < kOpCount; ++o) {
    Instr ins;
    ins.op = static_cast<Op>(o);
    ins.rd = 3;
    ins.rs1 = 7;
    ins.rs2 = 12;
    ins.imm = -5;
    const auto back = decode(encode(ins));
    ASSERT_TRUE(back.has_value()) << mnemonic(ins.op);
    EXPECT_EQ(back->op, ins.op);
    switch (format_of(ins.op)) {
      case Format::kR:
        EXPECT_EQ(back->rd, ins.rd);
        EXPECT_EQ(back->rs1, ins.rs1);
        EXPECT_EQ(back->rs2, ins.rs2);
        break;
      case Format::kI:
        EXPECT_EQ(back->rd, ins.rd);
        EXPECT_EQ(back->rs1, ins.rs1);
        if (ins.op == Op::kAndi || ins.op == Op::kOri || ins.op == Op::kXori) {
          EXPECT_EQ(back->imm, 0xfffb);  // zero-extended
        } else {
          EXPECT_EQ(back->imm, -5);
        }
        break;
      case Format::kS:
        EXPECT_EQ(back->rs2, ins.rs2);
        EXPECT_EQ(back->rs1, ins.rs1);
        EXPECT_EQ(back->imm, -5);
        break;
      case Format::kB:
        EXPECT_EQ(back->imm, -5);
        break;
      case Format::kJ:
        EXPECT_EQ(back->rd, ins.rd);
        EXPECT_EQ(back->imm, -5);
        break;
      case Format::kU:
        EXPECT_EQ(back->rd, ins.rd);
        break;
      case Format::kX:
        EXPECT_EQ(back->imm, -5);
        break;
    }
  }
}

TEST(Encoding, InvalidOpcodeRejected) {
  // opcode field 63 is beyond kOpCount
  EXPECT_FALSE(decode(0xFC000000u).has_value());
}

TEST(Encoding, MnemonicRoundTrip) {
  for (int o = 0; o < kOpCount; ++o) {
    const Op op = static_cast<Op>(o);
    const auto back = op_from_mnemonic(mnemonic(op));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, op);
  }
  EXPECT_FALSE(op_from_mnemonic("bogus").has_value());
}

TEST(AluEval, BasicArithmetic) {
  EXPECT_EQ(alu_eval(Op::kAdd, 2, 3), 5u);
  EXPECT_EQ(alu_eval(Op::kSub, 2, 3), 0xffffffffu);
  EXPECT_EQ(alu_eval(Op::kXor, 0xff00ff00u, 0x0ff00ff0u), 0xf0f0f0f0u);
  EXPECT_EQ(alu_eval(Op::kSll, 1, 31), 0x80000000u);
  EXPECT_EQ(alu_eval(Op::kSrl, 0x80000000u, 31), 1u);
  EXPECT_EQ(alu_eval(Op::kSra, 0x80000000u, 31), 0xffffffffu);
  EXPECT_EQ(alu_eval(Op::kSlt, static_cast<std::uint32_t>(-1), 1), 1u);
  EXPECT_EQ(alu_eval(Op::kSltu, static_cast<std::uint32_t>(-1), 1), 0u);
}

TEST(AluEval, MultiplyDivide) {
  EXPECT_EQ(alu_eval(Op::kMul, 100000, 100000), 0x540BE400u);  // low 32
  EXPECT_EQ(alu_eval(Op::kMulh, 0x40000000u, 4), 1u);
  EXPECT_EQ(alu_eval(Op::kDiv, static_cast<std::uint32_t>(-7), 2),
            static_cast<std::uint32_t>(-3));
  EXPECT_EQ(alu_eval(Op::kRem, static_cast<std::uint32_t>(-7), 2),
            static_cast<std::uint32_t>(-1));
  // Saturating edge case
  EXPECT_EQ(alu_eval(Op::kDiv, 0x80000000u, static_cast<std::uint32_t>(-1)),
            0x80000000u);
}

TEST(Branches, ConditionSemantics) {
  EXPECT_TRUE(branch_taken(Op::kBeq, 5, 5));
  EXPECT_FALSE(branch_taken(Op::kBeq, 5, 6));
  EXPECT_TRUE(branch_taken(Op::kBlt, static_cast<std::uint32_t>(-1), 0));
  EXPECT_FALSE(branch_taken(Op::kBltu, static_cast<std::uint32_t>(-1), 0));
  EXPECT_TRUE(branch_taken(Op::kBgeu, static_cast<std::uint32_t>(-1), 0));
}

TEST(Assembler, AssemblesBasicProgram) {
  const auto prog = assemble_text(R"(
    .text
    start:
      addi r1, r0, 5
      addi r2, r0, 0
    loop:
      add r2, r2, r1
      addi r1, r1, -1
      bne r1, r0, loop
      out r2
      halt 0
  )");
  EXPECT_EQ(prog.code.size(), 7u);
  EXPECT_EQ(prog.code_labels.at("start"), 0u);
  EXPECT_EQ(prog.code_labels.at("loop"), 2u);
  // bne at index 4 targets index 2: imm = -2
  const auto ins = decode(prog.code[4]);
  ASSERT_TRUE(ins.has_value());
  EXPECT_EQ(ins->op, Op::kBne);
  EXPECT_EQ(ins->imm, -2);
}

TEST(Assembler, DataSymbolsAndLoads) {
  const auto prog = assemble_text(R"(
    .data
    vals: .word 10, 20, 30
    buf:  .space 4
    .text
      la r1, vals
      lw r2, 4(r1)
      la r3, buf+8
      sw r2, 0(r3)
      halt 0
  )");
  EXPECT_EQ(prog.symbols.at("vals"), prog.data_base);
  EXPECT_EQ(prog.symbols.at("buf"), prog.data_base + 12);
  EXPECT_EQ(prog.data.size(), 7u);
  EXPECT_EQ(prog.data[1], 20u);
}

TEST(Assembler, PseudoInstructions) {
  const auto prog = assemble_text(R"(
    .text
      li r5, 0x12345678
      mv r6, r5
      nop
      j end
      call end
      ret
    end:
      halt 3
  )");
  // li = 2, mv = 1, nop = 1, j = 1, call = 1, ret = 1, halt = 1
  EXPECT_EQ(prog.code.size(), 8u);
  const auto lui = decode(prog.code[0]);
  const auto ori = decode(prog.code[1]);
  EXPECT_EQ(lui->op, Op::kLui);
  EXPECT_EQ(lui->imm, 0x1234);
  EXPECT_EQ(ori->op, Op::kOri);
  EXPECT_EQ(ori->imm, 0x5678);
}

TEST(Assembler, ReportsUndefinedLabel) {
  EXPECT_THROW(assemble_text(".text\n j nowhere\n"), AsmError);
}

TEST(Assembler, ReportsDuplicateLabel) {
  EXPECT_THROW(assemble_text(".text\na:\na:\n halt 0\n"), AsmError);
}

TEST(Assembler, ReportsBadRegister) {
  EXPECT_THROW(assemble_text(".text\n addi r32, r0, 1\n"), AsmError);
}

TEST(Assembler, ReportsImmediateRange) {
  EXPECT_THROW(assemble_text(".text\n addi r1, r0, 40000\n"), AsmError);
}

TEST(Assembler, CommentsAndWhitespace) {
  const auto prog = assemble_text(
      ".text\n"
      "  addi r1, r0, 1   ; trailing comment\n"
      "# whole line comment\n"
      "  halt 0\n");
  EXPECT_EQ(prog.code.size(), 2u);
}

}  // namespace
