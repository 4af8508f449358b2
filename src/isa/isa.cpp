#include "isa/isa.h"

#include <array>
#include <unordered_map>

namespace clear::isa {

namespace {

constexpr std::array<const char*, kOpCount> kOpNames = {
    "add",  "sub",  "and",  "or",   "xor",  "sll",  "srl",  "sra",
    "slt",  "sltu", "mul",  "mulh", "div",  "rem",  "addi", "andi",
    "ori",  "xori", "slti", "slli", "srli", "srai", "lui",  "lw",
    "lb",   "lbu",  "sw",   "sb",   "beq",  "bne",  "blt",  "bge",
    "bltu", "bgeu", "jal",  "jalr", "out",  "halt", "det",  "sigchk",
};

}  // namespace

const char* mnemonic(Op op) noexcept {
  return kOpNames[static_cast<int>(op)];
}

std::optional<Op> op_from_mnemonic(const std::string& s) noexcept {
  static const std::unordered_map<std::string, Op> kMap = [] {
    std::unordered_map<std::string, Op> m;
    for (int i = 0; i < kOpCount; ++i) {
      m.emplace(kOpNames[i], static_cast<Op>(i));
    }
    return m;
  }();
  const auto it = kMap.find(s);
  if (it == kMap.end()) return std::nullopt;
  return it->second;
}

std::uint32_t encode(const Instr& ins) noexcept {
  const std::uint32_t op = static_cast<std::uint32_t>(ins.op) & 0x3f;
  const std::uint32_t rd = ins.rd & 0x1f;
  const std::uint32_t rs1 = ins.rs1 & 0x1f;
  const std::uint32_t rs2 = ins.rs2 & 0x1f;
  const std::uint32_t imm16 = static_cast<std::uint32_t>(ins.imm) & 0xffff;
  const std::uint32_t imm21 = static_cast<std::uint32_t>(ins.imm) & 0x1fffff;
  switch (format_of(ins.op)) {
    case Format::kR:
      return (op << 26) | (rd << 21) | (rs1 << 16) | (rs2 << 11);
    case Format::kI:
      return (op << 26) | (rd << 21) | (rs1 << 16) | imm16;
    case Format::kS:
      return (op << 26) | (rs2 << 21) | (rs1 << 16) | imm16;
    case Format::kB:
      return (op << 26) | (rs1 << 21) | (rs2 << 16) | imm16;
    case Format::kJ:
      return (op << 26) | (rd << 21) | imm21;
    case Format::kU:
      return (op << 26) | (rd << 21) | imm16;
    case Format::kX:
      return (op << 26) | (rs1 << 16) | imm16;
  }
  return 0;
}

}  // namespace clear::isa
