// The CRISC instruction set.
//
// The paper injects faults into the RTL of a SPARC Leon3 and an Alpha IVM
// core.  Neither RTL (nor a SPARC/Alpha toolchain) is available here, so the
// reproduction defines a compact 32-bit RISC ISA that both reproduction
// cores (arch::InOCore, arch::OoOCore) and the golden functional simulator
// (isa::Iss) execute.  The ISA is deliberately small but covers the workload
// behaviours that matter for soft-error analysis: ALU/memory/branch mixes,
// calls/returns (exercising the OoO return-address stack), multiplication /
// division (multi-cycle units), byte memory access, explicit program output
// (for silent-data-corruption detection) and explicit error-detection traps
// (for software-implemented resilience techniques).
//
// Encoding (32 bits, fixed fields):
//   [31:26] opcode
//   R-type : [25:21] rd  [20:16] rs1 [15:11] rs2
//   I-type : [25:21] rd  [20:16] rs1 [15:0]  imm16 (signed)
//   S-type : [25:21] rs2 [20:16] rs1 [15:0]  imm16 (signed)   (stores)
//   B-type : [25:21] rs1 [20:16] rs2 [15:0]  imm16 (signed, in instructions)
//   J-type : [25:21] rd  [20:0]  imm21 (signed, in instructions)
//   U-type : [25:21] rd  [15:0]  imm16 (rd = imm16 << 16)
//   X-type : [20:16] rs1 or [15:0] imm16 (system ops)
#ifndef CLEAR_ISA_ISA_H
#define CLEAR_ISA_ISA_H

#include <array>
#include <cstdint>
#include <optional>
#include <string>

namespace clear::isa {

inline constexpr int kNumRegs = 32;
inline constexpr std::uint32_t kInstrBytes = 4;

enum class Op : std::uint8_t {
  // R-type ALU
  kAdd, kSub, kAnd, kOr, kXor, kSll, kSrl, kSra, kSlt, kSltu,
  kMul, kMulh, kDiv, kRem,
  // I-type ALU
  kAddi, kAndi, kOri, kXori, kSlti, kSlli, kSrli, kSrai,
  // U-type
  kLui,
  // Memory
  kLw, kLb, kLbu,     // I-type loads
  kSw, kSb,           // S-type stores
  // Branches (B-type)
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
  // Jumps
  kJal,               // J-type
  kJalr,              // I-type
  // System (X-type)
  kOut,               // append value of rs1 to the program output stream
  kHalt,              // terminate; imm16 = exit code
  kDet,               // software error-detection trap; imm16 = detector id
  kSigchk,            // DFC signature checkpoint; imm16 = static block id
  kOpCount
};

inline constexpr int kOpCount = static_cast<int>(Op::kOpCount);

enum class Format : std::uint8_t { kR, kI, kS, kB, kJ, kU, kX };

[[nodiscard]] const char* mnemonic(Op op) noexcept;
// Parses a mnemonic; returns nullopt for unknown mnemonics.
[[nodiscard]] std::optional<Op> op_from_mnemonic(const std::string& s) noexcept;

// format_of, decode and the execution helpers below are inline: the cores
// call them every cycle.
namespace detail {
inline constexpr std::array<Format, kOpCount> kOpFormat = {
    Format::kR, Format::kR, Format::kR, Format::kR, Format::kR,  // add..xor
    Format::kR, Format::kR, Format::kR, Format::kR, Format::kR,  // sll..sltu
    Format::kR, Format::kR, Format::kR, Format::kR,              // mul..rem
    Format::kI, Format::kI, Format::kI, Format::kI,              // addi..xori
    Format::kI, Format::kI, Format::kI, Format::kI,              // slti..srai
    Format::kU,                                                  // lui
    Format::kI, Format::kI, Format::kI,                          // lw, lb, lbu
    Format::kS, Format::kS,                                      // sw, sb
    Format::kB, Format::kB, Format::kB,                          // beq..blt
    Format::kB, Format::kB, Format::kB,                          // bge..bgeu
    Format::kJ, Format::kI,                                      // jal, jalr
    Format::kX, Format::kX, Format::kX, Format::kX,              // out..sigchk
};
// A short list would zero-fill its tail with kR.
static_assert(kOpFormat[kOpCount - 1] == Format::kX);
}  // namespace detail

[[nodiscard]] inline Format format_of(Op op) noexcept {
  return detail::kOpFormat[static_cast<int>(op)];
}

// A decoded instruction.  Fields not used by the format are zero.
struct Instr {
  Op op = Op::kHalt;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::int32_t imm = 0;
};

// Encodes an instruction to its 32-bit word.  Field values are masked to
// their widths (callers validate ranges; the assembler reports violations).
[[nodiscard]] std::uint32_t encode(const Instr& ins) noexcept;

// Decodes a word.  Returns nullopt when the opcode field does not name a
// valid instruction -- in the cores this raises an invalid-opcode trap,
// which is one of the mechanisms by which injected flips become DUEs.
[[nodiscard]] inline std::optional<Instr> decode(std::uint32_t word) noexcept {
  const std::uint32_t opf = word >> 26;
  if (opf >= static_cast<std::uint32_t>(kOpCount)) return std::nullopt;
  Instr ins;
  ins.op = static_cast<Op>(opf);
  const auto f25_21 = static_cast<std::uint8_t>((word >> 21) & 0x1f);
  const auto f20_16 = static_cast<std::uint8_t>((word >> 16) & 0x1f);
  const auto f15_11 = static_cast<std::uint8_t>((word >> 11) & 0x1f);
  const auto imm16 = static_cast<std::int32_t>(word & 0xffff);
  const auto simm16 =
      static_cast<std::int32_t>(static_cast<std::int16_t>(word & 0xffff));
  switch (format_of(ins.op)) {
    case Format::kR:
      ins.rd = f25_21;
      ins.rs1 = f20_16;
      ins.rs2 = f15_11;
      break;
    case Format::kI:
      ins.rd = f25_21;
      ins.rs1 = f20_16;
      // Logical immediates are zero-extended (so li/la lui+ori expansions
      // compose); arithmetic/load immediates are sign-extended.
      ins.imm = ins.op == Op::kAndi || ins.op == Op::kOri ||
                        ins.op == Op::kXori
                    ? imm16
                    : simm16;
      break;
    case Format::kS:
      ins.rs2 = f25_21;
      ins.rs1 = f20_16;
      ins.imm = simm16;
      break;
    case Format::kB:
      ins.rs1 = f25_21;
      ins.rs2 = f20_16;
      ins.imm = simm16;
      break;
    case Format::kJ: {
      ins.rd = f25_21;
      const std::uint32_t imm21 = word & 0x1fffff;
      ins.imm = (imm21 & 0x100000) != 0
                    ? static_cast<std::int32_t>(imm21 | 0xffe00000)
                    : static_cast<std::int32_t>(imm21);
      break;
    }
    case Format::kU:
      ins.rd = f25_21;
      ins.imm = imm16;
      break;
    case Format::kX:
      ins.rs1 = f20_16;
      ins.imm = simm16;
      break;
  }
  return ins;
}

// Hardware trap causes.  Any trap terminates the program abnormally, which
// the outcome classifier records as an Unexpected Termination (=> DUE).
enum class Trap : std::uint8_t {
  kNone,
  kInvalidOpcode,
  kMisalignedLoad,
  kMisalignedStore,
  kLoadOutOfBounds,
  kStoreOutOfBounds,
  kPcOutOfBounds,
  kDivByZero,
};

// Shared execution semantics.  Both pipeline models and the ISS evaluate
// ALU results and branch conditions through these helpers so that a single
// definition of the architecture exists (a corrupted core is compared
// against this golden semantics when classifying injection outcomes).
[[nodiscard]] inline std::uint32_t alu_eval(Op op, std::uint32_t a,
                                            std::uint32_t b) noexcept {
  const auto sa = static_cast<std::int32_t>(a);
  const auto sb = static_cast<std::int32_t>(b);
  switch (op) {
    case Op::kAdd: case Op::kAddi: return a + b;
    case Op::kSub: return a - b;
    case Op::kAnd: case Op::kAndi: return a & b;
    case Op::kOr: case Op::kOri: return a | b;
    case Op::kXor: case Op::kXori: return a ^ b;
    case Op::kSll: case Op::kSlli: return a << (b & 31u);
    case Op::kSrl: case Op::kSrli: return a >> (b & 31u);
    case Op::kSra: case Op::kSrai:
      return static_cast<std::uint32_t>(sa >> (b & 31u));
    case Op::kSlt: case Op::kSlti: return sa < sb ? 1u : 0u;
    case Op::kSltu: return a < b ? 1u : 0u;
    case Op::kMul:
      return static_cast<std::uint32_t>(
          static_cast<std::int64_t>(sa) * static_cast<std::int64_t>(sb));
    case Op::kMulh:
      return static_cast<std::uint32_t>(
          (static_cast<std::int64_t>(sa) * static_cast<std::int64_t>(sb)) >> 32);
    case Op::kDiv:
      // b == 0 traps before evaluation; INT_MIN / -1 saturates.
      if (sa == INT32_MIN && sb == -1) return static_cast<std::uint32_t>(INT32_MIN);
      return static_cast<std::uint32_t>(sa / sb);
    case Op::kRem:
      if (sa == INT32_MIN && sb == -1) return 0;
      return static_cast<std::uint32_t>(sa % sb);
    case Op::kLui: return b << 16;
    default: return 0;
  }
}
[[nodiscard]] inline bool branch_taken(Op op, std::uint32_t a,
                                       std::uint32_t b) noexcept {
  const auto sa = static_cast<std::int32_t>(a);
  const auto sb = static_cast<std::int32_t>(b);
  switch (op) {
    case Op::kBeq: return a == b;
    case Op::kBne: return a != b;
    case Op::kBlt: return sa < sb;
    case Op::kBge: return sa >= sb;
    case Op::kBltu: return a < b;
    case Op::kBgeu: return a >= b;
    default: return false;
  }
}
[[nodiscard]] inline bool is_load(Op op) noexcept {
  return op == Op::kLw || op == Op::kLb || op == Op::kLbu;
}
[[nodiscard]] inline bool is_store(Op op) noexcept {
  return op == Op::kSw || op == Op::kSb;
}
[[nodiscard]] inline bool is_branch(Op op) noexcept {
  return op >= Op::kBeq && op <= Op::kBgeu;
}
[[nodiscard]] inline bool is_jump(Op op) noexcept {
  return op == Op::kJal || op == Op::kJalr;
}
// True for ops whose rd is written (ALU, loads, jal/jalr, lui): every
// format but S, B and X (ALU-imm, loads and jalr are I-type).
[[nodiscard]] inline bool writes_rd(Op op) noexcept {
  const Format f = format_of(op);
  return f != Format::kS && f != Format::kB && f != Format::kX;
}
// True for mul/mulh (multi-cycle multiplier) and div/rem (iterative divider).
[[nodiscard]] inline bool is_mul(Op op) noexcept {
  return op == Op::kMul || op == Op::kMulh;
}
[[nodiscard]] inline bool is_div(Op op) noexcept {
  return op == Op::kDiv || op == Op::kRem;
}

}  // namespace clear::isa

#endif  // CLEAR_ISA_ISA_H
