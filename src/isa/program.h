// Program images and the symbolic assembly IR that software-level
// resilience transformations (EDDI, CFCSS, assertions, DFC signature
// embedding) operate on.
#ifndef CLEAR_ISA_PROGRAM_H
#define CLEAR_ISA_PROGRAM_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/isa.h"

namespace clear::isa {

// A fully assembled program: Harvard layout with separate instruction and
// data memories.  Data addresses are byte addresses starting at data_base.
struct Program {
  std::string name;
  std::vector<std::uint32_t> code;   // encoded instruction words
  std::vector<std::uint32_t> data;   // initial data image (one word per entry)
  std::uint32_t data_base = 0x1000;  // byte address of data[0]
  // Data memory size.  32 KiB comfortably fits every benchmark's working
  // set and keeps per-injection-run reset cost low (campaigns run many
  // thousands of short simulations).
  std::uint32_t mem_bytes = 1u << 15;
  std::unordered_map<std::string, std::uint32_t> symbols;      // data name -> byte addr
  std::unordered_map<std::string, std::uint32_t> code_labels;  // label -> instr index
  // DFC static signature side table: block id -> expected signature.  The
  // table is populated by the DFC compiler pass and consumed by the DFC
  // checker hardware model in the cores (see arch/).
  std::unordered_map<std::uint16_t, std::uint32_t> dfc_signatures;

  [[nodiscard]] std::uint32_t entry_pc() const noexcept { return 0; }
};

// How a symbolic target is folded into the immediate field.
enum class Rel : std::uint8_t {
  kNone,   // no symbolic target; imm used as-is
  kCode,   // target is a code label; imm <- label_index - instr_index
  kHi16,   // target is a data symbol; imm <- (addr + imm) >> 16
  kLo16,   // target is a data symbol; imm <- (addr + imm) & 0xffff
};

// One symbolic instruction.  Branch/jump/address operands can reference a
// label or data symbol, which is resolved at assembly time.  Transformation
// passes insert/remove/rewrite these before final assembly.
struct SymInstr {
  Op op = Op::kHalt;
  int rd = 0;
  int rs1 = 0;
  int rs2 = 0;
  std::int64_t imm = 0;
  std::string target;  // non-empty: label (branch/jal) or data symbol (la/li)
  Rel rel = Rel::kNone;
};

// A statement in the assembly IR: either a label definition or an
// instruction.
struct Stmt {
  enum class Kind : std::uint8_t { kLabel, kInstr };
  Kind kind = Kind::kInstr;
  std::string label;  // for kLabel
  SymInstr ins;       // for kInstr

  static Stmt make_label(std::string name) {
    Stmt s;
    s.kind = Kind::kLabel;
    s.label = std::move(name);
    return s;
  }
  static Stmt make_instr(SymInstr i) {
    Stmt s;
    s.kind = Kind::kInstr;
    s.ins = std::move(i);
    return s;
  }
};

// A named, initialized data object.
struct DataDef {
  std::string name;
  std::vector<std::uint32_t> words;
};

// Parsed-but-unassembled program: the unit transformation passes work on.
struct AsmUnit {
  std::string name;
  std::vector<Stmt> text;
  std::vector<DataDef> data;

  // Appends an instruction (builder-style construction used by workloads).
  void emit(SymInstr i) { text.push_back(Stmt::make_instr(std::move(i))); }
  void label(std::string l) { text.push_back(Stmt::make_label(std::move(l))); }
};

}  // namespace clear::isa

#endif  // CLEAR_ISA_PROGRAM_H
