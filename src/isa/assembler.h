// Two-stage assembler: text -> AsmUnit (symbolic IR) -> Program.
//
// Splitting parse and assemble lets the software-layer resilience passes
// (soft/) rewrite the IR between the stages, exactly as the paper's LLVM
// passes rewrote compiler IR.
//
// Syntax:
//   .text                      ; section switches
//   .data
//   label:                     ; labels (text section)
//   op operands                ; e.g. addi r1, r0, 10 / lw r3, 4(r2)
//   name: .word 1, 2, -3       ; data definition
//   name: .space 16            ; 16 zero words
//   ; comment   # comment
//
// Pseudo-instructions (fixed expansion size so two-pass layout is stable):
//   la  rd, sym      -> lui+ori with the symbol's byte address
//   li  rd, imm32    -> lui+ori (always two instructions)
//   mv  rd, rs       -> addi rd, rs, 0
//   nop              -> addi r0, r0, 0
//   j   label        -> jal r0, label
//   call label       -> jal r1, label
//   ret              -> jalr r0, r1, 0
#ifndef CLEAR_ISA_ASSEMBLER_H
#define CLEAR_ISA_ASSEMBLER_H

#include <stdexcept>
#include <string>

#include "isa/program.h"

namespace clear::isa {

class AsmError : public std::runtime_error {
 public:
  explicit AsmError(const std::string& what) : std::runtime_error(what) {}
};

// Parses assembly text into the symbolic IR.  Throws AsmError on syntax
// errors (with line numbers).
[[nodiscard]] AsmUnit parse_asm(const std::string& source,
                                const std::string& name = "program");

// Resolves labels/symbols and encodes the program.  Throws AsmError on
// undefined labels or immediate-range violations.
[[nodiscard]] Program assemble(const AsmUnit& unit);

}  // namespace clear::isa

#endif  // CLEAR_ISA_ASSEMBLER_H
