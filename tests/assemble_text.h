// Test-side assembly shorthand: parse_asm + assemble in one call, for the
// tests that write their programs as assembly text.
#ifndef CLEAR_TESTS_ASSEMBLE_TEXT_H
#define CLEAR_TESTS_ASSEMBLE_TEXT_H

#include <string>

#include "isa/assembler.h"

namespace clear::isa {

inline Program assemble_text(const std::string& source) {
  return assemble(parse_asm(source));
}

}  // namespace clear::isa

#endif  // CLEAR_TESTS_ASSEMBLE_TEXT_H
