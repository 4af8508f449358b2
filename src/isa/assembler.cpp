#include "isa/assembler.h"

#include <cctype>
#include <cstdlib>
#include <sstream>
#include <vector>

namespace clear::isa {

namespace {

[[noreturn]] void fail(int line, const std::string& msg) {
  std::ostringstream os;
  os << "asm error (line " << line << "): " << msg;
  throw AsmError(os.str());
}

std::string strip(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split_operands(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      out.push_back(strip(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  cur = strip(cur);
  if (!cur.empty()) out.push_back(cur);
  return out;
}

bool parse_reg(const std::string& tok, int* reg) {
  if (tok.size() < 2 || (tok[0] != 'r' && tok[0] != 'R')) return false;
  char* end = nullptr;
  const long v = std::strtol(tok.c_str() + 1, &end, 10);
  if (end == nullptr || *end != '\0' || v < 0 || v >= kNumRegs) return false;
  *reg = static_cast<int>(v);
  return true;
}

bool parse_int(const std::string& tok, std::int64_t* value) {
  if (tok.empty()) return false;
  char* end = nullptr;
  const long long v = std::strtoll(tok.c_str(), &end, 0);
  if (end == nullptr || *end != '\0') return false;
  *value = v;
  return true;
}

int reg_or_fail(const std::string& tok, int line) {
  int r = 0;
  if (!parse_reg(tok, &r)) fail(line, "expected register, got '" + tok + "'");
  return r;
}

std::int64_t int_or_fail(const std::string& tok, int line) {
  std::int64_t v = 0;
  if (!parse_int(tok, &v)) fail(line, "expected integer, got '" + tok + "'");
  return v;
}

// Parses "sym", "sym+off" or "sym-off"; returns {sym, off}.
void parse_sym_off(const std::string& tok, std::string* sym, std::int64_t* off,
                   int line) {
  std::size_t pos = tok.find_first_of("+-", 1);
  if (pos == std::string::npos) {
    *sym = tok;
    *off = 0;
    return;
  }
  *sym = strip(tok.substr(0, pos));
  const std::string rest = strip(tok.substr(pos));
  if (!parse_int(rest, off)) fail(line, "bad symbol offset in '" + tok + "'");
}

// Parses "imm(rN)".
void parse_mem_operand(const std::string& tok, std::int64_t* imm, int* base,
                       std::string* sym, int line) {
  const std::size_t open = tok.find('(');
  const std::size_t close = tok.rfind(')');
  if (open == std::string::npos || close == std::string::npos || close < open) {
    fail(line, "expected mem operand imm(rN), got '" + tok + "'");
  }
  const std::string immpart = strip(tok.substr(0, open));
  const std::string regpart = strip(tok.substr(open + 1, close - open - 1));
  *base = reg_or_fail(regpart, line);
  *sym = "";
  *imm = 0;
  if (immpart.empty()) return;
  if (!parse_int(immpart, imm)) {
    // symbolic displacement: sym or sym+off
    std::int64_t off = 0;
    parse_sym_off(immpart, sym, &off, line);
    *imm = off;
  }
}

}  // namespace

AsmUnit parse_asm(const std::string& source, const std::string& name) {
  AsmUnit unit;
  unit.name = name;
  enum class Section { kText, kData } section = Section::kText;

  std::istringstream in(source);
  std::string raw;
  int line_no = 0;
  std::string pending_data_label;

  while (std::getline(in, raw)) {
    ++line_no;
    // strip comments
    for (const char c : {';', '#'}) {
      const std::size_t pos = raw.find(c);
      if (pos != std::string::npos) raw.erase(pos);
    }
    std::string line = strip(raw);
    if (line.empty()) continue;

    // section directives
    if (line == ".text") {
      section = Section::kText;
      continue;
    }
    if (line == ".data") {
      section = Section::kData;
      continue;
    }

    // leading label(s)
    while (true) {
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos) break;
      const std::string head = strip(line.substr(0, colon));
      // Don't treat "imm(rN)" colons etc. -- our syntax has none; a colon
      // always terminates a label.
      bool ident = !head.empty();
      for (char c : head) {
        if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
              c == '.')) {
          ident = false;
          break;
        }
      }
      if (!ident) fail(line_no, "bad label '" + head + "'");
      if (section == Section::kText) {
        unit.label(head);
      } else {
        pending_data_label = head;
      }
      line = strip(line.substr(colon + 1));
      if (line.empty()) break;
    }
    if (line.empty()) continue;

    if (section == Section::kData) {
      // .word list | .space N
      std::istringstream ls(line);
      std::string directive;
      ls >> directive;
      std::string rest;
      std::getline(ls, rest);
      rest = strip(rest);
      if (pending_data_label.empty()) fail(line_no, "data without a name");
      DataDef def;
      def.name = pending_data_label;
      pending_data_label.clear();
      if (directive == ".word") {
        for (const auto& tok : split_operands(rest)) {
          def.words.push_back(
              static_cast<std::uint32_t>(int_or_fail(tok, line_no)));
        }
      } else if (directive == ".space") {
        const std::int64_t n = int_or_fail(rest, line_no);
        if (n < 0 || n > (1 << 20)) fail(line_no, ".space size out of range");
        def.words.assign(static_cast<std::size_t>(n), 0);
      } else {
        fail(line_no, "unknown data directive '" + directive + "'");
      }
      unit.data.push_back(std::move(def));
      continue;
    }

    // instruction
    std::istringstream ls(line);
    std::string mn;
    ls >> mn;
    std::string rest;
    std::getline(ls, rest);
    const std::vector<std::string> ops = split_operands(strip(rest));

    auto need = [&](std::size_t n) {
      if (ops.size() != n) {
        fail(line_no, mn + ": expected " + std::to_string(n) + " operands");
      }
    };

    // ---- pseudo-instructions ----
    if (mn == "nop") {
      need(0);
      unit.emit({Op::kAddi, 0, 0, 0, 0, "", Rel::kNone});
      continue;
    }
    if (mn == "mv") {
      need(2);
      unit.emit({Op::kAddi, reg_or_fail(ops[0], line_no),
                 reg_or_fail(ops[1], line_no), 0, 0, "", Rel::kNone});
      continue;
    }
    if (mn == "li") {
      need(2);
      const int rd = reg_or_fail(ops[0], line_no);
      const std::int64_t v = int_or_fail(ops[1], line_no);
      const auto u = static_cast<std::uint32_t>(v);
      unit.emit({Op::kLui, rd, 0, 0, static_cast<std::int64_t>(u >> 16), "",
                 Rel::kNone});
      unit.emit({Op::kOri, rd, rd, 0, static_cast<std::int64_t>(u & 0xffff), "",
                 Rel::kNone});
      continue;
    }
    if (mn == "la") {
      need(2);
      const int rd = reg_or_fail(ops[0], line_no);
      std::string sym;
      std::int64_t off = 0;
      parse_sym_off(ops[1], &sym, &off, line_no);
      unit.emit({Op::kLui, rd, 0, 0, off, sym, Rel::kHi16});
      unit.emit({Op::kOri, rd, rd, 0, off, sym, Rel::kLo16});
      continue;
    }
    if (mn == "j") {
      need(1);
      unit.emit({Op::kJal, 0, 0, 0, 0, ops[0], Rel::kCode});
      continue;
    }
    if (mn == "call") {
      need(1);
      unit.emit({Op::kJal, 1, 0, 0, 0, ops[0], Rel::kCode});
      continue;
    }
    if (mn == "ret") {
      need(0);
      unit.emit({Op::kJalr, 0, 1, 0, 0, "", Rel::kNone});
      continue;
    }
    if (mn == "bgt" || mn == "ble") {
      // Swapped-operand forms of blt/bge.
      need(3);
      const int ra = reg_or_fail(ops[0], line_no);
      const int rb = reg_or_fail(ops[1], line_no);
      SymInstr b;
      b.op = mn == "bgt" ? Op::kBlt : Op::kBge;
      b.rs1 = rb;
      b.rs2 = ra;
      std::int64_t v = 0;
      if (parse_int(ops[2], &v)) {
        b.imm = v;
      } else {
        b.target = ops[2];
        b.rel = Rel::kCode;
      }
      unit.emit(std::move(b));
      continue;
    }

    const auto op = op_from_mnemonic(mn);
    if (!op) fail(line_no, "unknown mnemonic '" + mn + "'");

    SymInstr ins;
    ins.op = *op;
    switch (format_of(*op)) {
      case Format::kR:
        need(3);
        ins.rd = reg_or_fail(ops[0], line_no);
        ins.rs1 = reg_or_fail(ops[1], line_no);
        ins.rs2 = reg_or_fail(ops[2], line_no);
        break;
      case Format::kI:
        if (is_load(*op)) {
          need(2);
          ins.rd = reg_or_fail(ops[0], line_no);
          std::string sym;
          parse_mem_operand(ops[1], &ins.imm, &ins.rs1, &sym, line_no);
          if (!sym.empty()) {
            ins.target = sym;
            ins.rel = Rel::kLo16;
          }
        } else {
          need(3);
          ins.rd = reg_or_fail(ops[0], line_no);
          ins.rs1 = reg_or_fail(ops[1], line_no);
          std::int64_t v = 0;
          if (parse_int(ops[2], &v)) {
            ins.imm = v;
          } else {
            std::int64_t off = 0;
            std::string sym;
            parse_sym_off(ops[2], &sym, &off, line_no);
            ins.imm = off;
            ins.target = sym;
            ins.rel = Rel::kLo16;
          }
        }
        break;
      case Format::kS: {
        need(2);
        ins.rs2 = reg_or_fail(ops[0], line_no);
        std::string sym;
        parse_mem_operand(ops[1], &ins.imm, &ins.rs1, &sym, line_no);
        if (!sym.empty()) {
          ins.target = sym;
          ins.rel = Rel::kLo16;
        }
        break;
      }
      case Format::kB: {
        need(3);
        ins.rs1 = reg_or_fail(ops[0], line_no);
        ins.rs2 = reg_or_fail(ops[1], line_no);
        std::int64_t v = 0;
        if (parse_int(ops[2], &v)) {
          ins.imm = v;
        } else {
          ins.target = ops[2];
          ins.rel = Rel::kCode;
        }
        break;
      }
      case Format::kJ: {
        need(2);
        ins.rd = reg_or_fail(ops[0], line_no);
        std::int64_t v = 0;
        if (parse_int(ops[1], &v)) {
          ins.imm = v;
        } else {
          ins.target = ops[1];
          ins.rel = Rel::kCode;
        }
        break;
      }
      case Format::kU:
        need(2);
        ins.rd = reg_or_fail(ops[0], line_no);
        ins.imm = int_or_fail(ops[1], line_no);
        break;
      case Format::kX:
        if (*op == Op::kOut) {
          need(1);
          ins.rs1 = reg_or_fail(ops[0], line_no);
        } else {
          if (ops.empty()) {
            ins.imm = 0;
          } else {
            need(1);
            ins.imm = int_or_fail(ops[0], line_no);
          }
        }
        break;
    }
    unit.emit(std::move(ins));
  }
  return unit;
}

Program assemble(const AsmUnit& unit) {
  Program prog;
  prog.name = unit.name;

  // Pass 1: label/instruction indices and data layout.
  std::unordered_map<std::string, std::uint32_t> labels;
  std::uint32_t index = 0;
  for (const auto& stmt : unit.text) {
    if (stmt.kind == Stmt::Kind::kLabel) {
      if (!labels.emplace(stmt.label, index).second) {
        throw AsmError("duplicate label '" + stmt.label + "'");
      }
    } else {
      ++index;
    }
  }
  std::uint32_t addr = prog.data_base;
  for (const auto& def : unit.data) {
    if (!prog.symbols.emplace(def.name, addr).second) {
      throw AsmError("duplicate data symbol '" + def.name + "'");
    }
    for (const std::uint32_t w : def.words) prog.data.push_back(w);
    addr += static_cast<std::uint32_t>(def.words.size()) * 4;
  }
  if (addr > prog.mem_bytes) throw AsmError("data exceeds memory size");
  prog.code_labels = labels;

  // Pass 2: encode.
  index = 0;
  for (const auto& stmt : unit.text) {
    if (stmt.kind == Stmt::Kind::kLabel) continue;
    const SymInstr& s = stmt.ins;
    std::int64_t imm = s.imm;
    if (s.rel != Rel::kNone) {
      if (s.rel == Rel::kCode) {
        const auto it = labels.find(s.target);
        if (it == labels.end()) {
          throw AsmError("undefined label '" + s.target + "'");
        }
        imm = static_cast<std::int64_t>(it->second) -
              static_cast<std::int64_t>(index);
      } else {
        const auto it = prog.symbols.find(s.target);
        if (it == prog.symbols.end()) {
          throw AsmError("undefined data symbol '" + s.target + "'");
        }
        const std::uint32_t a =
            it->second + static_cast<std::uint32_t>(s.imm);
        imm = s.rel == Rel::kHi16 ? (a >> 16) : (a & 0xffff);
      }
    }
    // Range checks.
    const Format f = format_of(s.op);
    const bool logical =
        s.op == Op::kAndi || s.op == Op::kOri || s.op == Op::kXori;
    if (f == Format::kJ) {
      if (imm < -(1 << 20) || imm >= (1 << 20)) {
        throw AsmError("jal offset out of range");
      }
    } else if (f == Format::kU) {
      if (imm < 0 || imm > 0xffff) throw AsmError("lui imm out of range");
    } else if (f != Format::kR) {
      if (logical) {
        if (imm < 0 || imm > 0xffff) {
          throw AsmError("logical imm out of range for " +
                         std::string(mnemonic(s.op)));
        }
      } else if (imm < -32768 || imm > 32767) {
        throw AsmError("imm16 out of range for " +
                       std::string(mnemonic(s.op)) + " (" +
                       std::to_string(imm) + ")");
      }
    }
    Instr e;
    e.op = s.op;
    e.rd = static_cast<std::uint8_t>(s.rd);
    e.rs1 = static_cast<std::uint8_t>(s.rs1);
    e.rs2 = static_cast<std::uint8_t>(s.rs2);
    e.imm = static_cast<std::int32_t>(imm);
    prog.code.push_back(encode(e));
    ++index;
  }
  return prog;
}

}  // namespace clear::isa
