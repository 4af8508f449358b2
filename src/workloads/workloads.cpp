#include "workloads/workloads.h"

#include <stdexcept>

#include "isa/assembler.h"
#include "util/rng.h"

namespace clear::workloads {

// Builders defined in workloads_spec.cpp / workloads_perfect.cpp.
isa::AsmUnit build_bzip2_like(std::uint32_t seed);
isa::AsmUnit build_crafty_like(std::uint32_t seed);
isa::AsmUnit build_gzip_like(std::uint32_t seed);
isa::AsmUnit build_mcf_like(std::uint32_t seed);
isa::AsmUnit build_parser_like(std::uint32_t seed);
isa::AsmUnit build_gcc_like(std::uint32_t seed);
isa::AsmUnit build_vpr_like(std::uint32_t seed);
isa::AsmUnit build_twolf_like(std::uint32_t seed);
isa::AsmUnit build_vortex_like(std::uint32_t seed);
isa::AsmUnit build_gap_like(std::uint32_t seed);
isa::AsmUnit build_eon_like(std::uint32_t seed);
isa::AsmUnit build_conv2d(std::uint32_t seed);
isa::AsmUnit build_conv2d_abft(std::uint32_t seed);
isa::AsmUnit build_debayer(std::uint32_t seed);
isa::AsmUnit build_debayer_abft(std::uint32_t seed);
isa::AsmUnit build_inner_product(std::uint32_t seed);
isa::AsmUnit build_inner_product_abft(std::uint32_t seed);
isa::AsmUnit build_fft1d(std::uint32_t seed);
isa::AsmUnit build_fft1d_abft(std::uint32_t seed);
isa::AsmUnit build_histogram(std::uint32_t seed);
isa::AsmUnit build_histogram_abft(std::uint32_t seed);
isa::AsmUnit build_sort(std::uint32_t seed);
isa::AsmUnit build_sort_abft(std::uint32_t seed);
isa::AsmUnit build_change_detection(std::uint32_t seed);
isa::AsmUnit build_change_detection_abft(std::uint32_t seed);

namespace {

using Builder = isa::AsmUnit (*)(std::uint32_t);

struct Entry {
  BenchmarkInfo info;
  Builder base;
  Builder abft;
};

const std::vector<Entry>& table() {
  static const std::vector<Entry> kTable = {
      {{"bzip2", "SPEC", true, AbftKind::kNone}, &build_bzip2_like, nullptr},
      {{"crafty", "SPEC", true, AbftKind::kNone}, &build_crafty_like, nullptr},
      {{"gzip", "SPEC", true, AbftKind::kNone}, &build_gzip_like, nullptr},
      {{"mcf", "SPEC", true, AbftKind::kNone}, &build_mcf_like, nullptr},
      {{"parser", "SPEC", true, AbftKind::kNone}, &build_parser_like, nullptr},
      {{"gcc", "SPEC", true, AbftKind::kNone}, &build_gcc_like, nullptr},
      {{"vpr", "SPEC", false, AbftKind::kNone}, &build_vpr_like, nullptr},
      {{"twolf", "SPEC", false, AbftKind::kNone}, &build_twolf_like, nullptr},
      {{"vortex", "SPEC", true, AbftKind::kNone}, &build_vortex_like, nullptr},
      {{"gap", "SPEC", true, AbftKind::kNone}, &build_gap_like, nullptr},
      {{"eon", "SPEC", false, AbftKind::kNone}, &build_eon_like, nullptr},
      {{"2d_convolution", "PERFECT", true, AbftKind::kCorrection},
       &build_conv2d, &build_conv2d_abft},
      {{"debayer_filter", "PERFECT", false, AbftKind::kCorrection},
       &build_debayer, &build_debayer_abft},
      {{"inner_product", "PERFECT", true, AbftKind::kCorrection},
       &build_inner_product, &build_inner_product_abft},
      {{"fft1d", "PERFECT", true, AbftKind::kDetection}, &build_fft1d,
       &build_fft1d_abft},
      {{"histogram_eq", "PERFECT", false, AbftKind::kDetection},
       &build_histogram, &build_histogram_abft},
      {{"integer_sort", "PERFECT", false, AbftKind::kDetection}, &build_sort,
       &build_sort_abft},
      {{"change_detection", "PERFECT", false, AbftKind::kDetection},
       &build_change_detection, &build_change_detection_abft},
  };
  return kTable;
}

const Entry& find(const std::string& name) {
  for (const auto& e : table()) {
    if (e.info.name == name) return e;
  }
  throw std::out_of_range("unknown benchmark: " + name);
}

}  // namespace

const std::vector<BenchmarkInfo>& benchmark_list() {
  static const std::vector<BenchmarkInfo> kList = [] {
    std::vector<BenchmarkInfo> v;
    for (const auto& e : table()) v.push_back(e.info);
    return v;
  }();
  return kList;
}

std::vector<std::string> benchmarks_for_core(const std::string& core) {
  std::vector<std::string> names;
  for (const auto& e : table()) {
    if (core == "OoO" && !e.info.ooo) continue;
    names.push_back(e.info.name);
  }
  return names;
}

bool supports_abft(const std::string& name, AbftKind kind) {
  if (kind == AbftKind::kNone) return true;
  for (const auto& e : table()) {
    if (e.info.name == name) return e.info.abft == kind;
  }
  return false;
}

isa::AsmUnit build_benchmark(const std::string& name, std::uint32_t seed) {
  return find(name).base(seed);
}

isa::AsmUnit build_abft_variant(const std::string& name, std::uint32_t seed) {
  const Entry& e = find(name);
  if (e.abft == nullptr) {
    throw std::logic_error("benchmark has no ABFT variant: " + name);
  }
  return e.abft(seed);
}

// ---------------------------------------------------------------------------
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

}  // namespace clear::workloads
