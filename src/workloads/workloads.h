// The 18 application benchmarks (paper Sec. 2.1: 11 SPECINT2000 + 7 DARPA
// PERFECT).  SPEC/PERFECT sources and toolchains are not available for the
// reproduction ISA, so each benchmark is a from-scratch kernel with the
// same domain character as its namesake (see DESIGN.md for the mapping).
// Every kernel:
//   * runs to completion in a few thousand cycles on the InO core,
//   * emits its results through `out` instructions (the Output-Mismatch /
//     SDC classification compares this output stream),
//   * uses only registers r1..r14 so the EDDI transform can mirror state
//     into r17..r30 (r15/r31 are reserved scratch for software checks),
//   * accepts an input seed so training/evaluation input sets differ
//     (software-assertion training, Sec. 2.4).
//
// PERFECT-flavoured matrix kernels additionally have ABFT variants:
//   * correction (2d_convolution, debayer_filter, inner_product): checksum
//     verification with in-place recompute on mismatch -- no external
//     recovery needed (paper Sec. 3.2),
//   * detection (fft1d, histogram_eq, integer_sort, change_detection):
//     algorithm invariants (exact Parseval for the Walsh-Hadamard "FFT",
//     bin-count conservation, sortedness+sum, recompute-compare) that raise
//     `det` on violation.
#ifndef CLEAR_WORKLOADS_WORKLOADS_H
#define CLEAR_WORKLOADS_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.h"

namespace clear::workloads {

enum class AbftKind : std::uint8_t { kNone, kCorrection, kDetection };

struct BenchmarkInfo {
  std::string name;
  std::string suite;  // "SPEC" or "PERFECT"
  bool ooo = false;   // member of the OoO-core subset (paper footnote 3)
  AbftKind abft = AbftKind::kNone;
};

// All 18 benchmarks, in canonical order.
[[nodiscard]] const std::vector<BenchmarkInfo>& benchmark_list();

// Names of the benchmarks evaluated on a given core ("InO": all 18,
// "OoO": 8 SPEC + 3 PERFECT).
[[nodiscard]] std::vector<std::string> benchmarks_for_core(
    const std::string& core);

// True when the named benchmark runs a program variant of ABFT kind
// `kind`: always for kNone, otherwise when the benchmark's own ABFT kind
// is `kind` (false for an unknown name).  The one rule for which
// benchmarks an ABFT variant is profiled on.
[[nodiscard]] bool supports_abft(const std::string& name, AbftKind kind);

// Builds a benchmark program (symbolic IR, pre-assembly).  input_seed
// selects the input data set; 0 is the canonical evaluation input.
// Throws std::out_of_range for unknown names.
[[nodiscard]] isa::AsmUnit build_benchmark(const std::string& name,
                                           std::uint32_t input_seed = 0);

// Builds the ABFT-protected variant (correction or detection, per the
// benchmark's AbftKind).  Throws std::logic_error if the benchmark has no
// ABFT variant.
[[nodiscard]] isa::AsmUnit build_abft_variant(const std::string& name,
                                              std::uint32_t input_seed = 0);

}  // namespace clear::workloads

#endif  // CLEAR_WORKLOADS_WORKLOADS_H
