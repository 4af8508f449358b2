#include "workloads/workloads.h"

#include <stdexcept>

#include "isa/assembler.h"

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

}  // namespace clear::workloads
