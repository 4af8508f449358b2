// Tables 11 & 14: the [Cho 13] effect -- SDC improvement of software
// techniques as seen through different injection models.  Flip-flop-level
// injection is the ground truth; architecture-register and program-
// variable injection systematically distort the conclusion.
#include "bench/common.h"

#include "inject/iss_inject.h"

namespace clear::bench {
namespace {

struct LevelRow {
  double ff = 0, regu = 0, regw = 0, varu = 0, varw = 0;
};

double iss_improvement(const isa::Program& base, const isa::Program& prot,
                       inject::InjectLevel level, std::size_t n,
                       std::uint64_t seed) {
  const auto b = inject::run_iss_campaign(base, level, n, seed);
  const auto p = inject::run_iss_campaign(prot, level, n, seed + 1);
  return core::ratio_capped(static_cast<double>(b.omm),
                            static_cast<double>(p.omm));
}

LevelRow level_row(const std::string& benchmark, const core::Variant& v,
                   std::size_t n) {
  const auto base = core::build_variant_program(benchmark, core::Variant::base());
  const auto prot = core::build_variant_program(benchmark, v);
  LevelRow r;
  // Flip-flop ground truth from the cached campaigns.
  auto& s = bench::session("InO");
  const auto& bp = s.profiles(core::Variant::base());
  const auto& pp = s.profiles(v);
  for (std::size_t i = 0; i < bp.benches.size(); ++i) {
    if (bp.benches[i].benchmark != benchmark) continue;
    for (std::size_t j = 0; j < pp.benches.size(); ++j) {
      if (pp.benches[j].benchmark != benchmark) continue;
      r.ff = core::ratio_capped(
          static_cast<double>(bp.benches[i].campaign.totals.sdc()),
          static_cast<double>(pp.benches[j].campaign.totals.sdc()));
    }
  }
  r.regu = iss_improvement(base, prot, inject::InjectLevel::kRegUniform, n, 3);
  r.regw = iss_improvement(base, prot, inject::InjectLevel::kRegWrite, n, 5);
  r.varu = iss_improvement(base, prot, inject::InjectLevel::kVarUniform, n, 7);
  r.varw = iss_improvement(base, prot, inject::InjectLevel::kVarWrite, n, 9);
  return r;
}

void print_level_table(const char* id, const char* title,
                       const core::Variant& v,
                       const std::vector<std::string>& apps, std::size_t n) {
  bench::header(id, title);
  bench::TextTable t({"App", "Flip-flop (ground truth)", "regU", "regW",
                      "varU", "varW"});
  LevelRow avg;
  for (const auto& app : apps) {
    const LevelRow r = level_row(app, v, n);
    avg.ff += r.ff;
    avg.regu += r.regu;
    avg.regw += r.regw;
    avg.varu += r.varu;
    avg.varw += r.varw;
    t.add_row({app, bench::TextTable::factor(r.ff),
               bench::TextTable::factor(r.regu),
               bench::TextTable::factor(r.regw),
               bench::TextTable::factor(r.varu),
               bench::TextTable::factor(r.varw)});
  }
  const double k = static_cast<double>(apps.size());
  t.add_row({"avg", bench::TextTable::factor(avg.ff / k),
             bench::TextTable::factor(avg.regu / k),
             bench::TextTable::factor(avg.regw / k),
             bench::TextTable::factor(avg.varu / k),
             bench::TextTable::factor(avg.varw / k)});
  t.print(std::cout);
}

}  // namespace

void table11_14_injection_levels() {
  core::Variant assertions;
  assertions.assertions = true;
  // The SPEC applications the paper evaluates in Table 11.
  print_level_table("Table 11",
                    "Assertions: SDC improvement by injection level "
                    "(paper avg: FF 1.6x, regU 4.8x, regW 0.9x, varU 1.5x, "
                    "varW 1.5x)",
                    assertions, {"bzip2", "crafty", "gzip", "mcf", "parser"},
                    700);
  core::Variant eddi;
  eddi.eddi = true;
  eddi.eddi_readback = false;
  print_level_table("Table 14",
                    "EDDI (no readback): SDC improvement by injection level "
                    "(paper: FF 3.3x, regU 2.0x, regW 6.6x, varU 12.6x, "
                    "varW 100000x)",
                    eddi, {"bzip2", "mcf", "parser"}, 700);
  bench::note("(high-level injection over- or under-estimates software"
              " techniques; only flip-flop injection is ground truth)");
}

}  // namespace clear::bench
