// Table 10: software assertions -- data-variable vs control-variable
// checks, and the false-positive phenomenon.
#include "bench/common.h"

#include "isa/assembler.h"
#include "isa/iss.h"
#include "soft/transforms.h"

namespace clear::bench {
namespace {

core::Variant assert_variant(bool data, bool control) {
  core::Variant v;
  v.assertions = true;
  v.assert_data = data;
  v.assert_control = control;
  return v;
}

void add_row(bench::TextTable* t, const char* name, const char* paper,
             const core::Variant& v) {
  auto& s = bench::session("InO");
  const auto& base = s.profiles(core::Variant::base());
  const auto& prot = s.profiles(v);
  const double g = core::gamma_correction(0.0, prot.exec_overhead);
  const auto imp = core::improvement(base.mass(), prot.mass(), g);
  t->add_row({name, paper, bench::TextTable::pct(prot.exec_overhead * 100),
              bench::TextTable::factor(imp.sdc),
              bench::TextTable::factor(imp.due)});
}

// False positives: train WITHOUT the evaluation input and count error-free
// runs that fire an assertion.
double false_positive_rate() {
  int fp = 0, total = 0;
  for (const auto& name : workloads::benchmarks_for_core("InO")) {
    std::vector<soft::ValueBounds> bounds;
    for (std::uint32_t seed : {11u, 12u, 13u}) {
      auto tplan =
          soft::insert_assertion_sites(workloads::build_benchmark(name, seed));
      soft::train_assertions(isa::assemble(tplan.unit), tplan, &bounds);
    }
    auto plan = soft::insert_assertion_sites(workloads::build_benchmark(name));
    const auto r =
        isa::run_program(isa::assemble(soft::emit_assertions(plan, bounds)));
    ++total;
    fp += (r.status == isa::RunStatus::kDetected);
  }
  return static_cast<double>(fp) / static_cast<double>(total);
}

}  // namespace

void table10_assertions() {
  bench::header("Table 10", "Assertions: data vs control variable checks");
  bench::TextTable t({"Check class", "Paper (exec/SDC/DUE)", "Exec impact",
                      "SDC improve", "DUE improve"});
  add_row(&t, "Data variables only", "12.1% / 1.5x / 0.7x",
          assert_variant(true, false));
  add_row(&t, "Control variables only", "3.5% / 1.1x / 0.9x",
          assert_variant(false, true));
  add_row(&t, "Combined", "15.6% / 1.5x / 0.6x", assert_variant(true, true));
  t.print(std::cout);
  std::printf(
      "false positives when evaluation input is excluded from training: "
      "%.1f%% of benchmarks fire (paper: 0.003%% of runs; eliminated by "
      "including the evaluation input, as done above)\n",
      false_positive_rate() * 100.0);
}

}  // namespace clear::bench
