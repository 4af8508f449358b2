// Table 3: individual resilience techniques as standalone solutions --
// costs, improvements, execution-time impact and gamma.
#include "bench/common.h"

#include "phys/phys.h"

namespace clear::bench {
namespace {

using core::Improvement;
using core::Variant;

struct Row {
  std::string layer;
  std::string technique;
  std::string paper;
  double energy;
  double exec;
  Improvement imp;
  double gamma;
};

Row measured_variant_row(const std::string& core_name, const char* layer,
                         const char* tech, const char* paper, Variant v,
                         double ff_delta, bool recover_ed) {
  auto& s = bench::session(core_name);
  const auto& prot = s.profiles(v);
  const core::ErrorMass orig = core::mass_over(
      s.profiles(Variant::base()), core::bench_names(prot.benches));
  const double g = core::gamma_correction(ff_delta, prot.exec_overhead);
  core::ErrorMass now = prot.mass();
  if (recover_ed) now.due -= static_cast<double>(prot.totals.ed);
  Row r;
  r.layer = layer;
  r.technique = tech;
  r.paper = paper;
  r.energy = prot.exec_overhead;  // software: energy ~ exec overhead
  r.exec = prot.exec_overhead;
  r.imp = core::improvement(orig, now, g);
  r.gamma = g;
  return r;
}

}  // namespace

void table03_standalone() {
  bench::header("Table 3", "Standalone techniques: improvement / cost / gamma");
  for (const char* cn : {"InO", "OoO"}) {
    const std::string core_name = cn;
    std::printf("\n--- %s core ---\n", cn);
    std::vector<Row> rows;

    // Circuit/logic (tunable) techniques at their max point.
    auto tunable_row = [&](const char* layer, const char* tech,
                           const char* paper, core::Palette pal,
                           arch::RecoveryKind rec) {
      core::SelectionSpec spec;
      spec.palette = pal;
      spec.target = -1;  // max
      spec.recovery = rec;
      const auto rep = bench::selector(core_name).evaluate(spec);
      Row r;
      r.layer = layer;
      r.technique = tech;
      r.paper = paper;
      r.energy = rep.energy;
      r.exec = rep.exec;
      r.imp = rep.imp;
      r.gamma = rep.gamma;
      rows.push_back(r);
    };
    tunable_row("Circuit", "LEAP-DICE (max)", "SDC 5000x, E 22.4%/9.4%",
                core::Palette::dice_only(), arch::RecoveryKind::kNone);
    tunable_row("Circuit", "EDS (max, unconstrained)", "SDC 100000x, DUE<1x",
                core::Palette::eds_only(), arch::RecoveryKind::kNone);
    tunable_row("Circuit", "EDS (max, +IR)", "SDC+DUE 100000x",
                core::Palette::eds_only(), arch::RecoveryKind::kIr);
    tunable_row("Logic", "Parity (max, unconstrained)", "SDC 100000x, DUE<1x",
                core::Palette::parity_only(), arch::RecoveryKind::kNone);
    tunable_row("Logic", "Parity (max, +IR)", "SDC+DUE 100000x",
                core::Palette::parity_only(), arch::RecoveryKind::kIr);

    // Architecture / software / algorithm techniques (measured profiles).
    phys::PhysModel model(*arch::make_core(core_name));
    {
      Variant dfc;
      dfc.dfc = true;
      rows.push_back(measured_variant_row(
          core_name, "Arch", "DFC (unconstrained)", "SDC 1.2x DUE 0.5x",
          dfc, model.dfc_ff_delta(), false));
      rows.push_back(measured_variant_row(
          core_name, "Arch", "DFC (+EIR)", "SDC 1.2x DUE 1.4x", dfc,
          model.dfc_ff_delta() +
              model.recovery_ff_delta(arch::RecoveryKind::kEir),
          true));
    }
    if (core_name == "OoO") {
      Variant mon;
      mon.monitor = true;
      rows.push_back(measured_variant_row(core_name, "Arch",
                                          "Monitor core (+RoB)",
                                          "SDC 19x DUE 15x", mon,
                                          model.monitor_ff_delta(), false));
    }
    if (core_name == "InO") {
      Variant a;
      a.assertions = true;
      rows.push_back(measured_variant_row(core_name, "SW",
                                          "Assertions", "SDC 1.5x DUE 0.6x",
                                          a, 0.0, false));
      Variant c;
      c.cfcss = true;
      rows.push_back(measured_variant_row(core_name, "SW", "CFCSS",
                                          "SDC 1.5x DUE 0.5x", c, 0.0,
                                          false));
      Variant e;
      e.eddi = true;
      rows.push_back(measured_variant_row(core_name, "SW",
                                          "EDDI (store-readback)",
                                          "SDC 37.8x DUE 0.3x", e, 0.0,
                                          false));
      Variant en;
      en.eddi = true;
      en.eddi_readback = false;
      rows.push_back(measured_variant_row(core_name, "SW",
                                          "EDDI (no readback)",
                                          "SDC 3.3x DUE 0.4x", en, 0.0,
                                          false));
    }
    {
      Variant ac;
      ac.abft = workloads::AbftKind::kCorrection;
      rows.push_back(measured_variant_row(core_name, "Alg",
                                          "ABFT correction",
                                          "SDC 4.3x DUE 1.2x E 1.4%", ac,
                                          0.0, false));
      Variant ad;
      ad.abft = workloads::AbftKind::kDetection;
      rows.push_back(measured_variant_row(core_name, "Alg", "ABFT detection",
                                          "SDC 3.5x DUE 0.5x E 24%", ad, 0.0,
                                          false));
    }

    bench::TextTable t({"Layer", "Technique", "Paper (reference)",
                        "Energy cost", "Exec impact", "SDC improve",
                        "DUE improve", "gamma"});
    for (const auto& r : rows) {
      t.add_row({r.layer, r.technique, r.paper,
                 bench::TextTable::pct(r.energy * 100),
                 bench::TextTable::pct(r.exec * 100),
                 bench::TextTable::factor(r.imp.sdc),
                 bench::TextTable::factor(r.imp.due),
                 bench::TextTable::num(r.gamma, 2)});
    }
    t.print(std::cout);
  }
}

}  // namespace clear::bench
