#include "core/combos.h"

#include <algorithm>
#include <stdexcept>

#include "util/hash.h"

namespace clear::core {

std::string Combo::name() const {
  std::string n;
  auto add = [&n](const char* t) {
    if (!n.empty()) n += "+";
    n += t;
  };
  if (abft == workloads::AbftKind::kCorrection) add("ABFTc");
  if (abft == workloads::AbftKind::kDetection) add("ABFTd");
  if (eddi) add("EDDI");
  if (cfcss) add("CFCSS");
  if (assertions) add("Assert");
  if (monitor) add("Monitor");
  if (dfc) add("DFC");
  if (dice) add("DICE");
  if (parity) add("Parity");
  if (eds) add("EDS");
  if (recovery != arch::RecoveryKind::kNone) {
    n += std::string("(") + arch::recovery_name(recovery) + ")";
  }
  return n;
}

Variant Combo::variant() const {
  Variant v;
  v.eddi = eddi;
  v.assertions = assertions;
  v.cfcss = cfcss;
  v.dfc = dfc;
  v.monitor = monitor;
  v.abft = abft;
  return v;
}

std::vector<Combo> enumerate_combos(const std::string& core) {
  const bool ino = core != "OoO";
  // Per-core detection/correction technique menu (Table 18 header).
  // Bit order: dice, eds, parity, dfc, [assertions, cfcss, eddi | monitor]
  const int n_tech = ino ? 7 : 5;

  std::vector<Combo> out;
  auto decode_set = [&](unsigned bits) {
    Combo c;
    c.dice = bits & 1u;
    c.eds = bits & 2u;
    c.parity = bits & 4u;
    c.dfc = bits & 8u;
    if (ino) {
      c.assertions = bits & 16u;
      c.cfcss = bits & 32u;
      c.eddi = bits & 64u;
    } else {
      c.monitor = bits & 16u;
    }
    return c;
  };

  std::vector<Combo> no_rec;
  for (unsigned bits = 1; bits < (1u << n_tech); ++bits) {
    Combo c = decode_set(bits);
    c.recovery = arch::RecoveryKind::kNone;
    no_rec.push_back(c);
  }

  // Flush/RoB recovery: single-cycle in-pipeline detectors; LEAP-DICE is
  // forced onto the unflushable stages (not a free axis).
  std::vector<Combo> squash_rec;
  {
    const arch::RecoveryKind rec =
        ino ? arch::RecoveryKind::kFlush : arch::RecoveryKind::kRob;
    const int fast = ino ? 2 : 3;  // {eds, parity} (+ monitor on OoO)
    for (unsigned bits = 1; bits < (1u << fast); ++bits) {
      Combo c;
      c.eds = bits & 1u;
      c.parity = bits & 2u;
      if (!ino) c.monitor = bits & 4u;
      c.dice = true;  // forced on unflushable stages (Heuristic 1)
      c.recovery = rec;
      squash_rec.push_back(c);
    }
  }

  // IR/EIR recovery: hardware detectors, optionally with selective DICE.
  std::vector<Combo> replay_rec;
  {
    const int hw = ino ? 3 : 4;  // {eds, parity, dfc} (+ monitor on OoO)
    for (unsigned bits = 1; bits < (1u << hw); ++bits) {
      for (int with_dice = 0; with_dice < 2; ++with_dice) {
        Combo c;
        c.eds = bits & 1u;
        c.parity = bits & 2u;
        c.dfc = bits & 4u;
        if (!ino) c.monitor = bits & 8u;
        c.dice = with_dice != 0;
        c.recovery =
            c.dfc ? arch::RecoveryKind::kEir : arch::RecoveryKind::kIr;
        replay_rec.push_back(c);
      }
    }
  }

  auto append_all = [&out](const std::vector<Combo>& v) {
    out.insert(out.end(), v.begin(), v.end());
  };
  append_all(no_rec);
  append_all(squash_rec);
  append_all(replay_rec);

  // ABFT standalone.
  {
    Combo c;
    c.abft = workloads::AbftKind::kCorrection;
    out.push_back(c);
    c.abft = workloads::AbftKind::kDetection;
    out.push_back(c);
  }
  // ABFT correction composes with every previous combination (top-down).
  for (const auto& base : {&no_rec, &squash_rec, &replay_rec}) {
    for (Combo c : *base) {
      c.abft = workloads::AbftKind::kCorrection;
      out.push_back(c);
    }
  }
  // ABFT detection: unconstrained combinations only (detection latency in
  // the millions of cycles rules out hardware recovery).
  for (Combo c : no_rec) {
    c.abft = workloads::AbftKind::kDetection;
    out.push_back(c);
  }
  return out;
}

std::uint64_t enumeration_fingerprint(const std::string& core) {
  std::uint64_t h = util::fnv1a64(nullptr, 0);
  for (const Combo& c : enumerate_combos(core)) {
    const std::string n = c.name();
    h = util::fnv1a64(n.data(), n.size(), h);
    h = util::fnv1a64("\n", 1, h);
  }
  return h;
}

std::vector<Variant> combo_layer_variants(const Combo& combo) {
  if (combo.software_layers() <= 1) return {combo.variant()};
  std::vector<Variant> layers;
  auto add_layer = [&](auto setter) {
    Variant v;
    setter(v);
    layers.push_back(v);
  };
  if (combo.abft != workloads::AbftKind::kNone) {
    add_layer([&](Variant& v) { v.abft = combo.abft; });
  }
  if (combo.eddi) add_layer([](Variant& v) { v.eddi = true; });
  if (combo.assertions) add_layer([](Variant& v) { v.assertions = true; });
  if (combo.cfcss) add_layer([](Variant& v) { v.cfcss = true; });
  if (combo.dfc) add_layer([](Variant& v) { v.dfc = true; });
  if (combo.monitor) add_layer([](Variant& v) { v.monitor = true; });
  return layers;
}

std::vector<Variant> combo_variants(const Combo& combo) {
  std::vector<Variant> out{Variant::base()};
  const std::vector<Variant> layers = combo_layer_variants(combo);
  out.insert(out.end(), layers.begin(), layers.end());
  return out;
}

double combo_cost_lower_bound(const Session& session,
                              const phys::PhysModel& model,
                              const Combo& combo) {
  // Execution term: identical to what combo_profile() will report (direct
  // measurement for <= 1 layer, independence product otherwise), so the
  // bound is tight on the software axis.
  double exec = 1.0;
  for (const Variant& lv : combo_layer_variants(combo)) {
    exec *= 1.0 + std::max(0.0, session.resident(lv).exec_overhead);
  }
  // Power term: only the fixed hardware blocks; the selective tunable
  // protection adds a non-negative amount on top.  The SP&R artifact
  // multiplier averages to 1.0 with a low-percent sigma; 0.9 keeps the
  // bound sound across its whole band.
  constexpr double kNoiseFloor = 0.9;
  phys::Overhead fixed;
  if (combo.dfc) fixed += model.dfc_overhead();
  if (combo.monitor) fixed += model.monitor_overhead();
  fixed += model.recovery_overhead(combo.recovery);
  const double power_lb = std::max(0.0, fixed.power) * kNoiseFloor;
  return std::max(0.0, (1.0 + power_lb) * exec - 1.0);
}

namespace {

// Independence composition of a multi-layer combo's profile from its
// single-layer profiles (combo_profile() documents the model).
ProfileSet compose_profile(const Session& session, const Combo& combo) {
  const ProfileSet& base = session.resident(Variant::base());
  const std::vector<Variant> layers = combo_layer_variants(combo);

  ProfileSet out;
  out.core = base.core;
  out.variant_key = combo.variant().key() + "#composed";
  out.ff_count = base.ff_count;
  out.ff_total = base.ff_total;
  // Names only: nothing downstream reads a composed set's campaigns.
  out.benches.reserve(base.benches.size());
  for (const BenchProfile& b : base.benches) {
    BenchProfile named;
    named.benchmark = b.benchmark;
    named.base_cycles = b.base_cycles;
    out.benches.push_back(std::move(named));
  }
  std::vector<double> sdc(base.ff_count);
  std::vector<double> due(base.ff_count);
  for (std::uint32_t f = 0; f < base.ff_count; ++f) {
    sdc[f] = static_cast<double>(base.ff_sdc[f]);
    due[f] = static_cast<double>(base.ff_due[f]);
  }
  double exec = 1.0;
  for (const Variant& lv : layers) {
    const ProfileSet& lp = session.resident(lv);
    exec *= 1.0 + std::max(0.0, lp.exec_overhead);
    for (std::uint32_t f = 0; f < base.ff_count; ++f) {
      const double bt = static_cast<double>(base.ff_total[f]);
      const double lt = static_cast<double>(lp.ff_total[f]);
      if (bt <= 0 || lt <= 0) continue;
      const double base_sdc_rate =
          static_cast<double>(base.ff_sdc[f]) / bt;
      const double layer_sdc_rate =
          static_cast<double>(lp.ff_sdc[f]) / lt;
      if (base_sdc_rate > 0) {
        sdc[f] *= std::clamp(layer_sdc_rate / base_sdc_rate, 0.0, 1.5);
      }
      const double base_due_rate =
          static_cast<double>(base.ff_due[f]) / bt;
      const double layer_due_rate =
          static_cast<double>(lp.ff_due[f]) / lt;
      if (base_due_rate > 0) {
        due[f] *= std::clamp(layer_due_rate / base_due_rate, 0.0, 3.0);
      } else if (layer_due_rate > 0) {
        due[f] += layer_due_rate * bt;  // detections add ED mass
      }
    }
  }
  out.ff_sdc.assign(base.ff_count, 0);
  out.ff_due.assign(base.ff_count, 0);
  out.totals = {};
  for (std::uint32_t f = 0; f < base.ff_count; ++f) {
    out.ff_sdc[f] = static_cast<std::uint64_t>(sdc[f] + 0.5);
    out.ff_due[f] = static_cast<std::uint64_t>(due[f] + 0.5);
    out.totals.omm += static_cast<std::uint32_t>(out.ff_sdc[f]);
    out.totals.ut += static_cast<std::uint32_t>(out.ff_due[f]);
    const std::uint64_t rest =
        base.ff_total[f] >= out.ff_sdc[f] + out.ff_due[f]
            ? base.ff_total[f] - out.ff_sdc[f] - out.ff_due[f]
            : 0;
    out.totals.vanished += static_cast<std::uint32_t>(rest);
  }
  out.exec_overhead = exec - 1.0;
  return out;
}

}  // namespace

ProfileSet combo_profile(const Session& session, const Combo& combo) {
  if (combo.software_layers() <= 1) return session.resident(combo.variant());
  return compose_profile(session, combo);
}

ComboPoint evaluate_combo(const Session& session, const Selector& selector,
                          const Combo& combo, double target, Metric metric) {
  // A measured single-layer profile is read in place; only a composed
  // one is built.
  ProfileSet composed;
  const ProfileSet* measured = nullptr;
  if (combo.software_layers() <= 1) {
    measured = &session.resident(combo.variant());
  } else {
    composed = compose_profile(session, combo);
  }
  const ProfileSet& prof = measured != nullptr ? *measured : composed;
  const ProfileSet& base_full = session.resident(Variant::base());
  ProfileSet base_sub;
  const ProfileSet* base = &base_full;
  if (prof.benches.size() != base_full.benches.size()) {
    std::vector<std::string> names;
    for (const auto& b : prof.benches) names.push_back(b.benchmark);
    base_sub = session.subset(base_full, names);
    base = &base_sub;
  }

  SelectionSpec spec;
  spec.palette = combo.has_tunable() ? combo.palette() : Palette::none();
  spec.metric = metric;
  spec.target = combo.has_tunable() ? target : 0.0;  // fixed point otherwise
  spec.recovery = combo.recovery;
  spec.variant = combo.variant();
  if (!combo.has_tunable()) spec.target = -1.0;

  const CostReport rep =
      selector.evaluate_with_profiles(spec, *base, prof, prof);
  ComboPoint p;
  p.combo = combo.name();
  p.target = combo.has_tunable() ? target : 0.0;
  p.target_met = combo.has_tunable() ? rep.target_met : true;
  p.energy = rep.energy;
  p.area = rep.area;
  p.power = rep.power;
  p.exec = rep.exec;
  p.sdc_protected_pct = rep.sdc_protected_frac * 100.0;
  p.imp = rep.imp;
  return p;
}

}  // namespace clear::core
