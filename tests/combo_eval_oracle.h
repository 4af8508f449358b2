// Test-side oracle for combo evaluation.
//
// core::evaluate_combo evaluates a combo through its software stack
// (core::ComboStack), prepared once per (session, variant, metric): the
// composed counts, the base reference mass and the vulnerability order
// are shared by every combo on the stack, and the selection's per-combo
// passes walk only the protected FFs.  This header is the evaluator that
// prepared nothing: per combo it composes a multi-layer profile, copies
// the ABFT base subset through Session::subset, ranks and walks every FF
// and costs the whole protection vector.  It reads only the public
// Session, Selector and PhysModel API, so every ComboPoint field it
// returns must equal the production one bit for bit.
#ifndef CLEAR_TESTS_COMBO_EVAL_ORACLE_H
#define CLEAR_TESTS_COMBO_EVAL_ORACLE_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/core.h"
#include "core/combos.h"
#include "core/selection.h"
#include "resilience/parity.h"
#include "util/stats.h"

namespace clear::testref {

class ComboEvalOracle {
 public:
  ComboEvalOracle(const core::Session& session, const core::Selector& selector)
      : session_(&session),
        model_(&selector.model()),
        proto_(arch::make_core(session.core())) {
    const auto& reg = proto_->registry();
    const double tree32 = phys::PhysModel::xor_tree_delay_ps(32);
    for (std::uint32_t f = 0; f < reg.ff_count(); ++f) {
      flushable_.push_back(reg.structure_of(f).flags.flushable);
      parity_fits32_.push_back(model_->slack_ps(f) >= tree32);
    }
  }

  core::ComboPoint evaluate(const core::Combo& combo, double target,
                            core::Metric metric) const {
    using namespace core;
    ProfileSet composed;
    const ProfileSet* measured = nullptr;
    if (combo.software_layers() <= 1) {
      measured = &session_->resident(combo.variant());
    } else {
      composed = compose_profile(combo);
    }
    const ProfileSet& prof = measured != nullptr ? *measured : composed;
    const ProfileSet& base_full = session_->resident(Variant::base());
    ProfileSet base_sub;
    const ProfileSet* base = &base_full;
    if (prof.benches.size() != base_full.benches.size()) {
      std::vector<std::string> names;
      for (const auto& b : prof.benches) names.push_back(b.benchmark);
      base_sub = session_->subset(base_full, names);
      base = &base_sub;
    }

    SelectionSpec spec;
    spec.palette = combo.has_tunable() ? combo.palette() : Palette::none();
    spec.metric = metric;
    spec.target = combo.has_tunable() ? target : 0.0;
    spec.recovery = combo.recovery;
    spec.variant = combo.variant();
    if (!combo.has_tunable()) spec.target = -1.0;

    const CostReport rep = run_selection(spec, *base, prof, prof);
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

 private:
  core::ProfileSet compose_profile(const core::Combo& combo) const {
    using namespace core;
    const ProfileSet& base = session_->resident(Variant::base());
    ProfileSet out;
    out.core = base.core;
    out.ff_count = base.ff_count;
    out.ff_total = base.ff_total;
    for (const BenchProfile& b : base.benches) {
      BenchProfile named;
      named.benchmark = b.benchmark;
      out.benches.push_back(std::move(named));
    }
    std::vector<double> sdc(base.ff_count);
    std::vector<double> due(base.ff_count);
    for (std::uint32_t f = 0; f < base.ff_count; ++f) {
      sdc[f] = static_cast<double>(base.ff_sdc[f]);
      due[f] = static_cast<double>(base.ff_due[f]);
    }
    double exec = 1.0;
    for (const Variant& lv : combo_layer_variants(combo)) {
      const ProfileSet& lp = session_->resident(lv);
      exec *= 1.0 + std::max(0.0, lp.exec_overhead);
      for (std::uint32_t f = 0; f < base.ff_count; ++f) {
        const double bt = static_cast<double>(base.ff_total[f]);
        const double lt = static_cast<double>(lp.ff_total[f]);
        if (bt <= 0 || lt <= 0) continue;
        const double bs = static_cast<double>(base.ff_sdc[f]) / bt;
        const double ls = static_cast<double>(lp.ff_sdc[f]) / lt;
        if (bs > 0) sdc[f] *= std::clamp(ls / bs, 0.0, 1.5);
        const double bd = static_cast<double>(base.ff_due[f]) / bt;
        const double ld = static_cast<double>(lp.ff_due[f]) / lt;
        if (bd > 0) {
          due[f] *= std::clamp(ld / bd, 0.0, 3.0);
        } else if (ld > 0) {
          due[f] += ld * bt;
        }
      }
    }
    out.ff_sdc.assign(base.ff_count, 0);
    out.ff_due.assign(base.ff_count, 0);
    for (std::uint32_t f = 0; f < base.ff_count; ++f) {
      out.ff_sdc[f] = static_cast<std::uint64_t>(sdc[f] + 0.5);
      out.ff_due[f] = static_cast<std::uint64_t>(due[f] + 0.5);
    }
    out.exec_overhead = exec - 1.0;
    return out;
  }

  // Selector::run_selection as it was, vulnerability order only.
  core::CostReport run_selection(const core::SelectionSpec& spec,
                                 const core::ProfileSet& base,
                                 const core::ProfileSet& train,
                                 const core::ProfileSet& validate) const {
    using namespace core;
    constexpr double kDiceResidual = 2.0e-4;
    const std::uint32_t n = train.ff_count;
    const bool max_point = spec.target <= 0.0;
    const bool squash_rec = spec.recovery == arch::RecoveryKind::kFlush ||
                            spec.recovery == arch::RecoveryKind::kRob;
    auto choose_tech = [&](std::uint32_t f) -> arch::FFProt {
      const Palette& p = spec.palette;
      if (!p.any()) return arch::FFProt::kNone;
      if (squash_rec && !flushable_[f]) {
        if (p.dice) return arch::FFProt::kLeapDice;
        if (p.parity) return arch::FFProt::kParity;
        return arch::FFProt::kEds;
      }
      if (p.parity && parity_fits32_[f]) return arch::FFProt::kParity;
      if (p.eds) return arch::FFProt::kEds;
      if (p.dice) return arch::FFProt::kLeapDice;
      return arch::FFProt::kParity;
    };
    auto residual = [&](std::uint32_t f, arch::FFProt tech, double sdc,
                        double due,
                        double total) -> std::pair<double, double> {
      switch (tech) {
        case arch::FFProt::kLeapDice:
        case arch::FFProt::kLeapCtrlRes:
          return {sdc * kDiceResidual, due * kDiceResidual};
        case arch::FFProt::kParity:
        case arch::FFProt::kEds:
          if (spec.recovery != arch::RecoveryKind::kNone &&
              (!squash_rec || flushable_[f])) {
            return {0.0, 0.0};
          }
          return {0.0, total};
        default:
          return {sdc, due};
      }
    };
    auto metric_count = [&](std::uint32_t f) -> double {
      switch (spec.metric) {
        case Metric::kSdc: return static_cast<double>(train.ff_sdc[f]);
        case Metric::kDue: return static_cast<double>(train.ff_due[f]);
        case Metric::kJoint:
          return static_cast<double>(train.ff_sdc[f] + train.ff_due[f]);
      }
      return 0.0;
    };

    std::vector<std::uint32_t> order;
    for (std::uint32_t f = 0; f < n; ++f) {
      if (max_point || metric_count(f) > 0) order.push_back(f);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return metric_count(a) > metric_count(b);
                     });

    double fixed_ff_delta = model_->recovery_ff_delta(spec.recovery);
    if (spec.variant.dfc) fixed_ff_delta += model_->dfc_ff_delta();
    if (spec.variant.monitor) fixed_ff_delta += model_->monitor_ff_delta();
    const double exec = std::max(0.0, train.exec_overhead);

    double t_sdc = 0, t_due = 0, v_sdc = 0, v_due = 0;
    for (std::uint32_t f = 0; f < n; ++f) {
      t_sdc += static_cast<double>(train.ff_sdc[f]);
      t_due += static_cast<double>(train.ff_due[f]);
      v_sdc += static_cast<double>(validate.ff_sdc[f]);
      v_due += static_cast<double>(validate.ff_due[f]);
    }
    const ErrorMass orig_t = base.mass();
    const ErrorMass orig_v = base.mass();

    std::vector<arch::FFProt> prot(n, arch::FFProt::kNone);
    std::size_t selected = 0;
    std::size_t n_parity = 0;
    auto met = [&]() {
      if (max_point) return selected >= order.size();
      const double g = gamma_correction(
          fixed_ff_delta + static_cast<double>(n_parity) * 0.09 /
                               static_cast<double>(std::max(1u, n)),
          exec);
      const double si = ratio_capped(orig_t.sdc, t_sdc) / g;
      const double di = ratio_capped(orig_t.due, t_due) / g;
      switch (spec.metric) {
        case Metric::kSdc: return si >= spec.target;
        case Metric::kDue: return di >= spec.target;
        case Metric::kJoint: return si >= spec.target && di >= spec.target;
      }
      return true;
    };
    while (selected < order.size() && !met()) {
      const std::uint32_t f = order[selected++];
      const arch::FFProt tech = choose_tech(f);
      prot[f] = tech;
      if (tech == arch::FFProt::kParity) ++n_parity;
      const auto [ts, td] =
          residual(f, tech, static_cast<double>(train.ff_sdc[f]),
                   static_cast<double>(train.ff_due[f]),
                   static_cast<double>(train.ff_total[f]));
      t_sdc += ts - static_cast<double>(train.ff_sdc[f]);
      t_due += td - static_cast<double>(train.ff_due[f]);
      const auto [vs, vd] =
          residual(f, tech, static_cast<double>(validate.ff_sdc[f]),
                   static_cast<double>(validate.ff_due[f]),
                   static_cast<double>(validate.ff_total[f]));
      v_sdc += vs - static_cast<double>(validate.ff_sdc[f]);
      v_due += vd - static_cast<double>(validate.ff_due[f]);
    }

    CostReport rep;
    rep.exec = exec;
    std::vector<std::uint32_t> parity_ffs;
    for (std::uint32_t f = 0; f < n; ++f) {
      if (prot[f] == arch::FFProt::kParity) parity_ffs.push_back(f);
    }
    rep.parity_plan = resilience::build_parity_plan(
        *proto_, *model_, parity_ffs,
        resilience::ParityHeuristic::kOptimized);
    rep.ff_delta = fixed_ff_delta + model_->parity_ff_delta(rep.parity_plan);
    rep.gamma = gamma_correction(rep.ff_delta, exec);
    rep.imp = improvement(orig_v, {v_sdc, v_due}, rep.gamma);
    rep.sdc_protected_frac =
        orig_v.sdc > 0 ? std::clamp(1.0 - v_sdc / orig_v.sdc, 0.0, 1.0)
                       : 1.0;
    {
      const double si = ratio_capped(orig_t.sdc, t_sdc) / rep.gamma;
      const double di = ratio_capped(orig_t.due, t_due) / rep.gamma;
      switch (spec.metric) {
        case Metric::kSdc: rep.target_met = max_point || si >= spec.target;
          break;
        case Metric::kDue: rep.target_met = max_point || di >= spec.target;
          break;
        case Metric::kJoint:
          rep.target_met =
              max_point || (si >= spec.target && di >= spec.target);
          break;
      }
    }

    std::size_t n_eds = 0;
    for (std::uint32_t f = 0; f < n; ++f) n_eds += prot[f] == arch::FFProt::kEds;
    phys::Overhead oh;
    for (std::uint32_t f = 0; f < n; ++f) {
      if (prot[f] == arch::FFProt::kParity || prot[f] == arch::FFProt::kEds) {
        continue;
      }
      const phys::CellCosts c = phys::ff_cell(prot[f]);
      oh.area += c.area - 1.0;
      oh.power += c.power - 1.0;
    }
    oh.area /= model_->total_area();
    oh.power /= model_->total_power();
    oh += model_->parity_overhead(rep.parity_plan);
    oh += model_->eds_overhead(n_eds);
    if (spec.variant.dfc) oh += model_->dfc_overhead();
    if (spec.variant.monitor) oh += model_->monitor_overhead();
    oh += model_->recovery_overhead(spec.recovery);

    util::RunningStat noise;
    const std::string design_key = session_->core() + "/" +
                                   spec.variant.key() + "/t" +
                                   std::to_string(spec.target);
    for (const auto& b : validate.benches) {
      noise.add(model_->spnr_noise(design_key, b.benchmark));
    }
    const double mean_noise = noise.count() ? noise.mean() : 1.0;
    rep.area = oh.area * mean_noise;
    rep.power = oh.power * mean_noise;
    rep.energy = ((1.0 + rep.power) * (1.0 + exec) - 1.0);
    return rep;
  }

  const core::Session* session_;
  const phys::PhysModel* model_;
  std::unique_ptr<arch::Core> proto_;
  std::vector<bool> flushable_;
  std::vector<bool> parity_fits32_;
};

}  // namespace clear::testref

#endif  // CLEAR_TESTS_COMBO_EVAL_ORACLE_H
