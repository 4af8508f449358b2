#include "core/selection.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "resilience/parity.h"
#include "util/stats.h"

namespace clear::core {

namespace {

constexpr double kDiceResidual = 2.0e-4;  // Table 4
constexpr double kLhlResidual = 2.5e-1;

bool bounded_recovery(arch::RecoveryKind k) {
  return k != arch::RecoveryKind::kNone;
}

constexpr const char* kMetricTokens[] = {"sdc", "due", "joint"};

}  // namespace

const char* metric_token(Metric m) noexcept {
  const auto i = static_cast<std::size_t>(m);
  return i < std::size(kMetricTokens) ? kMetricTokens[i] : "?";
}

bool parse_metric(const std::string& text, Metric* out) {
  for (std::size_t i = 0; i < std::size(kMetricTokens); ++i) {
    if (text == kMetricTokens[i]) {
      *out = static_cast<Metric>(i);
      return true;
    }
  }
  return false;
}

Selector::Selector(Session& session) : session_(&session) {
  proto_ = arch::make_core(session.core());
  model_ = std::make_unique<phys::PhysModel>(*proto_);
  const auto& reg = proto_->registry();
  const double tree32 = phys::PhysModel::xor_tree_delay_ps(32);
  flushable_.resize(reg.ff_count());
  parity_fits32_.resize(reg.ff_count());
  for (std::uint32_t f = 0; f < reg.ff_count(); ++f) {
    flushable_[f] = reg.structure_of(f).flags.flushable;
    parity_fits32_[f] = model_->slack_ps(f) >= tree32;
  }
}

Selector::~Selector() = default;

CostReport Selector::evaluate(const SelectionSpec& spec) {
  const ProfileSet& prot = session_->profiles(spec.variant);
  const ProfileSet& base_full = session_->profiles(Variant::base());
  if (prot.benches.size() == base_full.benches.size()) {
    return run_selection(spec, base_full, base_full, prot, prot, false);
  }
  std::vector<std::string> names;
  for (const auto& b : prot.benches) names.push_back(b.benchmark);
  const ProfileSet base_sub = session_->subset(base_full, names);
  return run_selection(spec, base_sub, base_sub, prot, prot, false);
}

CostReport Selector::evaluate_with_profiles(const SelectionSpec& spec,
                                            const ProfileSet& base,
                                            const ProfileSet& train,
                                            const ProfileSet& validate) const {
  return run_selection(spec, base, base, train, validate, false);
}

CostReport Selector::evaluate_cost_greedy(const SelectionSpec& spec) {
  const ProfileSet& prot = session_->profiles(spec.variant);
  const ProfileSet& base = session_->profiles(Variant::base());
  return run_selection(spec, base, base, prot, prot, true);
}

CostReport Selector::run_selection(const SelectionSpec& spec,
                                   const ProfileSet& base_train,
                                   const ProfileSet& base_validate,
                                   const ProfileSet& train,
                                   const ProfileSet& validate,
                                   bool cost_greedy) const {
  const std::uint32_t n = train.ff_count;
  const bool max_point = spec.target <= 0.0;

  // Heuristic 1: pick the technique for each flip-flop.
  const bool squash_rec = spec.recovery == arch::RecoveryKind::kFlush ||
                          spec.recovery == arch::RecoveryKind::kRob;
  auto choose_tech = [&](std::uint32_t f) -> arch::FFProt {
    const Palette& p = spec.palette;
    if (!p.any()) return arch::FFProt::kNone;
    if (squash_rec && !flushable_[f]) {
      // Flush/RoB recovery cannot repair post-commit state: harden it if
      // the combo has LEAP-DICE; otherwise detection-only applies (such
      // errors end as unrecoverable EDs).
      if (p.dice) return arch::FFProt::kLeapDice;
      if (p.parity) return arch::FFProt::kParity;
      return arch::FFProt::kEds;
    }
    if (p.parity && parity_fits32_[f]) return arch::FFProt::kParity;
    if (p.eds) return arch::FFProt::kEds;
    if (p.dice) return arch::FFProt::kLeapDice;
    return arch::FFProt::kParity;  // pipelined parity as the last resort
  };

  // Residual (sdc, due) masses after protecting a flip-flop.
  auto residual = [&](std::uint32_t f, arch::FFProt tech, double sdc,
                      double due, double total) -> std::pair<double, double> {
    switch (tech) {
      case arch::FFProt::kLeapDice:
      case arch::FFProt::kLeapCtrlRes:
        return {sdc * kDiceResidual, due * kDiceResidual};
      case arch::FFProt::kLhl:
        return {sdc * kLhlResidual, due * kLhlResidual};
      case arch::FFProt::kParity:
      case arch::FFProt::kEds: {
        if (bounded_recovery(spec.recovery)) {
          const bool recoverable = !squash_rec || flushable_[f];
          if (recoverable) return {0.0, 0.0};
          return {0.0, total};  // detected, but beyond the squash window
        }
        // Unconstrained: every detected strike terminates as an ED.
        return {0.0, total};
      }
      default:
        return {sdc, due};
    }
  };

  // Candidate metric for ordering / stopping.
  auto metric_count = [&](std::uint32_t f) -> double {
    switch (spec.metric) {
      case Metric::kSdc: return static_cast<double>(train.ff_sdc[f]);
      case Metric::kDue: return static_cast<double>(train.ff_due[f]);
      case Metric::kJoint:
        return static_cast<double>(train.ff_sdc[f] + train.ff_due[f]);
    }
    return 0.0;
  };

  // Rough per-FF energy proxy for the cost-greedy ablation ordering.
  const double dice_cost = (phys::ff_cell(arch::FFProt::kLeapDice).power - 1) /
                           model_->total_power();
  phys::ParityPlan unit_plan;
  unit_plan.groups.push_back({std::vector<std::uint32_t>(16, 0), true});
  const double parity_cost = model_->parity_overhead(unit_plan).power / 16.0;
  const double eds_cost = model_->eds_overhead(16).power / 16.0;
  auto tech_cost = [&](arch::FFProt t) {
    switch (t) {
      case arch::FFProt::kParity: return parity_cost;
      case arch::FFProt::kEds: return eds_cost;
      default: return dice_cost;
    }
  };

  std::vector<std::uint32_t> order;
  order.reserve(n);
  for (std::uint32_t f = 0; f < n; ++f) {
    if (max_point || metric_count(f) > 0 ||
        (spec.metric == Metric::kJoint &&
         train.ff_sdc[f] + train.ff_due[f] > 0)) {
      order.push_back(f);
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     double ka = metric_count(a);
                     double kb = metric_count(b);
                     if (cost_greedy) {
                       ka /= std::max(1e-12, tech_cost(choose_tech(a)));
                       kb /= std::max(1e-12, tech_cost(choose_tech(b)));
                     }
                     return ka > kb;
                   });

  // Fixed contributions from the variant's non-tunable techniques.
  double fixed_ff_delta = model_->recovery_ff_delta(spec.recovery);
  if (spec.variant.dfc) fixed_ff_delta += model_->dfc_ff_delta();
  if (spec.variant.monitor) fixed_ff_delta += model_->monitor_ff_delta();
  const double exec = std::max(0.0, train.exec_overhead);

  // Running masses.
  double t_sdc = 0, t_due = 0, v_sdc = 0, v_due = 0;
  for (std::uint32_t f = 0; f < n; ++f) {
    t_sdc += static_cast<double>(train.ff_sdc[f]);
    t_due += static_cast<double>(train.ff_due[f]);
    v_sdc += static_cast<double>(validate.ff_sdc[f]);
    v_due += static_cast<double>(validate.ff_due[f]);
  }
  const ErrorMass orig_t = base_train.mass();
  const ErrorMass orig_v = base_validate.mass();

  std::vector<arch::FFProt> prot(n, arch::FFProt::kNone);
  std::size_t selected = 0;
  std::size_t n_parity = 0;

  auto parity_delta_estimate = [&]() {
    // one parity bit per ~20 FFs plus pipeline registers on slow groups
    return static_cast<double>(n_parity) * 0.09 /
           static_cast<double>(std::max(1u, n));
  };
  auto gamma_now = [&]() {
    return gamma_correction(fixed_ff_delta + parity_delta_estimate(), exec);
  };
  auto met = [&]() {
    if (max_point) return selected >= order.size();
    const double g = gamma_now();
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
    arch::FFProt tech = choose_tech(f);
    if (spec.use_leap_ctrl && tech == arch::FFProt::kLeapDice &&
        spec.variant.abft == workloads::AbftKind::kCorrection) {
      tech = arch::FFProt::kLeapCtrlRes;
    }
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
  // LHL backfill (Sec. 4): protect everything the benchmarks didn't flag.
  if (spec.lhl_backfill) {
    for (std::uint32_t f = 0; f < n; ++f) {
      if (prot[f] != arch::FFProt::kNone) continue;
      prot[f] = arch::FFProt::kLhl;
      ++rep.n_lhl;
      t_sdc -= static_cast<double>(train.ff_sdc[f]) * (1 - kLhlResidual);
      t_due -= static_cast<double>(train.ff_due[f]) * (1 - kLhlResidual);
      v_sdc -= static_cast<double>(validate.ff_sdc[f]) * (1 - kLhlResidual);
      v_due -= static_cast<double>(validate.ff_due[f]) * (1 - kLhlResidual);
    }
  }

  // Materialize the parity plan (optimized heuristic, Fig. 3).
  std::vector<std::uint32_t> parity_ffs;
  for (std::uint32_t f = 0; f < n; ++f) {
    if (prot[f] == arch::FFProt::kParity) parity_ffs.push_back(f);
  }
  rep.parity_plan = resilience::build_parity_plan(
      *proto_, *model_, parity_ffs, resilience::ParityHeuristic::kOptimized);

  rep.ff_delta = fixed_ff_delta + model_->parity_ff_delta(rep.parity_plan);
  rep.gamma = gamma_correction(rep.ff_delta, exec);
  rep.imp = improvement(orig_v, {v_sdc, v_due}, rep.gamma);
  rep.sdc_protected_frac =
      orig_v.sdc > 0 ? std::clamp(1.0 - v_sdc / orig_v.sdc, 0.0, 1.0) : 1.0;
  {
    const double g = rep.gamma;
    const double si = ratio_capped(orig_t.sdc, t_sdc) / g;
    const double di = ratio_capped(orig_t.due, t_due) / g;
    switch (spec.metric) {
      case Metric::kSdc: rep.target_met = max_point || si >= spec.target; break;
      case Metric::kDue: rep.target_met = max_point || di >= spec.target; break;
      case Metric::kJoint:
        rep.target_met = max_point || (si >= spec.target && di >= spec.target);
        break;
    }
  }

  // Costs.
  std::size_t n_eds = 0;
  for (std::uint32_t f = 0; f < n; ++f) {
    switch (prot[f]) {
      case arch::FFProt::kLeapDice: ++rep.n_dice; break;
      case arch::FFProt::kLeapCtrlRes: ++rep.n_ctrl; break;
      case arch::FFProt::kParity: break;
      case arch::FFProt::kEds: ++n_eds; break;
      default: break;
    }
  }
  rep.n_parity = parity_ffs.size();
  rep.n_eds = n_eds;
  phys::Overhead oh = model_->hardening_overhead(prot);
  oh += model_->parity_overhead(rep.parity_plan);
  oh += model_->eds_overhead(n_eds);
  if (spec.variant.dfc) oh += model_->dfc_overhead();
  if (spec.variant.monitor) oh += model_->monitor_overhead();
  oh += model_->recovery_overhead(spec.recovery);

  // Per-benchmark SP&R layout artifacts: designs are generated per
  // benchmark and averaged (paper Sec. 2.3).
  util::RunningStat noise;
  const std::string design_key = session_->core() + "/" +
                                 spec.variant.key() + "/t" +
                                 std::to_string(spec.target);
  for (const auto& b : validate.benches) {
    noise.add(model_->spnr_noise(design_key, b.benchmark));
  }
  const double mean_noise = noise.count() ? noise.mean() : 1.0;
  rep.rel_stddev = noise.rel_stddev();
  rep.area = oh.area * mean_noise;
  rep.power = oh.power * mean_noise;
  rep.energy = ((1.0 + rep.power) * (1.0 + exec) - 1.0);
  rep.prot = std::move(prot);
  return rep;
}

arch::ResilienceConfig Selector::build_config(
    const CostReport& report, arch::RecoveryKind recovery) const {
  arch::ResilienceConfig cfg;
  cfg.prot = report.prot;
  cfg.parity_group.assign(report.prot.size(), -1);
  for (std::size_t g = 0; g < report.parity_plan.groups.size(); ++g) {
    for (const std::uint32_t f : report.parity_plan.groups[g].ffs) {
      cfg.parity_group[f] = static_cast<std::int32_t>(g);
    }
  }
  cfg.recovery = recovery;
  return cfg;
}

}  // namespace clear::core
