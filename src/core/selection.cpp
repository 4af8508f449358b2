#include "core/selection.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>

#include "core/combos.h"
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

ProfileView::ProfileView(const ProfileSet& p)
    : ff_count(p.ff_count),
      sdc(p.ff_sdc.data()),
      due(p.ff_due.data()),
      total(p.ff_total.data()),
      exec_overhead(p.exec_overhead),
      benches(&p.benches) {}

namespace {

// The count a metric ranks and stops on.
double metric_count(Metric metric, const ProfileView& p, std::uint32_t f) {
  switch (metric) {
    case Metric::kSdc: return static_cast<double>(p.sdc[f]);
    case Metric::kDue: return static_cast<double>(p.due[f]);
    case Metric::kJoint: return static_cast<double>(p.sdc[f] + p.due[f]);
  }
  return 0.0;
}

ErrorMass summed_mass(const ProfileView& p) {
  ErrorMass m;
  for (std::uint32_t f = 0; f < p.ff_count; ++f) {
    m.sdc += static_cast<double>(p.sdc[f]);
    m.due += static_cast<double>(p.due[f]);
  }
  return m;
}

}  // namespace

SelectionBasis selection_basis(Metric metric, const ErrorMass& orig,
                               const ProfileView& train,
                               const ProfileView& validate) {
  SelectionBasis b;
  b.metric = metric;
  b.orig = orig;
  b.train = summed_mass(train);
  b.validate = summed_mass(validate);
  for (std::uint32_t f = 0; f < train.ff_count; ++f) {
    if (metric_count(metric, train, f) > 0) b.ranked.push_back(f);
  }
  std::stable_sort(b.ranked.begin(), b.ranked.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     return metric_count(metric, train, x) >
                            metric_count(metric, train, y);
                   });
  return b;
}

CostReport Selector::evaluate(const SelectionSpec& spec) {
  session_->profiles(spec.variant);
  session_->profiles(Variant::base());
  return evaluate(spec, ComboStack(*session_, spec.variant, spec.metric));
}

CostReport Selector::evaluate(const SelectionSpec& spec,
                              const ComboStack& stack) const {
  const SelectionBasis& basis = stack.basis();
  if (spec.metric != basis.metric) {
    throw std::invalid_argument(
        "Selector::evaluate: the stack ranks another metric");
  }
  const ProfileView& train = stack.train();
  const ProfileView& validate = stack.validate();
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

  // Fixed contributions from the variant's non-tunable techniques.
  double fixed_ff_delta = model_->recovery_ff_delta(spec.recovery);
  if (spec.variant.dfc) fixed_ff_delta += model_->dfc_ff_delta();
  if (spec.variant.monitor) fixed_ff_delta += model_->monitor_ff_delta();
  const double exec = std::max(0.0, train.exec_overhead);

  // Running masses.
  double t_sdc = basis.train.sdc, t_due = basis.train.due;
  double v_sdc = basis.validate.sdc, v_due = basis.validate.due;
  const ErrorMass orig = basis.orig;

  std::vector<arch::FFProt> prot(n, arch::FFProt::kNone);
  // The FFs given a technique; sorted ascending below, so every sum over
  // them adds the terms a whole-design pass would add, in its order.
  std::vector<std::uint32_t> hardened;
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
    if (max_point) return false;  // the max point walks every candidate
    const double g = gamma_now();
    const double si = ratio_capped(orig.sdc, t_sdc) / g;
    const double di = ratio_capped(orig.due, t_due) / g;
    switch (spec.metric) {
      case Metric::kSdc: return si >= spec.target;
      case Metric::kDue: return di >= spec.target;
      case Metric::kJoint: return si >= spec.target && di >= spec.target;
    }
    return true;
  };

  auto protect = [&](std::uint32_t f) {
    arch::FFProt tech = choose_tech(f);
    if (spec.use_leap_ctrl && tech == arch::FFProt::kLeapDice &&
        spec.variant.abft == workloads::AbftKind::kCorrection) {
      tech = arch::FFProt::kLeapCtrlRes;
    }
    prot[f] = tech;
    hardened.push_back(f);
    if (tech == arch::FFProt::kParity) ++n_parity;
    const auto [ts, td] =
        residual(f, tech, static_cast<double>(train.sdc[f]),
                 static_cast<double>(train.due[f]),
                 static_cast<double>(train.total[f]));
    t_sdc += ts - static_cast<double>(train.sdc[f]);
    t_due += td - static_cast<double>(train.due[f]);
    const auto [vs, vd] =
        residual(f, tech, static_cast<double>(validate.sdc[f]),
                 static_cast<double>(validate.due[f]),
                 static_cast<double>(validate.total[f]));
    v_sdc += vs - static_cast<double>(validate.sdc[f]);
    v_due += vd - static_cast<double>(validate.due[f]);
  };

  // The greedy walk.  With an empty palette every step would leave its FF
  // unprotected and add exactly zero to each mass, so there is none.
  if (spec.palette.any()) {
    for (const std::uint32_t f : basis.ranked) {
      if (met()) break;
      protect(f);
    }
    if (max_point) {
      for (std::uint32_t f = 0; f < n; ++f) {
        if (!(metric_count(spec.metric, train, f) > 0)) protect(f);
      }
    }
  }

  CostReport rep;
  rep.exec = exec;
  // LHL backfill (Sec. 4): protect everything the benchmarks didn't flag.
  if (spec.lhl_backfill) {
    hardened.clear();
    for (std::uint32_t f = 0; f < n; ++f) {
      hardened.push_back(f);
      if (prot[f] != arch::FFProt::kNone) continue;
      prot[f] = arch::FFProt::kLhl;
      ++rep.n_lhl;
      t_sdc -= static_cast<double>(train.sdc[f]) * (1 - kLhlResidual);
      t_due -= static_cast<double>(train.due[f]) * (1 - kLhlResidual);
      v_sdc -= static_cast<double>(validate.sdc[f]) * (1 - kLhlResidual);
      v_due -= static_cast<double>(validate.due[f]) * (1 - kLhlResidual);
    }
  }
  std::sort(hardened.begin(), hardened.end());

  // Materialize the parity plan (optimized heuristic, Fig. 3).
  std::vector<std::uint32_t> parity_ffs;
  std::size_t n_eds = 0;
  for (const std::uint32_t f : hardened) {
    switch (prot[f]) {
      case arch::FFProt::kLeapDice: ++rep.n_dice; break;
      case arch::FFProt::kLeapCtrlRes: ++rep.n_ctrl; break;
      case arch::FFProt::kParity: parity_ffs.push_back(f); break;
      case arch::FFProt::kEds: ++n_eds; break;
      default: break;
    }
  }
  rep.parity_plan = resilience::build_parity_plan(
      *model_, parity_ffs, resilience::ParityHeuristic::kOptimized);

  rep.ff_delta = fixed_ff_delta + model_->parity_ff_delta(rep.parity_plan);
  rep.gamma = gamma_correction(rep.ff_delta, exec);
  rep.imp = improvement(orig, {v_sdc, v_due}, rep.gamma);
  rep.sdc_protected_frac =
      orig.sdc > 0 ? std::clamp(1.0 - v_sdc / orig.sdc, 0.0, 1.0) : 1.0;
  {
    const double g = rep.gamma;
    const double si = ratio_capped(orig.sdc, t_sdc) / g;
    const double di = ratio_capped(orig.due, t_due) / g;
    switch (spec.metric) {
      case Metric::kSdc: rep.target_met = max_point || si >= spec.target; break;
      case Metric::kDue: rep.target_met = max_point || di >= spec.target; break;
      case Metric::kJoint:
        rep.target_met = max_point || (si >= spec.target && di >= spec.target);
        break;
    }
  }

  // Costs.
  rep.n_parity = parity_ffs.size();
  rep.n_eds = n_eds;
  phys::Overhead oh = model_->hardening_overhead(prot, hardened);
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
  for (const auto& b : *validate.benches) {
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

}  // namespace clear::core
