#include "core/benchdep.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "core/combos.h"
#include "util/rng.h"
#include "util/stats.h"

namespace clear::core {

std::vector<std::pair<std::vector<std::string>, std::vector<std::string>>>
make_splits(const Session& session, int n_splits, std::size_t train_size,
            std::uint64_t seed) {
  // The paper samples 4-benchmark training sets from the 11 SPEC
  // benchmarks and validates on the remaining 7.
  std::vector<std::string> spec_benches;
  for (const auto& info : workloads::benchmark_list()) {
    if (info.suite != "SPEC") continue;
    for (const auto& b : session.benchmarks()) {
      if (b == info.name) spec_benches.push_back(b);
    }
  }
  if (spec_benches.size() < 2) {
    throw std::invalid_argument(
        "make_splits: the suite has " + std::to_string(spec_benches.size()) +
        " SPEC benchmark(s); a train/validate split needs at least 2");
  }
  std::vector<std::pair<std::vector<std::string>, std::vector<std::string>>>
      splits;
  util::Rng rng(seed);
  for (int s = 0; s < n_splits; ++s) {
    std::vector<std::string> pool = spec_benches;
    for (std::size_t i = pool.size() - 1; i > 0; --i) {
      std::swap(pool[i], pool[rng.below(i + 1)]);
    }
    const std::size_t t = std::min(train_size, pool.size() - 1);
    splits.emplace_back(
        std::vector<std::string>(pool.begin(),
                                 pool.begin() + static_cast<std::ptrdiff_t>(t)),
        std::vector<std::string>(pool.begin() + static_cast<std::ptrdiff_t>(t),
                                 pool.end()));
  }
  return splits;
}

TrainValidate standalone_train_validate(Session& session,
                                        const Variant& variant, Metric metric,
                                        int n_splits, std::uint64_t seed) {
  const ProfileSet& base = session.profiles(Variant::base());
  const ProfileSet& prot = session.profiles(variant);

  // gamma for the standalone technique (FF delta of its hardware parts +
  // its execution-time overhead).
  auto core = arch::make_core(session.core());
  phys::PhysModel model(*core);
  double ff_delta = 0.0;
  if (variant.dfc) ff_delta += model.dfc_ff_delta();
  if (variant.monitor) ff_delta += model.monitor_ff_delta();
  const double g = gamma_correction(ff_delta, prot.exec_overhead);

  auto imp_on = [&](const std::vector<std::string>& names) {
    const Improvement imp =
        improvement(mass_over(base, names), mass_over(prot, names), g);
    return metric == Metric::kDue ? imp.due : imp.sdc;
  };

  std::vector<double> trained;
  std::vector<double> validated;
  for (const auto& [train, validate] :
       make_splits(session, n_splits, 4, seed)) {
    trained.push_back(imp_on(train));
    validated.push_back(imp_on(validate));
  }
  TrainValidate tv;
  tv.trained = util::mean_of(trained);
  tv.validated = util::mean_of(validated);
  tv.underestimate_pct =
      tv.trained != 0.0 ? (tv.validated - tv.trained) / tv.trained * 100.0
                        : 0.0;
  tv.p_value = util::welch_t_test_p_value(trained, validated);
  return tv;
}

LhlRow lhl_backfill_row(Session& session, Selector& selector, double target,
                        Metric metric, int n_splits, std::uint64_t seed) {
  const ProfileSet& base = session.profiles(Variant::base());
  LhlRow row;
  row.target = target;
  int n = 0;
  for (const auto& [train, validate] :
       make_splits(session, n_splits, 4, seed)) {
    // The base profile on each side of the split: the selection trains
    // on one and is measured on the other.
    const ProfileSet pt = session.subset(base, train);
    const ProfileSet pv = session.subset(base, validate);
    const ComboStack trained_stack(session, pt, pt, metric);
    const ComboStack held_out(session, pt, pv, metric);

    SelectionSpec spec;
    spec.palette = Palette::dice_parity();
    spec.metric = metric;
    spec.target = target;
    spec.recovery = session.core() == "OoO" ? arch::RecoveryKind::kRob
                                            : arch::RecoveryKind::kFlush;
    // Trained improvement: select and measure on the training set.
    const CostReport trained_rep = selector.evaluate(spec, trained_stack);
    // Validated: same selection criteria trained on `train`, improvement
    // measured against the held-out benchmarks.
    const CostReport val_rep = selector.evaluate(spec, held_out);
    // LHL backfill restores (exceeds) the target on unseen applications.
    SelectionSpec lhl = spec;
    lhl.lhl_backfill = true;
    const CostReport lhl_rep = selector.evaluate(lhl, held_out);

    const auto pick = [&](const Improvement& i) {
      return metric == Metric::kDue ? i.due : i.sdc;
    };
    row.trained += pick(trained_rep.imp);
    row.validated += pick(val_rep.imp);
    row.after_lhl += pick(lhl_rep.imp);
    row.area_before += val_rep.area;
    row.power_before += val_rep.power;
    row.area_after += lhl_rep.area;
    row.power_after += lhl_rep.power;
    ++n;
  }
  if (n > 0) {
    row.trained /= n;
    row.validated /= n;
    row.after_lhl /= n;
    row.area_before /= n;
    row.power_before /= n;
    row.area_after /= n;
    row.power_after /= n;
  }
  return row;
}

std::array<double, 10> subset_similarity(Session& session) {
  const ProfileSet& base = session.profiles(Variant::base());
  const std::uint32_t n = base.ff_count;

  // Per benchmark: rank all FFs by decreasing SDC+DUE vulnerability and
  // slice into deciles.  Ties are broken by a per-benchmark hash: a
  // deterministic index order would fabricate cross-benchmark agreement
  // among equally-ranked flip-flops.
  std::vector<std::vector<std::set<std::uint32_t>>> deciles;  // [bench][10]
  for (const auto& bp : base.benches) {
    std::uint64_t bench_salt = 0;
    for (char c : bp.benchmark) {
      bench_salt = util::hash_combine(bench_salt, static_cast<unsigned char>(c));
    }
    std::vector<std::uint32_t> order(n);
    for (std::uint32_t f = 0; f < n; ++f) order[f] = f;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       const auto ka = bp.campaign.per_ff[a].sdc() +
                                       bp.campaign.per_ff[a].due();
                       const auto kb = bp.campaign.per_ff[b].sdc() +
                                       bp.campaign.per_ff[b].due();
                       if (ka != kb) return ka > kb;
                       if (ka == 0) return a < b;  // stable vanish tail
                       return util::hash_combine(bench_salt, a) <
                              util::hash_combine(bench_salt, b);
                     });
    std::vector<std::set<std::uint32_t>> d(10);
    for (std::uint32_t i = 0; i < n; ++i) {
      d[std::min<std::uint32_t>(9, i * 10 / n)].insert(order[i]);
    }
    deciles.push_back(std::move(d));
  }

  std::array<double, 10> sim{};
  for (int d = 0; d < 10; ++d) {
    std::set<std::uint32_t> inter = deciles[0][d];
    std::set<std::uint32_t> uni = deciles[0][d];
    for (std::size_t b = 1; b < deciles.size(); ++b) {
      std::set<std::uint32_t> new_inter;
      std::set_intersection(inter.begin(), inter.end(), deciles[b][d].begin(),
                            deciles[b][d].end(),
                            std::inserter(new_inter, new_inter.begin()));
      inter = std::move(new_inter);
      uni.insert(deciles[b][d].begin(), deciles[b][d].end());
    }
    sim[d] = uni.empty() ? 0.0
                         : static_cast<double>(inter.size()) /
                               static_cast<double>(uni.size());
  }
  return sim;
}

}  // namespace clear::core
