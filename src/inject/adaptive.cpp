#include "inject/adaptive.h"

#include <algorithm>

namespace clear::inject::adaptive {

std::uint64_t pilot_ordinals(std::uint64_t min_per_ff_budget) {
  if (min_per_ff_budget == 0) return 0;
  const std::uint64_t eighth = min_per_ff_budget / 8;
  return std::min(min_per_ff_budget, std::max(kFirstMilestone, eighth));
}

std::vector<std::uint64_t> milestone_ladder(std::uint64_t pilot) {
  std::vector<std::uint64_t> ladder;
  if (pilot == 0) return ladder;
  for (std::uint64_t m = kFirstMilestone; m < pilot; m *= 2) {
    ladder.push_back(m);
  }
  ladder.push_back(pilot);
  return ladder;
}

std::vector<std::uint64_t> fixed_budget(std::uint64_t injections,
                                        std::uint32_t ff_count) {
  std::vector<std::uint64_t> base(ff_count, 0);
  if (ff_count == 0) return base;
  const std::uint64_t whole = injections / ff_count;
  const std::uint64_t rem = injections % ff_count;
  for (std::uint32_t f = 0; f < ff_count; ++f) {
    base[f] = whole + (f < rem ? 1 : 0);
  }
  return base;
}

namespace {

// True when both rate intervals over (counts, n) meet the target.
bool target_met(const OutcomeCounts& counts, std::uint64_t n, double target,
                util::IntervalMethod method) {
  const auto hw = [&](std::uint64_t x) {
    return util::interval_half_width(util::binomial_interval_95(
        method, static_cast<std::size_t>(x), static_cast<std::size_t>(n)));
  };
  return hw(counts.sdc()) <= target && hw(counts.due()) <= target;
}

}  // namespace

void apply_milestone(std::uint64_t m, double target,
                     util::IntervalMethod method,
                     std::vector<FfDecision>* states) {
  for (auto& st : *states) {
    if (st.stopped_at != 0) continue;
    if (target_met(st.pilot, m, target, method)) st.stopped_at = m;
  }
}

std::vector<std::uint64_t> plan_final_counts(
    const std::vector<FfDecision>& states, std::uint64_t pilot,
    const std::vector<std::uint64_t>& base, double target,
    util::IntervalMethod method) {
  const std::size_t ffs = states.size();
  std::vector<std::uint64_t> planned(ffs, 0);
  // Committed samples: stopped FFs keep their stop point, open FFs keep
  // the pilot; the rest of the fixed budget forms the grant pool.
  std::uint64_t committed = 0;
  for (std::size_t f = 0; f < ffs; ++f) {
    planned[f] = states[f].stopped_at != 0 ? states[f].stopped_at : pilot;
    committed += planned[f];
  }
  std::uint64_t budget = 0;
  for (const std::uint64_t b : base) budget += b;
  const std::uint64_t pool = budget > committed ? budget - committed : 0;

  // Projected additional need per open FF.
  std::vector<std::uint64_t> want(ffs, 0);
  unsigned __int128 want_sum = 0;
  for (std::size_t f = 0; f < ffs; ++f) {
    if (states[f].stopped_at != 0) continue;
    const auto need = [&](std::uint64_t x) {
      return static_cast<std::uint64_t>(util::trials_for_half_width_95(
          method, static_cast<std::size_t>(x), static_cast<std::size_t>(pilot),
          target));
    };
    const std::uint64_t needed =
        std::max(need(states[f].pilot.sdc()), need(states[f].pilot.due()));
    want[f] = needed > pilot ? needed - pilot : 0;
    want_sum += want[f];
  }

  if (want_sum == 0) return planned;
  if (want_sum <= pool) {
    // Everyone's projection fits: grant it in full.  The remainder of the
    // fixed budget is genuine savings -- it is never executed.
    for (std::size_t f = 0; f < ffs; ++f) planned[f] += want[f];
    return planned;
  }
  // Oversubscribed: proportional floor grants, remainder to the
  // lowest-indexed open FFs.  Pure integer arithmetic in a fixed order.
  std::uint64_t granted = 0;
  for (std::size_t f = 0; f < ffs; ++f) {
    if (want[f] == 0) continue;
    const auto g = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(pool) * want[f] / want_sum);
    planned[f] += g;
    granted += g;
  }
  std::uint64_t leftover = pool - granted;
  for (std::size_t f = 0; f < ffs && leftover > 0; ++f) {
    if (states[f].stopped_at != 0) continue;
    planned[f] += 1;
    --leftover;
  }
  return planned;
}

}  // namespace clear::inject::adaptive
