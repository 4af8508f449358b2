// Test-side oracle for the adaptive decision procedure.
//
// The production executor (inject/campaign.cpp) takes its stop decisions
// at milestone barriers while samples run on the worker pool.  This
// header runs the same pure procedure (inject/adaptive.h) in one loop
// against an outcome oracle: the reference engine
// (tests/reference_campaign.h) feeds it the simulator, the property tests
// (tests/test_adaptive.cpp) a synthetic Bernoulli source.
#ifndef CLEAR_TESTS_ADAPTIVE_ORACLE_H
#define CLEAR_TESTS_ADAPTIVE_ORACLE_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "inject/adaptive.h"
#include "inject/outcome.h"
#include "util/stats.h"

namespace clear::inject::adaptive {

// A complete adaptive plan (for tests, benches and result reporting).
struct Plan {
  std::uint64_t pilot = 0;
  std::vector<std::uint64_t> milestones;
  std::vector<std::uint64_t> planned;  // N_f per FF; Σ <= injections
};

// Runs the whole decision procedure against an outcome oracle (a pure
// function of the global sample index -- the executor's simulator, or a
// synthetic Bernoulli source in the property tests).  The oracle is only
// consulted for pilot indices of still-open FFs, in milestone order.
[[nodiscard]] inline Plan plan_with_oracle(
    std::uint64_t injections, std::uint32_t ff_count, double target,
    util::IntervalMethod method,
    const std::function<Outcome(std::uint64_t)>& oracle) {
  Plan plan;
  const std::vector<std::uint64_t> base = fixed_budget(injections, ff_count);
  std::uint64_t min_base = base.empty() ? 0 : base[0];
  for (const std::uint64_t b : base) min_base = std::min(min_base, b);
  plan.pilot = pilot_ordinals(min_base);
  plan.milestones = milestone_ladder(plan.pilot);
  if (plan.pilot == 0) {
    plan.planned = base;
    return plan;
  }
  std::vector<FfDecision> states(ff_count);
  std::uint64_t prev = 0;
  for (const std::uint64_t m : plan.milestones) {
    for (std::uint64_t ord = prev; ord < m; ++ord) {
      for (std::uint32_t f = 0; f < ff_count; ++f) {
        if (states[f].stopped_at != 0) continue;
        states[f].pilot.add(oracle(ord * ff_count + f));
      }
    }
    apply_milestone(m, target, method, &states);
    prev = m;
  }
  plan.planned = plan_final_counts(states, plan.pilot, base, target, method);
  return plan;
}

}  // namespace clear::inject::adaptive

#endif  // CLEAR_TESTS_ADAPTIVE_ORACLE_H
