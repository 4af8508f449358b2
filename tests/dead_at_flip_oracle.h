// Test-side oracle for the dead-at-flip classification.
//
// The executor ends a sample as golden's Vanished without forking when
// its strike lands in an FF-pool slot that is dead at the injection
// cycle (docs/ARCHITECTURE.md, "FF liveness").  It answers that question
// inside its one golden recording pass.  This header checks the answer
// two ways, through inject::detail::dead_at_flip_samples():
//   * against a brute-force recording that drains the access log after
//     every cycle (arch::FFLiveness at interval 1): a candidate sample is
//     dead iff its strike is not suppressed, its FF is neither EDS- nor
//     parity-protected, and its slot is not live at the injection cycle;
//   * by running every dead sample from cycle 0, as
//     tests/reference_campaign.h does: each must end with golden's
//     status, output, cycle count and recovery count.
#ifndef CLEAR_TESTS_DEAD_AT_FLIP_ORACLE_H
#define CLEAR_TESTS_DEAD_AT_FLIP_ORACLE_H

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "arch/core.h"
#include "arch/liveness.h"
#include "inject/adaptive.h"
#include "inject/campaign.h"
#include "inject/exec.h"
#include "util/hash.h"
#include "util/rng.h"
#include "parallel_for.h"
#include "reference_campaign.h"

namespace clear::testref {

struct DeadAtFlipCounts {
  std::size_t dead = 0;       // samples classified dead at flip
  std::size_t protected_strikes = 0;  // strikes on EDS or parity FFs
};

// Checks the dead-at-flip samples of `spec` (fixed or adaptive, any
// shard).
inline DeadAtFlipCounts check_dead_at_flip(const inject::CampaignSpec& spec) {
  constexpr std::uint64_t kBudget = 20'000'000;
  const arch::CoreRunResult golden = reference_core(spec.core_name)
      ->run(*spec.program, spec.cfg, nullptr, kBudget);
  EXPECT_EQ(golden.status, isa::RunStatus::kHalted);
  EXPECT_EQ(golden.recoveries, 0u);

  // Brute force: one interval per cycle, so bit s of live.at(c) is slot s's
  // liveness at cycle c.
  const std::unique_ptr<arch::Core> traced =
      arch::make_traced_core(spec.core_name);
  traced->begin(*spec.program, spec.cfg, nullptr);
  arch::FFLiveness live;
  live.start(*traced);
  while (traced->step_to(traced->cycle() + 1, kBudget)) {
    live.end_interval(*traced);
  }
  live.end_interval(*traced);
  live.finish();
  EXPECT_EQ(traced->cycle(), golden.cycles);

  // The samples the executor may classify: the adaptive pilot, which
  // every shard simulates, then the owned indices below the budget.
  const arch::FFRegistry& reg = traced->registry();
  const std::uint32_t ffs = reg.ff_count();
  const std::uint64_t injections =
      spec.injections != 0 ? spec.injections : ffs;
  std::uint64_t pilot_span = 0;
  if (spec.adaptive()) {
    const std::vector<std::uint64_t> base =
        inject::adaptive::fixed_budget(injections, ffs);
    pilot_span = inject::adaptive::pilot_ordinals(
                     *std::min_element(base.begin(), base.end())) *
                 ffs;
  }
  std::vector<std::uint64_t> want;
  DeadAtFlipCounts counts;
  for (std::uint64_t g = 0; g < injections; ++g) {
    if (g >= pilot_span && g % spec.shard_count != spec.shard_index) continue;
    util::Rng rng(util::hash_combine(spec.seed, g));
    const auto ff = static_cast<std::uint32_t>(g % ffs);
    const std::uint64_t cycle = 1 + rng.below(golden.cycles - 1);
    const arch::FFProt p =
        spec.cfg != nullptr ? spec.cfg->prot_of(ff) : arch::FFProt::kNone;
    if (!rng.bernoulli(inject::ser_ratio(p))) continue;
    if (p == arch::FFProt::kEds || p == arch::FFProt::kParity) {
      ++counts.protected_strikes;
      continue;
    }
    const std::size_t slot = reg.structure_of(ff).slot;
    const std::uint64_t* set = live.at(static_cast<std::size_t>(cycle));
    if (((set[slot / 64] >> (slot % 64)) & 1U) == 0) want.push_back(g);
  }

  const std::vector<std::uint64_t> got =
      inject::detail::dead_at_flip_samples(spec);
  std::vector<std::uint64_t> extra, missed;
  std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                      std::back_inserter(extra));
  std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                      std::back_inserter(missed));
  EXPECT_TRUE(extra.empty() && missed.empty())
      << got.size() << " classified dead, the per-cycle recording finds "
      << want.size() << "; first classified but live: "
      << (extra.empty() ? -1 : static_cast<std::int64_t>(extra[0]))
      << ", first dead but not classified: "
      << (missed.empty() ? -1 : static_cast<std::int64_t>(missed[0]));
  for (const std::uint64_t g : got) {
    const arch::FFProt p = spec.cfg != nullptr
                               ? spec.cfg->prot_of(static_cast<std::uint32_t>(
                                     g % ffs))
                               : arch::FFProt::kNone;
    EXPECT_NE(p, arch::FFProt::kEds) << "sample " << g;
    EXPECT_NE(p, arch::FFProt::kParity) << "sample " << g;
  }

  // Every dead sample, simulated from cycle 0, ends as golden.
  const std::uint64_t watchdog = golden.cycles * 2 + 1024;
  std::vector<char> same(got.size(), 0);
  util::parallel_for(
      got.size(),
      [&](std::size_t i) {
        const std::uint64_t g = got[i];
        util::Rng rng(util::hash_combine(spec.seed, g));
        const auto ff = static_cast<std::uint32_t>(g % ffs);
        const std::uint64_t cycle = 1 + rng.below(golden.cycles - 1);
        const auto plan = arch::InjectionPlan::single(cycle, ff);
        const arch::CoreRunResult r =
            reference_core(spec.core_name)
                ->run(*spec.program, spec.cfg, &plan, watchdog);
        same[i] = r.status == golden.status && r.output == golden.output &&
                  r.cycles == golden.cycles &&
                  r.recoveries == golden.recoveries;
      },
      util::env_threads());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(same[i]) << "sample " << got[i]
                         << " was classified dead but does not end as golden";
  }
  counts.dead = got.size();
  return counts;
}

}  // namespace clear::testref

#endif  // CLEAR_TESTS_DEAD_AT_FLIP_ORACLE_H
