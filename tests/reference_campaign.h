// Test-side reference engine: every faulty run simulated from cycle 0.
//
// The production executor (inject/campaign.cpp) forks each faulty run off
// a golden checkpoint and stops early once the state re-converges.  This
// header keeps the straightforward procedure it must agree with bit for
// bit, for the tests that compare the two:
//   * the same index-derived draws: Rng(hash_combine(seed, g)),
//     ff = g % ff_count, the injection cycle, then the SER Bernoulli that
//     suppresses strikes on hardened flip-flops;
//   * Core::run from cycle 0 with the same watchdog (2 x golden + 1024),
//     classified by inject::classify against the golden run;
//   * adaptive specs take their per-FF plan from
//     adaptive::plan_with_oracle (adaptive_oracle.h) over that same
//     sample function, and the result sums the executed indices this
//     shard owns.
// Caching is never consulted.  Samples run on the shared worker pool; the
// per-index outcomes are folded in index order, so the result does not
// depend on scheduling.
#ifndef CLEAR_TESTS_REFERENCE_CAMPAIGN_H
#define CLEAR_TESTS_REFERENCE_CAMPAIGN_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/core.h"
#include "inject/campaign.h"
#include "util/hash.h"
#include "util/rng.h"

#include "adaptive_oracle.h"
#include "parallel_for.h"

namespace clear::testref {

// One core instance per (worker thread, core model).
inline arch::Core* reference_core(const std::string& name) {
  thread_local std::map<std::string, std::unique_ptr<arch::Core>> cores;
  auto& slot = cores[name];
  if (!slot) slot = arch::make_core(name);
  return slot.get();
}

inline inject::CampaignResult reference_campaign(
    const inject::CampaignSpec& spec) {
  if (spec.shard_count == 0 || spec.shard_index >= spec.shard_count) {
    throw std::invalid_argument("reference_campaign: invalid shard");
  }
  const std::uint32_t ff_count =
      reference_core(spec.core_name)->registry().ff_count();
  const std::uint64_t injections =
      spec.injections != 0 ? spec.injections : ff_count;
  const arch::CoreRunResult golden = reference_core(spec.core_name)
      ->run(*spec.program, spec.cfg, nullptr, 20'000'000);
  if (golden.status != isa::RunStatus::kHalted) {
    throw std::runtime_error("reference_campaign: golden run did not halt");
  }
  const std::uint64_t watchdog = golden.cycles * 2 + 1024;

  const auto sample = [&](std::uint64_t g) {
    util::Rng rng(util::hash_combine(spec.seed, g));
    const auto ff = static_cast<std::uint32_t>(g % ff_count);
    const std::uint64_t cycle = 1 + rng.below(golden.cycles - 1);
    const arch::FFProt p =
        spec.cfg != nullptr ? spec.cfg->prot_of(ff) : arch::FFProt::kNone;
    if (!rng.bernoulli(inject::ser_ratio(p))) return inject::Outcome::kVanished;
    const auto plan = arch::InjectionPlan::single(cycle, ff);
    return inject::classify(reference_core(spec.core_name)
                                ->run(*spec.program, spec.cfg, &plan, watchdog),
                            golden);
  };
  // Simulates `indices` on the pool; outcomes land in index order.
  const auto simulate = [&](const std::vector<std::uint64_t>& indices) {
    std::vector<inject::Outcome> out(indices.size());
    util::parallel_for(
        indices.size(), [&](std::size_t i) { out[i] = sample(indices[i]); },
        util::env_threads());
    return out;
  };

  inject::CampaignResult r;
  r.ff_count = ff_count;
  r.nominal_cycles = golden.cycles;
  r.nominal_instrs = golden.instrs;
  r.per_ff.assign(ff_count, {});

  // Per-FF plan: the fixed schedule, or the adaptive decision procedure.
  std::vector<std::uint64_t> planned =
      inject::adaptive::fixed_budget(injections, ff_count);
  std::vector<inject::Outcome> pilot;  // outcomes of indices [0, pilot size)
  if (spec.adaptive()) {
    // The pilot prefix is simulated up front in parallel; plan_with_oracle
    // then only reads from it.
    const std::uint64_t min_base =
        planned.empty() ? 0 : *std::min_element(planned.begin(), planned.end());
    std::vector<std::uint64_t> prefix(std::min<std::uint64_t>(
        injections, inject::adaptive::pilot_ordinals(min_base) * ff_count));
    for (std::uint64_t g = 0; g < prefix.size(); ++g) prefix[g] = g;
    pilot = simulate(prefix);
    const inject::adaptive::Plan plan = inject::adaptive::plan_with_oracle(
        injections, ff_count, spec.confidence_half_width,
        spec.confidence_method, [&](std::uint64_t g) {
          return g < pilot.size() ? pilot[g] : sample(g);
        });
    planned = plan.planned;
    r.confidence_target = spec.confidence_half_width;
    r.confidence_method = spec.confidence_method;
    r.pilot = plan.pilot;
    r.planned = plan.planned;
  }

  // Executed set: g / ff_count < planned[g % ff_count], owned by the shard.
  std::vector<std::uint64_t> rest;
  for (std::uint32_t f = 0; f < ff_count; ++f) {
    for (std::uint64_t ord = 0; ord < planned[f]; ++ord) {
      const std::uint64_t g = ord * ff_count + f;
      if (g % spec.shard_count != spec.shard_index) continue;
      if (g < pilot.size()) {
        r.per_ff[f].add(pilot[g]);
      } else {
        rest.push_back(g);
      }
    }
  }
  const std::vector<inject::Outcome> outcomes = simulate(rest);
  for (std::size_t i = 0; i < rest.size(); ++i) {
    r.per_ff[rest[i] % ff_count].add(outcomes[i]);
  }
  for (const auto& c : r.per_ff) r.totals.merge(c);
  return r;
}

}  // namespace clear::testref

#endif  // CLEAR_TESTS_REFERENCE_CAMPAIGN_H
