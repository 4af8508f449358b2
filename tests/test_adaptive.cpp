// Statistical-correctness tier for confidence-driven adaptive campaigns.
//
// Three layers, increasingly integrated:
//   * interval constructions (Wilson / Clopper-Pearson) pinned against
//     published table values, plus the regularized incomplete beta
//     identities behind the exact interval;
//   * the pure decision procedure (inject/adaptive.h) -- milestone
//     ladder, budget arithmetic, and a 200-seed property sweep over
//     synthetic Bernoulli oracles pinning the two invariants the header
//     promises: sum(planned) never exceeds the budget, and a stopped
//     flip-flop's interval really meets the target at its stop point;
//     and the 3x floor on samples to a verdict against fixed
//     provisioning;
//   * the campaign executor -- early stop on real simulations must be
//     bit-identical across worker-thread counts, the checkpoint and
//     legacy engines, resubmission through the cache, and every --shard
//     k/K partition (K in {2, 3, 7}) folded back by
//     merge_campaign_results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "arch/core.h"
#include "engine/engine.h"
#include "inject/adaptive.h"
#include "inject/campaign.h"
#include "isa/assembler.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workloads/workloads.h"
#include "adaptive_oracle.h"
#include "merge_lists.h"
#include "reference_campaign.h"
#include "scoped_env.h"

namespace {

using namespace clear;
using util::IntervalMethod;

isa::Program bench(const std::string& name) {
  return isa::assemble(workloads::build_benchmark(name));
}

class AdaptiveEnv : public ::testing::Environment {
 public:
  void SetUp() override {
    // Isolated cache dir: ctest runs test binaries in parallel and two
    // processes mutating one cache directory race.
    ::setenv("CLEAR_CACHE_DIR", ".clear_cache_test_adaptive", 1);
  }
};
const ::testing::Environment* const kEnv =
    ::testing::AddGlobalTestEnvironment(new AdaptiveEnv);

// ---- interval constructions vs published values ----------------------------

TEST(StatsInterval, WilsonMatchesPublishedValues) {
  // Standard published Wilson 95% score intervals for n = 10.
  auto iv = util::wilson_interval_95(5, 10);
  EXPECT_NEAR(iv.lo, 0.2366, 1e-3);
  EXPECT_NEAR(iv.hi, 0.7634, 1e-3);
  iv = util::wilson_interval_95(1, 10);
  EXPECT_NEAR(iv.lo, 0.0179, 1e-3);
  EXPECT_NEAR(iv.hi, 0.4042, 1e-3);
  iv = util::wilson_interval_95(0, 10);
  EXPECT_NEAR(iv.lo, 0.0, 1e-9);
  EXPECT_NEAR(iv.hi, 0.2775, 1e-3);
  iv = util::wilson_interval_95(10, 10);
  EXPECT_NEAR(iv.lo, 0.7225, 1e-3);
  EXPECT_NEAR(iv.hi, 1.0, 1e-9);
}

TEST(StatsInterval, ClopperPearsonMatchesPublishedValues) {
  // Standard published exact (Clopper-Pearson) 95% intervals for n = 10.
  auto iv = util::clopper_pearson_interval_95(0, 10);
  EXPECT_NEAR(iv.lo, 0.0, 1e-9);
  EXPECT_NEAR(iv.hi, 0.3085, 1e-3);
  iv = util::clopper_pearson_interval_95(1, 10);
  EXPECT_NEAR(iv.lo, 0.0025, 1e-3);
  EXPECT_NEAR(iv.hi, 0.4450, 1e-3);
  iv = util::clopper_pearson_interval_95(5, 10);
  EXPECT_NEAR(iv.lo, 0.1871, 1e-3);
  EXPECT_NEAR(iv.hi, 0.8129, 1e-3);
  iv = util::clopper_pearson_interval_95(10, 10);
  EXPECT_NEAR(iv.lo, 0.6915, 1e-3);
  EXPECT_NEAR(iv.hi, 1.0, 1e-9);
}

TEST(StatsInterval, ClopperPearsonIsAtLeastAsWideAsWilsonInside) {
  // At interior counts the exact interval is conservative.  (At x = 0 or
  // x = n the one-sided exact bound can undercut Wilson slightly, so the
  // boundary is excluded on purpose.)
  for (const std::size_t n : {5u, 10u, 32u, 100u, 1000u}) {
    for (const std::size_t x : {std::size_t{1}, n / 4, n / 2, n - 1}) {
      const double w = util::interval_half_width(util::wilson_interval_95(x, n));
      const double cp =
          util::interval_half_width(util::clopper_pearson_interval_95(x, n));
      EXPECT_GE(cp + 1e-12, w) << "x=" << x << " n=" << n;
    }
  }
}

TEST(StatsInterval, DispatchAndEdgeCases) {
  const auto w = util::binomial_interval_95(IntervalMethod::kWilson, 3, 17);
  const auto wref = util::wilson_interval_95(3, 17);
  EXPECT_DOUBLE_EQ(w.lo, wref.lo);
  EXPECT_DOUBLE_EQ(w.hi, wref.hi);
  const auto cp =
      util::binomial_interval_95(IntervalMethod::kClopperPearson, 3, 17);
  const auto cpref = util::clopper_pearson_interval_95(3, 17);
  EXPECT_DOUBLE_EQ(cp.lo, cpref.lo);
  EXPECT_DOUBLE_EQ(cp.hi, cpref.hi);
  // Zero trials: no information, the interval is [0, 1].
  for (const auto m : {IntervalMethod::kWilson, IntervalMethod::kClopperPearson}) {
    const auto z = util::binomial_interval_95(m, 0, 0);
    EXPECT_DOUBLE_EQ(z.lo, 0.0);
    EXPECT_DOUBLE_EQ(z.hi, 1.0);
    EXPECT_DOUBLE_EQ(util::interval_half_width(z), 0.5);
  }
}

TEST(StatsInterval, RegularizedIncompleteBetaIdentities) {
  // I_x(1,1) = x; I_x(2,1) = x^2; I_x(1,2) = 2x - x^2.
  for (const double x : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    EXPECT_NEAR(util::regularized_incomplete_beta(1, 1, x), x, 1e-9);
    EXPECT_NEAR(util::regularized_incomplete_beta(2, 1, x), x * x, 1e-9);
    EXPECT_NEAR(util::regularized_incomplete_beta(1, 2, x), 2 * x - x * x,
                1e-9);
  }
  EXPECT_DOUBLE_EQ(util::regularized_incomplete_beta(3, 5, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(util::regularized_incomplete_beta(3, 5, 1.0), 1.0);
  // Symmetry: I_x(a, b) = 1 - I_{1-x}(b, a).
  EXPECT_NEAR(util::regularized_incomplete_beta(3, 5, 0.3),
              1.0 - util::regularized_incomplete_beta(5, 3, 0.7), 1e-9);
}

TEST(StatsInterval, TrialsProjectionMeetsTargetAndIsMonotone) {
  for (const auto m : {IntervalMethod::kWilson, IntervalMethod::kClopperPearson}) {
    // The returned n must satisfy the method's own projected predicate.
    const auto met = [&](std::size_t x0, std::size_t n0, double target,
                         std::size_t n) {
      const double p = n0 ? static_cast<double>(x0) / static_cast<double>(n0)
                          : 0.0;
      const auto x = static_cast<std::size_t>(p * static_cast<double>(n) + 0.5);
      return util::interval_half_width(util::binomial_interval_95(
                 m, std::min(x, n), n)) <= target;
    };
    const std::size_t n1 = util::trials_for_half_width_95(m, 10, 100, 0.02);
    EXPECT_GE(n1, 100u);
    EXPECT_LT(n1, util::kTrialsProjectionCap);
    EXPECT_TRUE(met(10, 100, 0.02, n1));
    // A tighter target never needs fewer samples.
    const std::size_t n2 = util::trials_for_half_width_95(m, 10, 100, 0.01);
    EXPECT_GE(n2, n1);
    // Already-met targets return the current trial count.
    EXPECT_EQ(util::trials_for_half_width_95(m, 0, 10000, 0.25), 10000u);
    // Unreachable targets hit the cap instead of looping.
    EXPECT_EQ(util::trials_for_half_width_95(m, 10, 100, 1e-9),
              util::kTrialsProjectionCap);
  }
}

// ---- the pure decision procedure -------------------------------------------

TEST(AdaptivePlan, PilotAndLadderShapes) {
  using namespace inject::adaptive;
  EXPECT_EQ(pilot_ordinals(0), 0u);
  EXPECT_EQ(pilot_ordinals(8), 8u);     // budget below the first milestone
  EXPECT_EQ(pilot_ordinals(256), 32u);  // 1/8 below the floor -> floor
  EXPECT_EQ(pilot_ordinals(4096), 512u);

  EXPECT_TRUE(milestone_ladder(0).empty());
  EXPECT_EQ(milestone_ladder(8), (std::vector<std::uint64_t>{8}));
  EXPECT_EQ(milestone_ladder(32), (std::vector<std::uint64_t>{32}));
  EXPECT_EQ(milestone_ladder(100), (std::vector<std::uint64_t>{32, 64, 100}));
  EXPECT_EQ(milestone_ladder(512),
            (std::vector<std::uint64_t>{32, 64, 128, 256, 512}));
}

TEST(AdaptivePlan, FixedBudgetMatchesIndexSchedule) {
  using namespace inject::adaptive;
  // base[f] = |{g < injections : g % ff_count == f}|.
  const auto base = fixed_budget(10, 3);
  EXPECT_EQ(base, (std::vector<std::uint64_t>{4, 3, 3}));
  std::uint64_t sum = 0;
  for (const auto b : fixed_budget(1495 * 40 + 7, 1495)) sum += b;
  EXPECT_EQ(sum, 1495u * 40 + 7);
}

TEST(AdaptivePlan, MilestoneStopsOnlyWhenBothRatesAreTight) {
  using namespace inject::adaptive;
  std::vector<FfDecision> states(3);
  // FF 0: quiet on both rates -> stops.  FF 1: tight SDC but a noisy DUE
  // rate -> stays open.  FF 2: already stopped earlier -> untouched.
  states[0].pilot.vanished = 32;
  states[1].pilot.vanished = 16;
  states[1].pilot.ut = 16;  // DUE rate 0.5 at n = 32: half-width ~0.163
  states[2].stopped_at = 32;
  apply_milestone(64, 0.10, IntervalMethod::kWilson, &states);
  EXPECT_EQ(states[0].stopped_at, 64u);
  EXPECT_EQ(states[1].stopped_at, 0u);
  EXPECT_EQ(states[2].stopped_at, 32u);
}

TEST(AdaptivePlan, FinalCountsRespectBudgetAndGrantOpenFfs) {
  using namespace inject::adaptive;
  const std::uint64_t pilot = 32;
  std::vector<std::uint64_t> base(4, 100);
  std::vector<FfDecision> states(4);
  states[0].stopped_at = 32;  // freed 68
  states[1].stopped_at = 32;  // freed 68
  states[2].pilot.omm = 8;    // open, noisy
  states[2].pilot.vanished = 24;
  states[3].pilot.omm = 6;  // open, noisy
  states[3].pilot.vanished = 26;
  const auto planned = plan_final_counts(states, pilot, base, 0.05,
                                         IntervalMethod::kWilson);
  ASSERT_EQ(planned.size(), 4u);
  EXPECT_EQ(planned[0], 32u);
  EXPECT_EQ(planned[1], 32u);
  EXPECT_GT(planned[2], pilot);  // open FFs got the freed budget
  EXPECT_GT(planned[3], pilot);
  std::uint64_t total = 0;
  for (const auto n : planned) total += n;
  EXPECT_LE(total, 400u);  // never exceeds the fixed budget
}

TEST(AdaptivePlan, OversubscribedPoolIsSplitExactly) {
  using namespace inject::adaptive;
  // Unreachably tight target: every open FF projects a huge need, so the
  // whole pool is granted and the plan sums to the budget exactly.
  const std::uint64_t pilot = 32;
  std::vector<std::uint64_t> base(5, 64);
  std::vector<FfDecision> states(5);
  states[0].stopped_at = 32;
  for (std::size_t f = 1; f < 5; ++f) {
    states[f].pilot.omm = 8;
    states[f].pilot.vanished = 24;
  }
  const auto planned = plan_final_counts(states, pilot, base, 1e-6,
                                         IntervalMethod::kWilson);
  std::uint64_t total = 0;
  for (const auto n : planned) total += n;
  EXPECT_EQ(total, 5u * 64);
  for (std::size_t f = 1; f < 5; ++f) EXPECT_GE(planned[f], pilot) << f;
}

// A deterministic synthetic outcome source: global index g draws from a
// fixed per-seed Bernoulli law, exactly like the real executor's
// index-derived RNG (pure function of (seed, g), never of call order).
inject::Outcome synthetic_outcome(std::uint64_t seed, std::uint64_t g,
                                  double rate) {
  util::Rng rng(seed ^ (0x9E3779B97F4A7C15ULL * (g + 1)));
  const double u = rng.uniform();
  if (u < rate) return inject::Outcome::kOmm;
  if (u < 2 * rate) return inject::Outcome::kUt;
  return inject::Outcome::kVanished;
}

TEST(AdaptivePlan, PropertySweep200Seeds) {
  using namespace inject::adaptive;
  constexpr std::uint32_t kFfs = 16;
  constexpr std::uint64_t kPerFf = 1000;
  constexpr std::uint64_t kInjections = kFfs * kPerFf;
  std::uint64_t stopped_ffs = 0;
  std::uint64_t containment_checks = 0;
  std::uint64_t containment_misses = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    util::Rng cfg(seed + 1);
    const double rate = 0.001 + 0.399 * cfg.uniform();
    const double width = 0.02 + 0.28 * cfg.uniform();
    const auto method = (seed % 2) ? IntervalMethod::kClopperPearson
                                   : IntervalMethod::kWilson;
    const auto oracle = [&](std::uint64_t g) {
      return synthetic_outcome(seed, g, rate);
    };
    const Plan plan =
        plan_with_oracle(kInjections, kFfs, width, method, oracle);

    // Schedule shape: the pilot and ladder depend only on the budget.
    EXPECT_EQ(plan.pilot, pilot_ordinals(kPerFf)) << seed;
    EXPECT_EQ(plan.milestones, milestone_ladder(plan.pilot)) << seed;
    ASSERT_EQ(plan.planned.size(), kFfs) << seed;

    // Invariant 1: the plan NEVER exceeds the fixed budget.
    std::uint64_t total = 0;
    for (const auto n : plan.planned) total += n;
    EXPECT_LE(total, kInjections) << seed;

    for (std::uint32_t f = 0; f < kFfs; ++f) {
      const std::uint64_t n = plan.planned[f];
      if (n >= plan.pilot) continue;  // ran past the pilot: not stopped early
      ++stopped_ffs;
      // Invariant 2: a stop point is a milestone, and replaying the
      // oracle over exactly the stopped prefix meets the target -- the
      // decision is a pure function of the global sample outcomes.
      bool on_ladder = false;
      for (const auto m : plan.milestones) on_ladder |= (m == n);
      EXPECT_TRUE(on_ladder) << "seed " << seed << " ff " << f;
      inject::OutcomeCounts c;
      for (std::uint64_t ord = 0; ord < n; ++ord) {
        c.add(oracle(ord * kFfs + f));
      }
      const double sdc_hw = util::interval_half_width(util::binomial_interval_95(
          method, c.sdc(), static_cast<std::size_t>(n)));
      const double due_hw = util::interval_half_width(util::binomial_interval_95(
          method, c.due(), static_cast<std::size_t>(n)));
      EXPECT_LE(sdc_hw, width) << "seed " << seed << " ff " << f;
      EXPECT_LE(due_hw, width) << "seed " << seed << " ff " << f;
      // Statistical soundness: the achieved interval should contain the
      // rate the full fixed budget would have measured.  A 95% interval
      // misses ~5% of the time by construction, so count misses across
      // the whole sweep instead of asserting each one.
      inject::OutcomeCounts full = c;
      for (std::uint64_t ord = n; ord < kPerFf; ++ord) {
        full.add(oracle(ord * kFfs + f));
      }
      const double fixed_rate = static_cast<double>(full.sdc()) /
                                static_cast<double>(kPerFf);
      const auto iv = util::binomial_interval_95(method, c.sdc(),
                                                 static_cast<std::size_t>(n));
      ++containment_checks;
      if (fixed_rate < iv.lo || fixed_rate > iv.hi) ++containment_misses;
    }
  }
  // The sweep must actually exercise early stopping...
  EXPECT_GT(stopped_ffs, 100u);
  // ...and the adaptive intervals must cover the fixed-budget rate at
  // (at least) their nominal level.  10% tolerates the extra noise of
  // comparing against an estimate rather than the true rate.
  ASSERT_GT(containment_checks, 0u);
  EXPECT_LT(static_cast<double>(containment_misses) /
                static_cast<double>(containment_checks),
            0.10);
}

TEST(AdaptivePlan, OracleProcedureIsPure) {
  using namespace inject::adaptive;
  const auto oracle = [](std::uint64_t g) {
    return synthetic_outcome(42, g, 0.05);
  };
  const Plan a = plan_with_oracle(16000, 16, 0.08, IntervalMethod::kWilson,
                                  oracle);
  const Plan b = plan_with_oracle(16000, 16, 0.08, IntervalMethod::kWilson,
                                  oracle);
  EXPECT_EQ(a.pilot, b.pilot);
  EXPECT_EQ(a.milestones, b.milestones);
  EXPECT_EQ(a.planned, b.planned);
}

// ---- samples to a verdict: adaptive vs fixed provisioning -----------------

// A fixed campaign that must certify every flip-flop's SDC and DUE rate to
// a 1% half-width is sized for its NOISIEST flip-flop; the adaptive plan
// sizes each flip-flop by its own noise.  On a synthetic profile shaped
// like the measured ones (Table 2), where the truth is known, the plan
// must reach that verdict on every FF with at least 3x fewer samples.
constexpr std::uint32_t kVerdictFfs = 256;
constexpr double kVerdictTarget = 0.01;

struct FfLaw {
  double sdc = 0, due = 0;
};

// ~80% of flip-flops nearly quiet, ~15% moderately vulnerable, ~5% noisy.
std::vector<FfLaw> synthetic_profile() {
  std::vector<FfLaw> laws(kVerdictFfs);
  util::Rng rng(2016);
  for (auto& law : laws) {
    const auto draw = [&rng] {
      const double u = rng.uniform();
      const double v = rng.uniform();
      if (u < 0.80) return 0.0005 + 0.0095 * v;
      if (u < 0.95) return 0.01 + 0.09 * v;
      return 0.10 + 0.40 * v;
    };
    law.sdc = draw();
    law.due = draw();
  }
  return laws;
}

inject::Outcome profile_outcome(std::uint64_t g, const FfLaw& law) {
  util::Rng rng(0x5EEDULL ^ (0x9E3779B97F4A7C15ULL * (g + 1)));
  const double u = rng.uniform();
  if (u < law.sdc) return inject::Outcome::kOmm;
  if (u < law.sdc + law.due) return inject::Outcome::kUt;
  return inject::Outcome::kVanished;
}

// Samples per FF a fixed campaign needs for one FF at `rate`, sized from
// the true rate.  trials_for_half_width_95 never projects below its probe
// count, and only the maximum over FFs (thousands, for the noisy tail)
// matters.
std::uint64_t fixed_need(IntervalMethod method, double rate) {
  const std::size_t probe = 1000;
  const auto x = static_cast<std::size_t>(rate * probe + 0.5);
  return util::trials_for_half_width_95(method, x, probe, kVerdictTarget);
}

TEST(AdaptivePlan, ReachesAVerdictOnThreeTimesFewerSamples) {
  const auto laws = synthetic_profile();
  for (const auto method :
       {IntervalMethod::kWilson, IntervalMethod::kClopperPearson}) {
    std::uint64_t per_ff = 0;
    for (const auto& law : laws) {
      per_ff = std::max({per_ff, fixed_need(method, law.sdc),
                         fixed_need(method, law.due)});
    }
    const std::uint64_t fixed_total = per_ff * kVerdictFfs;
    const auto plan = inject::adaptive::plan_with_oracle(
        fixed_total, kVerdictFfs, kVerdictTarget, method,
        [&](std::uint64_t g) {
          return profile_outcome(g, laws[g % kVerdictFfs]);
        });
    std::uint64_t adaptive_total = 0;
    for (const std::uint64_t n : plan.planned) adaptive_total += n;
    const double reduction =
        adaptive_total ? static_cast<double>(fixed_total) /
                             static_cast<double>(adaptive_total)
                       : 0.0;
    EXPECT_GE(reduction, 3.0)
        << util::interval_method_name(method) << ": fixed " << fixed_total
        << ", adaptive " << adaptive_total;
  }
}

// ---- the campaign executor -------------------------------------------------

void expect_identical(const inject::CampaignResult& a,
                      const inject::CampaignResult& b) {
  EXPECT_EQ(a.nominal_cycles, b.nominal_cycles);
  EXPECT_EQ(a.nominal_instrs, b.nominal_instrs);
  EXPECT_EQ(a.totals.vanished, b.totals.vanished);
  EXPECT_EQ(a.totals.omm, b.totals.omm);
  EXPECT_EQ(a.totals.ut, b.totals.ut);
  EXPECT_EQ(a.totals.hang, b.totals.hang);
  EXPECT_EQ(a.totals.ed, b.totals.ed);
  EXPECT_EQ(a.totals.recovered, b.totals.recovered);
  ASSERT_EQ(a.per_ff.size(), b.per_ff.size());
  for (std::size_t i = 0; i < a.per_ff.size(); ++i) {
    EXPECT_EQ(a.per_ff[i].vanished, b.per_ff[i].vanished) << i;
    EXPECT_EQ(a.per_ff[i].omm, b.per_ff[i].omm) << i;
    EXPECT_EQ(a.per_ff[i].ut, b.per_ff[i].ut) << i;
    EXPECT_EQ(a.per_ff[i].hang, b.per_ff[i].hang) << i;
    EXPECT_EQ(a.per_ff[i].ed, b.per_ff[i].ed) << i;
    EXPECT_EQ(a.per_ff[i].recovered, b.per_ff[i].recovered) << i;
  }
  // The adaptive metadata is part of the campaign identity.
  EXPECT_EQ(a.adaptive(), b.adaptive());
  EXPECT_DOUBLE_EQ(a.confidence_target, b.confidence_target);
  EXPECT_EQ(a.confidence_method, b.confidence_method);
  EXPECT_EQ(a.pilot, b.pilot);
  EXPECT_EQ(a.planned, b.planned);
  const auto as = a.sdc_interval(), bs = b.sdc_interval();
  const auto ad = a.due_interval(), bd = b.due_interval();
  EXPECT_DOUBLE_EQ(as.lo, bs.lo);
  EXPECT_DOUBLE_EQ(as.hi, bs.hi);
  EXPECT_DOUBLE_EQ(ad.lo, bd.lo);
  EXPECT_DOUBLE_EQ(ad.hi, bd.hi);
}

std::uint32_t ff_count_of(const std::string& core) {
  return arch::make_core(core)->registry().ff_count();
}

// A mid-scale adaptive campaign where SOME flip-flops stop at the first
// milestone and the noisy ones run an adaptively granted tail: 40
// samples/FF budget, pilot 32, target 0.12.  Uncached (empty key) so
// every run below actually simulates.
inject::CampaignSpec mixed_stop_spec(const isa::Program* prog) {
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = prog;
  spec.injections = static_cast<std::size_t>(ff_count_of("InO")) * 40;
  spec.seed = 11;
  spec.confidence_half_width = 0.12;
  spec.confidence_method = IntervalMethod::kWilson;
  return spec;
}

TEST(AdaptiveCampaign, EarlyStopSavesSamplesAndFollowsThePlan) {
  const ScopedEnv one_thread("CLEAR_THREADS", "1");
  // gcc at seed 11, then gcc and mcf at the default seed.
  const std::pair<const char*, std::uint64_t> inputs[] = {
      {"gcc", 11}, {"gcc", 1}, {"mcf", 1}};
  for (const auto& [name, seed] : inputs) {
    SCOPED_TRACE(std::string(name) + " seed " + std::to_string(seed));
    const auto prog = bench(name);
    auto spec = mixed_stop_spec(&prog);
    spec.seed = seed;
    const auto r = engine::run_campaign(spec);
    ASSERT_TRUE(r.adaptive());
    EXPECT_DOUBLE_EQ(r.confidence_target, 0.12);
    EXPECT_EQ(r.pilot, 32u);
    ASSERT_EQ(r.planned.size(), r.per_ff.size());
    // The whole point: fewer samples than the fixed budget...
    EXPECT_LT(r.samples_executed(), spec.injections);
    EXPECT_EQ(r.samples_executed(), r.planned_total());
    // ...and the executed set is exactly the plan, per flip-flop.
    std::size_t stopped = 0, granted = 0;
    for (std::size_t f = 0; f < r.per_ff.size(); ++f) {
      EXPECT_EQ(r.per_ff[f].total(), r.planned[f]) << f;
      stopped += (r.planned[f] < 40);
      granted += (r.planned[f] > 40);
    }
    EXPECT_GT(stopped, 0u);  // some FFs met the target in the pilot
    EXPECT_GT(granted, 0u);  // freed budget went to the noisy ones
    // The achieved intervals are reported over the executed samples.
    const auto sdc = r.sdc_interval();
    EXPECT_GE(sdc.lo, 0.0);
    EXPECT_LE(sdc.hi, 1.0);
    EXPECT_GT(sdc.hi, sdc.lo);
  }
}

TEST(AdaptiveCampaign, StopDecisionsIndependentOfThreadsAndEngine) {
  const auto prog = bench("gcc");
  const auto spec = mixed_stop_spec(&prog);
  inject::CampaignResult base;
  {
    const ScopedEnv one_thread("CLEAR_THREADS", "1");
    base = engine::run_campaign(spec);
  }

  const ScopedEnv eight_threads("CLEAR_THREADS", "8");
  expect_identical(base, engine::run_campaign(spec));

  // The from-cycle-0 reference must take the identical decisions.
  const auto ref = testref::reference_campaign(spec);
  EXPECT_EQ(ref.pilot, base.pilot);
  EXPECT_EQ(ref.planned, base.planned);
  expect_identical(base, ref);
}

// Runs spec split into K shards (alternating 1 and 8 worker threads to
// exercise scheduling independence) and folds them back together.
inject::CampaignResult run_sharded(inject::CampaignSpec spec, std::uint32_t k) {
  std::vector<inject::CampaignResult> shards;
  for (std::uint32_t s = 0; s < k; ++s) {
    inject::CampaignSpec shard = spec;
    shard.shard_count = k;
    shard.shard_index = s;
    const ScopedEnv threads("CLEAR_THREADS", (s % 2 == 0) ? "1" : "8");
    shards.push_back(engine::run_campaign(shard));
  }
  return inject::merge_campaign_results(shards);
}

TEST(AdaptiveCampaign, ShardMergeIsBitIdenticalToUnsharded) {
  const ScopedEnv one_thread("CLEAR_THREADS", "1");
  const auto prog = bench("gcc");
  const auto spec = mixed_stop_spec(&prog);
  const auto whole = engine::run_campaign(spec);
  ASSERT_TRUE(whole.adaptive());
  ASSERT_LT(whole.samples_executed(), spec.injections);
  const auto merged = run_sharded(spec, 3);
  expect_identical(whole, merged);
  EXPECT_EQ(merged.samples_executed(), merged.planned_total());
}

TEST(AdaptiveCampaign, ShardMergeAcrossPartitionsOnBudgetLimitedPilot) {
  const ScopedEnv one_thread("CLEAR_THREADS", "1");
  // Budget below the first milestone: the pilot IS the whole budget, so
  // every shard simulates it redundantly and the decision state is
  // trivially global.  Cheap enough to sweep K in {2, 3, 7}.
  const auto prog = bench("gcc");
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = static_cast<std::size_t>(ff_count_of("InO")) * 8;
  spec.seed = 5;
  spec.confidence_half_width = 0.30;
  spec.confidence_method = IntervalMethod::kClopperPearson;
  const auto whole = engine::run_campaign(spec);
  ASSERT_TRUE(whole.adaptive());
  EXPECT_EQ(whole.pilot, 8u);
  for (const std::uint32_t k : {2u, 3u, 7u}) {
    expect_identical(whole, run_sharded(spec, k));
  }
}

TEST(AdaptiveCampaign, MixedAdaptivityNeverMerges) {
  const auto prog = bench("gcc");
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = static_cast<std::size_t>(ff_count_of("InO")) * 8;
  spec.seed = 5;
  spec.shard_count = 2;
  auto adaptive_spec = spec;
  adaptive_spec.confidence_half_width = 0.30;
  adaptive_spec.shard_index = 1;
  const auto fixed = engine::run_campaign(spec);
  const auto adapt = engine::run_campaign(adaptive_spec);
  EXPECT_THROW(
      static_cast<void>(inject::merge_campaign_results({fixed, adapt})),
      std::invalid_argument);
}

TEST(AdaptiveCampaign, CacheRoundTripPreservesAdaptiveMetadata) {
  const auto prog = bench("gcc");
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.key = "InO/gcc/adaptive-cache-roundtrip";
  spec.injections = static_cast<std::size_t>(ff_count_of("InO")) * 8;
  spec.seed = 21;
  spec.confidence_half_width = 0.30;
  const auto first = engine::run_campaign(spec);
  // Second run is served from the on-disk cache pack: the adaptive block
  // must round-trip bit-identically through serialization.
  const auto cached = engine::run_campaign(spec);
  expect_identical(first, cached);
  // A fixed-budget campaign under the same key must NOT alias the
  // adaptive entry (the fingerprint covers the confidence fields).
  auto fixed = spec;
  fixed.confidence_half_width = 0.0;
  const auto f = engine::run_campaign(fixed);
  EXPECT_FALSE(f.adaptive());
  EXPECT_EQ(f.totals.total(), spec.injections);
}

}  // namespace
