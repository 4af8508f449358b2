// CLEAR framework tests: Eq. 1 math, the 586-combination enumeration,
// selective hardening behaviour, cost model integration, the analytic-vs-
// simulated cross-validation, and the benchmark-dependence machinery.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/core.h"
#include "core/benchdep.h"
#include "core/combos.h"
#include "core/selection.h"
#include "engine/engine.h"
#include "inject/campaign.h"
#include "workloads/workloads.h"

namespace {

using namespace clear;
using namespace clear::core;

class CoreEnv : public ::testing::Environment {
 public:
  void SetUp() override {
    // Unique per test binary: parallel ctest must not share a mutable dir.
    ::setenv("CLEAR_CACHE_DIR", ".clear_cache_test_core", 1);
  }
};
const ::testing::Environment* const kEnv =
    ::testing::AddGlobalTestEnvironment(new CoreEnv);

// Shared reduced-scale session: 5 benchmarks, 1 sample per flip-flop.
Session& test_session() {
  static Session* s = [] {
    auto* session = new Session("InO", /*per_ff_samples=*/1, /*seed=*/5);
    session->set_benchmarks({"bzip2", "mcf", "gcc", "parser", "inner_product"});
    return session;
  }();
  return *s;
}

Selector& test_selector() {
  static Selector* sel = new Selector(test_session());
  return *sel;
}

TEST(Reliability, GammaMultiplicative) {
  // Paper example: DFC increases FF count 20% and exec time 6.2%
  // -> gamma = 1.2 x 1.062 = 1.28.
  EXPECT_NEAR(gamma_correction(0.20, 0.062), 1.28, 0.01);
  EXPECT_DOUBLE_EQ(gamma_correction(0, 0), 1.0);
}

TEST(Reliability, ImprovementEq1) {
  const Improvement imp = improvement({100, 50}, {2, 25}, 1.25);
  EXPECT_NEAR(imp.sdc, 100.0 / 2 / 1.25, 1e-9);
  EXPECT_NEAR(imp.due, 50.0 / 25 / 1.25, 1e-9);
}

TEST(Reliability, ZeroResidualIsCapped) {
  const Improvement imp = improvement({100, 50}, {0, 0}, 1.0);
  EXPECT_GE(imp.sdc, 1e6);
  EXPECT_GE(imp.due, 1e6);
}

TEST(Combos, EnumerationMatchesTable18) {
  const auto ino = enumerate_combos("InO");
  const auto ooo = enumerate_combos("OoO");
  EXPECT_EQ(ino.size(), 417u);
  EXPECT_EQ(ooo.size(), 169u);
  EXPECT_EQ(ino.size() + ooo.size(), 586u);
}

TEST(Combos, Table18CategoryCounts) {
  const auto ino = enumerate_combos("InO");
  int no_rec = 0, flush = 0, replay = 0, abft_alone = 0, abft_corr = 0,
      abft_det = 0;
  for (const auto& c : ino) {
    const bool has_any = c.dice || c.eds || c.parity || c.dfc ||
                         c.assertions || c.cfcss || c.eddi;
    if (c.abft == workloads::AbftKind::kNone) {
      if (c.recovery == arch::RecoveryKind::kNone) ++no_rec;
      if (c.recovery == arch::RecoveryKind::kFlush) ++flush;
      if (c.recovery == arch::RecoveryKind::kIr ||
          c.recovery == arch::RecoveryKind::kEir) {
        ++replay;
      }
    } else if (!has_any) {
      ++abft_alone;
    } else if (c.abft == workloads::AbftKind::kCorrection) {
      ++abft_corr;
    } else {
      ++abft_det;
    }
  }
  EXPECT_EQ(no_rec, 127);   // 2^7 - 1
  EXPECT_EQ(flush, 3);      // subsets of {EDS, parity}
  EXPECT_EQ(replay, 14);    // subsets of {EDS, parity, DFC} x optional DICE
  EXPECT_EQ(abft_alone, 2);
  EXPECT_EQ(abft_corr, 144);
  EXPECT_EQ(abft_det, 127);
}

TEST(Combos, EirExactlyWhenDfcUnderReplay) {
  for (const auto& core : {"InO", "OoO"}) {
    for (const auto& c : enumerate_combos(core)) {
      if (c.recovery == arch::RecoveryKind::kEir) {
        EXPECT_TRUE(c.dfc);
      }
      if (c.recovery == arch::RecoveryKind::kIr) {
        EXPECT_FALSE(c.dfc);
      }
    }
  }
}

TEST(Combos, NamesAreUniqueWithinCore) {
  for (const auto& core : {"InO", "OoO"}) {
    std::set<std::string> names;
    for (const auto& c : enumerate_combos(core)) names.insert(c.name());
    EXPECT_EQ(names.size(), enumerate_combos(core).size()) << core;
  }
}

TEST(SessionProfiles, BaseProfileIsSane) {
  const ProfileSet& base = test_session().profiles(Variant::base());
  EXPECT_EQ(base.benches.size(), 5u);
  EXPECT_GT(base.totals.sdc(), 0u);
  EXPECT_GT(base.totals.due(), 0u);
  EXPECT_NEAR(base.exec_overhead, 0.0, 1e-9);
  // A meaningful fraction of FFs only ever vanish (paper Table 2: 19%
  // for the InO core across 18 benchmarks; more with fewer benchmarks).
  EXPECT_GT(base.frac_ffs_always_vanish(), 0.10);
  EXPECT_LT(base.frac_ffs_always_vanish(), 0.80);
}

TEST(SessionProfiles, SoftwareVariantsDetectAndCost) {
  Session& s = test_session();
  const ProfileSet& base = s.profiles(Variant::base());
  Variant eddi;
  eddi.eddi = true;
  const ProfileSet& pe = s.profiles(eddi);
  // EDDI detects: ED outcomes appear; SDC mass shrinks strongly.
  EXPECT_GT(pe.totals.ed, 0u);
  EXPECT_LT(pe.totals.sdc() * 4, base.totals.sdc());
  // EDDI doubles the instruction count (paper: 110% exec time); on the
  // interlocked in-order pipeline the duplicated instructions fill hazard
  // stalls, so the cycle overhead lands lower.
  EXPECT_GT(pe.exec_overhead, 0.30);

  Variant cfcss;
  cfcss.cfcss = true;
  const ProfileSet& pc = s.profiles(cfcss);
  EXPECT_GT(pc.totals.ed, 0u);
  // CFCSS only checks control flow: plenty of SDC survives.
  EXPECT_GT(pc.totals.sdc() * 3, pe.totals.sdc());
}

TEST(Selection, DiceOnlyMeetsTargetsAtModestCost) {
  SelectionSpec spec;
  spec.palette = Palette::dice_only();
  spec.target = 50.0;
  spec.recovery = arch::RecoveryKind::kNone;
  const CostReport rep = test_selector().evaluate(spec);
  EXPECT_TRUE(rep.target_met);
  EXPECT_GE(rep.imp.sdc, 50.0);
  // Paper Table 17: 50x SDC via LEAP-DICE costs 7.3% energy on InO.
  EXPECT_GT(rep.energy, 0.005);
  EXPECT_LT(rep.energy, 0.15);
  EXPECT_DOUBLE_EQ(rep.exec, 0.0);
  EXPECT_EQ(rep.n_parity, 0u);
}

TEST(Selection, CostIsMonotoneInTarget) {
  SelectionSpec spec;
  spec.palette = Palette::dice_only();
  spec.recovery = arch::RecoveryKind::kNone;
  double prev = -1.0;
  for (const double t : {2.0, 5.0, 50.0, 500.0}) {
    spec.target = t;
    const CostReport rep = test_selector().evaluate(spec);
    EXPECT_TRUE(rep.target_met) << t;
    EXPECT_GE(rep.energy, prev) << t;
    prev = rep.energy;
  }
  // the "max" point dominates everything
  spec.target = -1.0;
  const CostReport maxrep = test_selector().evaluate(spec);
  EXPECT_GE(maxrep.energy, prev);
  EXPECT_NEAR(maxrep.power, 0.224, 0.03);  // Table 17 max: 22.4% on InO
}

TEST(Selection, DiceParityFlushBeatsDiceOnly) {
  // The paper's headline: DICE+parity+flush is cheaper than DICE alone at
  // the same SDC target (Table 19 vs Table 17).  At reduced campaign
  // scale the selective cost shrinks while the flush hardware cost is
  // fixed, so the comparison is made at a high target where enough
  // flip-flops are protected for the per-FF parity savings to dominate.
  SelectionSpec dice;
  dice.palette = Palette::dice_only();
  dice.target = 500.0;
  dice.recovery = arch::RecoveryKind::kNone;
  const CostReport rd = test_selector().evaluate(dice);

  SelectionSpec combo;
  combo.palette = Palette::dice_parity();
  combo.target = 500.0;
  combo.recovery = arch::RecoveryKind::kFlush;
  const CostReport rc = test_selector().evaluate(combo);

  EXPECT_TRUE(rc.target_met);
  EXPECT_GT(rc.n_parity, 0u);
  EXPECT_GT(rc.n_dice, 0u);
  // At the test session's sparse sampling the selective set is small, so
  // the fixed flush-hardware cost can outweigh the per-FF parity savings;
  // the combination must still be in the same cost class...
  EXPECT_LT(rc.energy, rd.energy * 1.6);

  // ...and at the "max" point (every FF protected: the Table 19 vs
  // Table 17 "max" columns) the per-FF savings dominate at any scale.
  dice.target = -1;
  combo.target = -1;
  EXPECT_LT(test_selector().evaluate(combo).energy,
            test_selector().evaluate(dice).energy);
}

TEST(Selection, UnconstrainedDetectionWorsensDue) {
  SelectionSpec spec;
  spec.palette = Palette::parity_only();
  spec.target = 50.0;
  spec.metric = Metric::kSdc;
  spec.recovery = arch::RecoveryKind::kNone;
  const CostReport rep = test_selector().evaluate(spec);
  EXPECT_TRUE(rep.target_met);
  EXPECT_GE(rep.imp.sdc, 50.0);
  EXPECT_LT(rep.imp.due, 1.0);  // detected-but-unrecovered errors are DUEs
}

TEST(Selection, JointTargetsMeetBoth) {
  SelectionSpec spec;
  spec.palette = Palette::dice_parity();
  spec.metric = Metric::kJoint;
  spec.target = 20.0;
  spec.recovery = arch::RecoveryKind::kFlush;
  const CostReport rep = test_selector().evaluate(spec);
  EXPECT_TRUE(rep.target_met);
  EXPECT_GE(rep.imp.sdc, 20.0);
  EXPECT_GE(rep.imp.due, 20.0);
}

TEST(Selection, LhlBackfillProtectsRemainder) {
  SelectionSpec spec;
  spec.palette = Palette::dice_parity();
  spec.target = 10.0;
  spec.recovery = arch::RecoveryKind::kFlush;
  const CostReport plain = test_selector().evaluate(spec);
  spec.lhl_backfill = true;
  const CostReport lhl = test_selector().evaluate(spec);
  EXPECT_GT(lhl.n_lhl, 0u);
  EXPECT_GT(lhl.imp.sdc, plain.imp.sdc);
  EXPECT_GT(lhl.energy, plain.energy);
  // ~1% extra energy for the backfill (paper Sec. 4)
  EXPECT_LT(lhl.energy - plain.energy, 0.06);
}

TEST(Selection, AnalyticMatchesSimulation) {
  // The honesty check: realize the selected protection in the simulator
  // and re-measure the improvement with real injections.
  SelectionSpec spec;
  spec.palette = Palette::dice_parity();
  spec.target = 10.0;
  spec.recovery = arch::RecoveryKind::kFlush;
  const CostReport rep = test_selector().evaluate(spec);
  ASSERT_TRUE(rep.target_met);

  const arch::ResilienceConfig cfg =
      test_selector().build_config(rep, arch::RecoveryKind::kFlush);
  const auto prog = build_variant_program("mcf", Variant::base());
  inject::CampaignSpec cs;
  cs.core_name = "InO";
  cs.program = &prog;
  cs.injections = 2600;
  cs.seed = 77;
  cs.cfg = &cfg;
  const auto prot_run = engine::run_campaign(cs);
  cs.cfg = nullptr;
  cs.seed = 77;
  const auto base_run = engine::run_campaign(cs);
  // Protected-vs-base SDC improvement in *simulation* meets the target
  // zone the analytic model promised (sampling noise allowed for).
  // The selection was trained on the 5-benchmark aggregate; re-measuring
  // on a single benchmark with fresh injection samples carries noise, but
  // a large fraction of the SDC mass must demonstrably be gone.
  const double sim_imp =
      ratio_capped(static_cast<double>(base_run.totals.sdc()),
                   static_cast<double>(prot_run.totals.sdc()));
  EXPECT_GE(sim_imp, 2.5) << "analytic selection must hold up in-sim";
  EXPECT_GT(prot_run.totals.recovered, 0u);
}

TEST(ComboEvaluation, FlagshipBeatsMostOfTheSpace) {
  Session& s = test_session();
  Selector& sel = test_selector();
  Combo flagship;
  flagship.dice = true;
  flagship.parity = true;
  flagship.recovery = arch::RecoveryKind::kFlush;
  s.prefetch(combo_variants(flagship));
  const ComboPoint p = evaluate_combo(s, sel, flagship, 50.0);
  EXPECT_TRUE(p.target_met);
  EXPECT_LT(p.energy, 0.12);
  EXPECT_GT(p.sdc_protected_pct, 90.0);

  // An expensive software combo: EDDI's duplicated execution dominates.
  Combo eddi;
  eddi.eddi = true;
  s.prefetch(combo_variants(eddi));
  const ComboPoint pe = evaluate_combo(s, sel, eddi, 50.0);
  EXPECT_GT(pe.energy, 0.3);
  EXPECT_GT(pe.energy, p.energy * 4);
}

TEST(ComboEvaluation, ComposedProfileForMultiLayerCombos) {
  Session& s = test_session();
  Combo multi;
  multi.cfcss = true;
  multi.assertions = true;
  s.prefetch(combo_variants(multi));
  const ComboStack stack(s, multi, Metric::kSdc);
  const ProfileSet& base = s.profiles(Variant::base());
  // A composed stack trains and validates on its own counts, over the
  // base's FFs and benchmarks, against the whole suite's base mass.
  const ProfileView& view = stack.train();
  EXPECT_EQ(view.sdc, stack.validate().sdc);
  EXPECT_NE(view.sdc, base.ff_sdc.data());
  EXPECT_EQ(view.total, base.ff_total.data());
  EXPECT_EQ(view.benches, &base.benches);
  EXPECT_EQ(stack.basis().orig.sdc, base.mass().sdc);
  EXPECT_EQ(stack.basis().orig.due, base.mass().due);
  // Composition keeps totals sane and stacks exec overheads.
  EXPECT_LE(stack.basis().train.sdc, base.mass().sdc);
  EXPECT_GT(view.exec_overhead, s.profiles([] {
                                  Variant v;
                                  v.cfcss = true;
                                  return v;
                                }())
                                    .exec_overhead);
}

// Session::subset must be indistinguishable from profiling the subset
// suite directly: every aggregate -- totals, per-FF vectors AND the
// recomputed execution overhead -- exactly equals a fresh Session
// restricted to the same benchmark names (the campaigns are identical
// because injections/seed derive from the same per-FF scale).
TEST(SessionSubset, EqualsFreshSessionOnSameNames) {
  Variant cfcss;  // a variant with a real exec overhead to recompute
  cfcss.cfcss = true;
  const std::vector<std::string> names{"mcf", "gcc"};
  for (const Variant& v : {Variant::base(), cfcss}) {
    const ProfileSet& full = test_session().profiles(v);
    const ProfileSet sub = test_session().subset(full, names);

    Session fresh("InO", /*per_ff_samples=*/1, /*seed=*/5);
    fresh.set_benchmarks(names);
    const ProfileSet& direct = fresh.profiles(v);

    ASSERT_EQ(sub.ff_count, direct.ff_count);
    EXPECT_EQ(sub.ff_sdc, direct.ff_sdc);
    EXPECT_EQ(sub.ff_due, direct.ff_due);
    EXPECT_EQ(sub.ff_total, direct.ff_total);
    EXPECT_EQ(sub.totals.vanished, direct.totals.vanished);
    EXPECT_EQ(sub.totals.omm, direct.totals.omm);
    EXPECT_EQ(sub.totals.ut, direct.totals.ut);
    EXPECT_EQ(sub.totals.hang, direct.totals.hang);
    EXPECT_EQ(sub.totals.ed, direct.totals.ed);
    EXPECT_EQ(sub.totals.recovered, direct.totals.recovered);
    EXPECT_DOUBLE_EQ(sub.exec_overhead, direct.exec_overhead);
    ASSERT_EQ(sub.benches.size(), names.size());
  }
}

// Every variant's execution overhead divides by its benchmark's base
// cycles, which the Session runs once per benchmark and memoizes: each
// profile must still carry exactly the base program's clean-run cycles.
TEST(SessionBaseCycles, EveryVariantDividesByTheBaseProgramsCleanRun) {
  Variant cfcss;
  cfcss.cfcss = true;
  Variant eddi;
  eddi.eddi = true;
  const ProfileSet& base = test_session().profiles(Variant::base());
  for (const Variant& v : {cfcss, eddi}) {
    const ProfileSet& set = test_session().profiles(v);
    ASSERT_EQ(set.benches.size(), base.benches.size());
    for (std::size_t i = 0; i < set.benches.size(); ++i) {
      const BenchProfile& bp = set.benches[i];
      ASSERT_EQ(bp.benchmark, base.benches[i].benchmark);
      const auto clean = arch::make_core("InO")->run_clean(
          build_variant_program(bp.benchmark, Variant::base(), 0));
      EXPECT_EQ(bp.base_cycles, clean.cycles) << bp.benchmark;
      EXPECT_EQ(bp.base_cycles, base.benches[i].campaign.nominal_cycles)
          << bp.benchmark;
    }
  }
}

// A Session takes a variant's base cycles from the resident base
// profile's golden run instead of running the base program again: on
// every workload and both cores the two are the same cycle count.
TEST(SessionBaseCycles, BaseGoldenRunIsTheCleanRunOnEveryWorkload) {
  for (const std::string core : {"InO", "OoO"}) {
    std::vector<isa::Program> progs;
    for (const auto& info : workloads::benchmark_list()) {
      progs.push_back(build_variant_program(info.name, Variant::base(), 0));
    }
    std::vector<inject::CampaignSpec> specs;
    for (const isa::Program& prog : progs) {
      inject::CampaignSpec spec;
      spec.core_name = core;
      spec.program = &prog;
      spec.injections = 1;  // the golden run is the point, not the samples
      specs.push_back(spec);
    }
    const auto results = engine::run_campaigns(specs);
    ASSERT_EQ(results.size(), progs.size());
    const auto clean_core = arch::make_core(core);
    for (std::size_t i = 0; i < progs.size(); ++i) {
      EXPECT_EQ(results[i].nominal_cycles,
                clean_core->run_clean(progs[i]).cycles)
          << core << " " << workloads::benchmark_list()[i].name;
    }
  }
}

TEST(SessionSubset, UnknownNamesThrow) {
  const ProfileSet& full = test_session().profiles(Variant::base());
  EXPECT_THROW((void)test_session().subset(full, {"no_such_bench"}),
               std::invalid_argument);
  // One bad name among good ones still throws (nothing is silently
  // dropped), and the suite-order subset is unaffected afterwards.
  EXPECT_THROW((void)test_session().subset(full, {"mcf", "typo"}),
               std::invalid_argument);
  EXPECT_EQ(test_session().subset(full, {"mcf"}).benches.size(), 1u);
}

TEST(BenchDep, SplitsAreDisjointAndCoverSpec) {
  const auto splits = make_splits(test_session(), 10, 2, 3);
  ASSERT_EQ(splits.size(), 10u);
  for (const auto& [train, val] : splits) {
    EXPECT_EQ(train.size(), 2u);
    for (const auto& t : train) {
      for (const auto& v : val) EXPECT_NE(t, v);
    }
  }
}

// A split needs a benchmark on each side: with fewer than 2 SPEC
// benchmarks in the suite there is no split to make, and make_splits says
// so instead of shuffling an empty pool.
TEST(BenchDep, SplitsRefuseSuitesWithFewerThanTwoSpecBenchmarks) {
  for (const std::vector<std::string>& suite :
       {std::vector<std::string>{"fft1d", "inner_product"},
        std::vector<std::string>{"gcc", "fft1d"}}) {
    Session s("InO", /*per_ff_samples=*/1, /*seed=*/5);
    s.set_benchmarks(suite);
    const std::size_t n_spec = suite.front() == "gcc" ? 1 : 0;
    try {
      (void)make_splits(s, 2, 4, 99);
      ADD_FAILURE() << "no throw on " << n_spec << " SPEC benchmark(s)";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(n_spec) + " SPEC"),
                std::string::npos)
          << e.what();
    }
  }
}

// The metric a stack was prepared for is the one its selection ranks.
TEST(Selection, EvaluateRefusesAStackOfAnotherMetric) {
  Session& s = test_session();
  s.prefetch({Variant::base()});
  const ComboStack stack(s, Variant::base(), Metric::kDue);
  SelectionSpec spec;
  spec.metric = Metric::kSdc;
  EXPECT_THROW((void)test_selector().evaluate(spec, stack),
               std::invalid_argument);
  spec.metric = Metric::kDue;
  EXPECT_NO_THROW((void)test_selector().evaluate(spec, stack));
}

TEST(BenchDep, SubsetSimilarityShape) {
  const auto sim = subset_similarity(test_session());
  // The hottest decile must agree across benchmarks far beyond chance
  // (five independent random 10% subsets have Jaccard ~2e-5), and the
  // always-vanish tail is a stable set (Table 27's last rows).  The full
  // Table 27 gradient needs the bench-scale campaigns.
  EXPECT_GT(sim[0], 0.02);
  EXPECT_GT(sim[9], 0.5);
}

TEST(BenchDep, ValidatedTracksTrainedForStandalone) {
  Variant cfcss;
  cfcss.cfcss = true;
  const TrainValidate tv =
      standalone_train_validate(test_session(), cfcss, Metric::kSdc, 12, 4);
  // CFCSS improvement is low (near or below 1x after the gamma penalty);
  // what matters here is that train and validate agree (paper Table 23).
  EXPECT_GT(tv.trained, 0.4);
  EXPECT_GT(tv.validated, 0.4);
  EXPECT_LT(std::abs(tv.underestimate_pct), 60.0);
}

TEST(BenchDep, LhlBackfillRestoresTarget) {
  const LhlRow row = lhl_backfill_row(test_session(), test_selector(), 10.0,
                                      Metric::kSdc, 6, 4);
  EXPECT_GE(row.trained, 10.0);
  EXPECT_GT(row.after_lhl, row.validated);
  EXPECT_GT(row.area_after, row.area_before);
}

}  // namespace
