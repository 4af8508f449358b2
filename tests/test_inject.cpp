// Injection-campaign engine tests: classification, determinism, caching,
// sharding, snapshot placement, batched submission, hardening suppression,
// detection/recovery plumbing, and high-level injection models.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "arch/core.h"
#include "core/variants.h"
#include "engine/engine.h"
#include "inject/cachepack.h"
#include "inject/campaign.h"
#include "inject/iss_inject.h"
#include "isa/assembler.h"
#include "obs/metrics.h"
#include "plan/runplan.h"
#include "util/fs.h"
#include "util/threadpool.h"
#include "workloads/workloads.h"
#include "reference_campaign.h"

namespace {

using namespace clear;

isa::Program bench(const std::string& name) {
  return isa::assemble(workloads::build_benchmark(name));
}

class InjectEnv : public ::testing::Environment {
 public:
  void SetUp() override {
    // Isolate test campaigns from the shared bench cache AND from other
    // test binaries: ctest runs binaries in parallel, and two processes
    // mutating (truncating, removing) one cache directory race.
    ::setenv("CLEAR_CACHE_DIR", ".clear_cache_test_inject", 1);
  }
};
const ::testing::Environment* const kEnv =
    ::testing::AddGlobalTestEnvironment(new InjectEnv);

TEST(Classify, MapsStatusesToPaperOutcomes) {
  arch::CoreRunResult golden;
  golden.status = isa::RunStatus::kHalted;
  golden.output = {1, 2, 3};

  arch::CoreRunResult r = golden;
  EXPECT_EQ(inject::classify(r, golden), inject::Outcome::kVanished);
  r.recoveries = 1;
  EXPECT_EQ(inject::classify(r, golden), inject::Outcome::kRecovered);
  r.recoveries = 0;
  r.output = {1, 2, 4};
  EXPECT_EQ(inject::classify(r, golden), inject::Outcome::kOmm);
  r.status = isa::RunStatus::kTrapped;
  EXPECT_EQ(inject::classify(r, golden), inject::Outcome::kUt);
  r.status = isa::RunStatus::kWatchdog;
  EXPECT_EQ(inject::classify(r, golden), inject::Outcome::kHang);
  r.status = isa::RunStatus::kDetected;
  EXPECT_EQ(inject::classify(r, golden), inject::Outcome::kEd);
}

TEST(Classify, SerRatiosMatchTable4) {
  EXPECT_DOUBLE_EQ(inject::ser_ratio(arch::FFProt::kLeapDice), 2.0e-4);
  EXPECT_DOUBLE_EQ(inject::ser_ratio(arch::FFProt::kLhl), 2.5e-1);
  EXPECT_DOUBLE_EQ(inject::ser_ratio(arch::FFProt::kLeapCtrlEco), 1.0);
  EXPECT_DOUBLE_EQ(inject::ser_ratio(arch::FFProt::kLeapCtrlRes), 2.0e-4);
  EXPECT_DOUBLE_EQ(inject::ser_ratio(arch::FFProt::kNone), 1.0);
}

TEST(Campaign, ProducesAllOutcomeKindsOnInO) {
  const auto prog = bench("mcf");
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = 1500;
  spec.key = "";  // no caching
  const auto r = engine::run_campaign(spec);
  EXPECT_EQ(r.totals.total(), 1500u);
  // A realistic campaign has vanished, SDC and DUE outcomes.
  EXPECT_GT(r.totals.vanished, 0u);
  EXPECT_GT(r.totals.sdc(), 0u);
  EXPECT_GT(r.totals.due(), 0u);
  EXPECT_EQ(r.totals.ed, 0u);  // no detection configured
  EXPECT_GT(r.nominal_cycles, 0u);
}

TEST(Campaign, DeterministicForSeed) {
  const auto prog = bench("gcc");
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = 400;
  spec.seed = 7;
  const auto a = engine::run_campaign(spec);
  const auto b = engine::run_campaign(spec);
  EXPECT_EQ(a.totals.omm, b.totals.omm);
  EXPECT_EQ(a.totals.ut, b.totals.ut);
  EXPECT_EQ(a.totals.hang, b.totals.hang);
  for (std::size_t i = 0; i < a.per_ff.size(); i += 97) {
    EXPECT_EQ(a.per_ff[i].omm, b.per_ff[i].omm) << i;
  }
}

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
}

TEST(Campaign, DeterministicAcrossThreadCounts) {
  // Index-derived RNGs make results independent of worker scheduling: one
  // worker thread and eight must produce the same CampaignResult.
  const auto prog = bench("gcc");
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = 600;
  spec.seed = 11;
  spec.threads = 1;
  const auto one = engine::run_campaign(spec);
  spec.threads = 8;
  const auto eight = engine::run_campaign(spec);
  expect_identical(one, eight);
}

// Guards the oracle tests below against passing vacuously: the
// liveness-masked convergence compare only matters when some faulty runs
// actually stop early, so each test also requires converged runs.
class ConvergedRuns {
 public:
  ConvergedRuns() : before_(counter().value()) { obs::set_enabled(true); }
  [[nodiscard]] std::uint64_t count() const {
    return counter().value() - before_;
  }

 private:
  static obs::Counter& counter() {
    return obs::counter("campaign.fork.converged");
  }
  std::uint64_t before_;
};

// The forked engine against the from-cycle-0 reference
// (tests/reference_campaign.h): bit-identical per-FF counters.
TEST(Campaign, ForkedMatchesReferenceOnInO) {
  const ConvergedRuns converged;
  const auto prog = bench("mcf");
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = 900;
  spec.seed = 5;
  expect_identical(testref::reference_campaign(spec),
                   engine::run_campaign(spec));
  EXPECT_GT(converged.count(), 0u);
}

TEST(Campaign, ForkedMatchesReferenceOnInOWithRecovery) {
  // Exercise detection + IR rollback across the fork boundary: the pruned
  // replay ring serialized into each checkpoint must behave exactly like
  // the full-history ring of a from-cycle-0 run.
  const auto prog = bench("gcc");
  auto core = arch::make_ino_core();
  arch::ResilienceConfig cfg;
  cfg.prot.assign(core->registry().ff_count(), arch::FFProt::kEds);
  cfg.recovery = arch::RecoveryKind::kIr;
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = 400;
  spec.seed = 23;
  spec.cfg = &cfg;
  const auto forked = engine::run_campaign(spec);
  EXPECT_GT(forked.totals.recovered, 0u);
  expect_identical(testref::reference_campaign(spec), forked);
}

TEST(Campaign, ForkedMatchesReferenceOnOoO) {
  const ConvergedRuns converged;
  const auto prog = bench("mcf");
  inject::CampaignSpec spec;
  spec.core_name = "OoO";
  spec.program = &prog;
  spec.injections = 250;
  spec.seed = 7;
  expect_identical(testref::reference_campaign(spec),
                   engine::run_campaign(spec));
  EXPECT_GT(converged.count(), 0u);
}

TEST(Campaign, ForkedMatchesReferenceOnOoOWithMonitor) {
  const ConvergedRuns converged;
  // The monitor's shadow machine is part of the serialized state; forked
  // runs must validate commits exactly like from-cycle-0 runs.
  const auto prog = bench("mcf");
  arch::ResilienceConfig cfg;
  cfg.monitor = true;
  cfg.recovery = arch::RecoveryKind::kRob;
  inject::CampaignSpec spec;
  spec.core_name = "OoO";
  spec.program = &prog;
  spec.injections = 120;
  spec.seed = 13;
  spec.cfg = &cfg;
  expect_identical(testref::reference_campaign(spec),
                   engine::run_campaign(spec));
  EXPECT_GT(converged.count(), 0u);
}

TEST(Campaign, ForkedMatchesReferenceOnInOWithParityFlush) {
  // Parity + flush on the flushable FFs, the rest unprotected.  A
  // recovered run lags golden by its recovery latency and so never lands
  // on a matching boundary (the EDS + IR case above converges nowhere);
  // one sample per FF also reaches the unprotected back-end latches,
  // whose benign flips must converge.
  const ConvergedRuns converged;
  const auto prog = bench("gcc");
  auto core = arch::make_ino_core();
  const auto& reg = core->registry();
  arch::ResilienceConfig cfg;
  cfg.prot.assign(reg.ff_count(), arch::FFProt::kNone);
  cfg.parity_group.assign(reg.ff_count(), -1);
  std::int32_t group = 0;
  for (const auto& s : reg.structures()) {
    if (!s.flags.flushable) continue;
    for (std::uint32_t b = 0; b < s.width; ++b) {
      cfg.prot[s.first_ff + b] = arch::FFProt::kParity;
      cfg.parity_group[s.first_ff + b] = group++ / 16;
    }
  }
  cfg.recovery = arch::RecoveryKind::kFlush;
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = 0;  // one per FF
  spec.seed = 29;
  spec.cfg = &cfg;
  const auto forked = engine::run_campaign(spec);
  EXPECT_GT(forked.totals.recovered, 0u);
  expect_identical(testref::reference_campaign(spec), forked);
  EXPECT_GT(converged.count(), 0u);
}

TEST(Campaign, ForkedMatchesReferenceOnInOEddi) {
  // EDDI-transformed code: duplicated registers and compare-and-det
  // sequences, with much of the shadow state dead between checks.
  const ConvergedRuns converged;
  const auto prog =
      core::build_variant_program("fft1d", plan::parse_variant("eddi"));
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = 600;
  spec.seed = 31;
  const auto forked = engine::run_campaign(spec);
  EXPECT_GT(forked.totals.ed, 0u);
  expect_identical(testref::reference_campaign(spec), forked);
  EXPECT_GT(converged.count(), 0u);
}

TEST(Campaign, CorruptCacheFallsBackToRerun) {
  const auto prog = bench("parser");
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = 200;
  spec.key = "test/parser/corrupt_cache";
  std::filesystem::remove_all(inject::campaign_cache_dir());
  const auto fresh = engine::run_campaign(spec);

  const std::filesystem::path pack_file =
      std::filesystem::path(inject::campaign_cache_dir()) /
      inject::CachePack::kPackName;
  ASSERT_TRUE(std::filesystem::exists(pack_file));

  // Truncated pack: the stored payload no longer verifies, so the
  // campaign re-runs (and re-appends a good record).
  {
    const auto full_size = std::filesystem::file_size(pack_file);
    std::filesystem::resize_file(pack_file, full_size / 2);
    const auto again = engine::run_campaign(spec);
    expect_identical(fresh, again);
  }
  // Binary garbage: same story.
  {
    std::ofstream out(pack_file, std::ios::binary | std::ios::trunc);
    out << "\x7f""ELFgarbage\0\1\2\3";
  }
  const auto again = engine::run_campaign(spec);
  expect_identical(fresh, again);
  // Cache directory removed outright (new inode underneath the open
  // pack): the store reopens and the campaign re-runs.
  std::filesystem::remove_all(inject::campaign_cache_dir());
  expect_identical(fresh, engine::run_campaign(spec));
}

TEST(Campaign, CacheRoundTrips) {
  const auto prog = bench("parser");
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = 300;
  spec.key = "test/parser/cache_roundtrip";
  std::filesystem::remove_all(inject::campaign_cache_dir());
  const auto a = engine::run_campaign(spec);
  const auto b = engine::run_campaign(spec);  // served from cache
  EXPECT_EQ(a.totals.omm, b.totals.omm);
  EXPECT_EQ(a.totals.due(), b.totals.due());
  EXPECT_EQ(a.nominal_cycles, b.nominal_cycles);
  ASSERT_EQ(a.per_ff.size(), b.per_ff.size());
  for (std::size_t i = 0; i < a.per_ff.size(); ++i) {
    EXPECT_EQ(a.per_ff[i].omm, b.per_ff[i].omm);
  }
}

TEST(Campaign, FullHardeningSuppressesAlmostEverything) {
  const auto prog = bench("gcc");
  auto core = arch::make_ino_core();
  arch::ResilienceConfig cfg;
  cfg.prot.assign(core->registry().ff_count(), arch::FFProt::kLeapDice);
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = 2000;
  spec.cfg = &cfg;
  const auto r = engine::run_campaign(spec);
  // SER ratio 2e-4: expect ~0.4 effective upsets in 2000 strikes.
  EXPECT_LT(r.totals.sdc() + r.totals.due(), 5u);
  EXPECT_GT(r.totals.vanished, 1990u);
}

// ---- snapshot placement ---------------------------------------------------
//
// Placement never changes results, only how many golden snapshots a
// campaign takes.  These tests read that count from the obs registry.
class PlacementProbe {
 public:
  PlacementProbe()
      : captures_(captures()), goldens_(goldens()), forks_(forks()) {
    obs::set_enabled(true);
  }
  // Snapshots captured per golden recording since construction.
  [[nodiscard]] std::uint64_t captures_per_golden() const {
    const std::uint64_t g = goldens() - goldens_;
    return g == 0 ? 0 : (captures() - captures_) / g;
  }
  [[nodiscard]] std::uint64_t forked_runs() const { return forks() - forks_; }

 private:
  static std::uint64_t captures() {
    std::array<std::uint64_t, obs::kHistBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    obs::histogram("campaign.snapshot.capture").read(&buckets, &count, &sum);
    return count;
  }
  static std::uint64_t goldens() {
    return obs::counter("campaign.goldens").value();
  }
  static std::uint64_t forks() {
    return obs::counter("campaign.fork.converged").value() +
           obs::counter("campaign.fork.ran_benign").value() +
           obs::counter("campaign.fork.ran_failing").value();
  }
  std::uint64_t captures_;
  std::uint64_t goldens_;
  std::uint64_t forks_;
};

// A 1/128 shard forks for ~1/128 of the samples, but each of them still
// replays about one interval of golden cycles (up to its injection, then
// on to the convergence compare at the next boundary).  So a shard must
// place snapshots as densely as the whole campaign does.
TEST(Placement, ShardTakesTheUnshardedSnapshotCount) {
  for (const char* core : {"InO", "OoO"}) {
    const auto prog = bench(core == std::string("InO") ? "gcc" : "mcf");
    inject::CampaignSpec spec;
    spec.core_name = core;
    spec.program = &prog;
    spec.injections = 120000;
    spec.seed = 1;
    spec.key = "";  // no caching: every golden is really recorded
    const PlacementProbe whole;
    (void)engine::run_campaign(spec);
    const std::uint64_t whole_captures = whole.captures_per_golden();
    spec.shard_index = 5;
    spec.shard_count = 128;
    const PlacementProbe shard;
    (void)engine::run_campaign(spec);
    EXPECT_GT(whole_captures, 0u) << core;
    EXPECT_EQ(shard.captures_per_golden(), whole_captures) << core;
  }
}

// With every strike suppressed no sample forks, so the golden pass takes
// the coarse fallback placement: one snapshot per ~1/96 of the run (at
// least 64 cycles apart).
TEST(Placement, AllSuppressedStrikesTakeTheCoarseFallback) {
  const auto prog = bench("gcc");
  auto core = arch::make_ino_core();
  arch::ResilienceConfig cfg;
  cfg.prot.assign(core->registry().ff_count(), arch::FFProt::kLeapDice);
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = 200;
  spec.seed = 2;
  spec.key = "";
  spec.cfg = &cfg;
  const PlacementProbe probe;
  const auto r = engine::run_campaign(spec);
  ASSERT_EQ(probe.forked_runs(), 0u) << "a strike got through at SER 2e-4";
  const std::uint64_t interval =
      std::max<std::uint64_t>(64, r.nominal_cycles / 96);
  // One snapshot at cycle 0 and one per interval boundary the run passes.
  EXPECT_EQ(probe.captures_per_golden(), 1 + (r.nominal_cycles - 1) / interval);
}

TEST(Campaign, ParityPlusFlushRecoversDetectedErrors) {
  const auto prog = bench("gcc");
  auto core = arch::make_ino_core();
  const auto& reg = core->registry();
  arch::ResilienceConfig cfg;
  cfg.prot.assign(reg.ff_count(), arch::FFProt::kNone);
  cfg.parity_group.assign(reg.ff_count(), -1);
  // Parity on flushable FFs, LEAP-DICE elsewhere (Heuristic 1 shape).
  std::int32_t group = 0;
  for (const auto& s : reg.structures()) {
    for (std::uint32_t b = 0; b < s.width; ++b) {
      const std::uint32_t ff = s.first_ff + b;
      if (s.flags.flushable) {
        cfg.prot[ff] = arch::FFProt::kParity;
        cfg.parity_group[ff] = group++ / 16;
      } else {
        cfg.prot[ff] = arch::FFProt::kLeapDice;
      }
    }
  }
  cfg.recovery = arch::RecoveryKind::kFlush;
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = 1200;
  spec.cfg = &cfg;
  const auto r = engine::run_campaign(spec);
  // Detected + recovered errors; essentially no SDC left.
  EXPECT_GT(r.totals.recovered, 0u);
  EXPECT_EQ(r.totals.sdc(), 0u);
  EXPECT_LE(r.totals.due(), 2u);
}

TEST(Campaign, EdsWithoutRecoveryTurnsErrorsIntoEd) {
  const auto prog = bench("gcc");
  auto core = arch::make_ino_core();
  arch::ResilienceConfig cfg;
  cfg.prot.assign(core->registry().ff_count(), arch::FFProt::kEds);
  cfg.recovery = arch::RecoveryKind::kNone;
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = 600;
  spec.cfg = &cfg;
  const auto r = engine::run_campaign(spec);
  // EDS detects every upset in-cycle; without recovery everything is ED.
  EXPECT_EQ(r.totals.ed, 600u);
  EXPECT_EQ(r.totals.sdc(), 0u);
}

TEST(Campaign, IrRecoveryRepairsEverywhereIncludingUnflushable) {
  const auto prog = bench("gcc");
  auto core = arch::make_ino_core();
  arch::ResilienceConfig cfg;
  cfg.prot.assign(core->registry().ff_count(), arch::FFProt::kEds);
  cfg.recovery = arch::RecoveryKind::kIr;
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = 500;
  spec.cfg = &cfg;
  const auto r = engine::run_campaign(spec);
  EXPECT_EQ(r.totals.sdc(), 0u);
  EXPECT_EQ(r.totals.ed, 0u);
  EXPECT_EQ(r.totals.due(), 0u);
  EXPECT_GT(r.totals.recovered, 400u);  // most strikes hit live cycles
}

TEST(Campaign, MarginOfErrorReported) {
  const auto prog = bench("gcc");
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = 500;
  const auto r = engine::run_campaign(spec);
  EXPECT_GT(r.sdc_margin_of_error(), 0.0);
  EXPECT_LT(r.sdc_margin_of_error(), 0.1);
}

// ---- sharding --------------------------------------------------------------

// Runs spec split into K shards (alternating 1 and 8 worker threads to
// exercise scheduling independence) and folds them back together.
inject::CampaignResult run_sharded(inject::CampaignSpec spec, std::uint32_t k) {
  std::vector<inject::CampaignResult> shards;
  for (std::uint32_t s = 0; s < k; ++s) {
    inject::CampaignSpec shard = spec;
    shard.shard_count = k;
    shard.shard_index = s;
    shard.threads = (s % 2 == 0) ? 1 : 8;
    shards.push_back(engine::run_campaign(shard));
  }
  return inject::merge_campaign_results(shards);
}

TEST(Sharding, MergeIsBitIdenticalToUnshardedOnInO) {
  const auto prog = bench("gcc");
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = 630;
  spec.seed = 17;
  spec.threads = 1;
  const auto whole = engine::run_campaign(spec);
  ASSERT_EQ(whole.totals.total(), 630u);
  for (const std::uint32_t k : {2u, 3u, 7u}) {
    const auto merged = run_sharded(spec, k);
    EXPECT_EQ(merged.totals.total(), 630u) << "K=" << k;
    expect_identical(whole, merged);
  }
}

TEST(Sharding, MergeIsBitIdenticalToUnshardedOnOoO) {
  const auto prog = bench("mcf");
  inject::CampaignSpec spec;
  spec.core_name = "OoO";
  spec.program = &prog;
  spec.injections = 210;
  spec.seed = 3;
  spec.threads = 1;
  const auto whole = engine::run_campaign(spec);
  for (const std::uint32_t k : {2u, 3u, 7u}) {
    expect_identical(whole, run_sharded(spec, k));
  }
}

TEST(Sharding, MergeMatchesUnshardedReference) {
  // Forked shards merge to the from-cycle-0 unsharded answer, and each
  // shard matches the reference's view of that shard.
  const auto prog = bench("mcf");
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = 450;
  spec.seed = 29;
  spec.threads = 1;
  expect_identical(testref::reference_campaign(spec), run_sharded(spec, 3));
  inject::CampaignSpec shard = spec;
  shard.shard_index = 1;
  shard.shard_count = 3;
  expect_identical(testref::reference_campaign(shard),
                   engine::run_campaign(shard));
}

TEST(Sharding, CommutesWithHardeningSuppression) {
  // The SER-suppression Bernoulli draw consumes RNG state: it must come
  // out identically whether the sample runs in the whole campaign or in a
  // shard.
  const auto prog = bench("gcc");
  auto core = arch::make_ino_core();
  arch::ResilienceConfig cfg;
  cfg.prot.assign(core->registry().ff_count(), arch::FFProt::kLhl);
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = 400;
  spec.seed = 41;
  spec.threads = 1;
  spec.cfg = &cfg;
  const auto whole = engine::run_campaign(spec);
  EXPECT_GT(whole.totals.vanished, 0u);  // ~75% suppressed at LHL SER
  expect_identical(whole, run_sharded(spec, 3));
}

TEST(Sharding, RejectsInvalidShardAndMismatchedMerges) {
  const auto prog = bench("gcc");
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = 100;
  spec.shard_index = 3;
  spec.shard_count = 3;
  EXPECT_THROW((void)engine::run_campaign(spec), std::invalid_argument);
  spec.shard_count = 0;
  EXPECT_THROW((void)engine::run_campaign(spec), std::invalid_argument);

  EXPECT_THROW((void)inject::merge_campaign_results({}),
               std::invalid_argument);
  inject::CampaignResult a, b;
  a.ff_count = 4;
  a.nominal_cycles = 100;
  a.per_ff.assign(4, {});
  b = a;
  b.nominal_cycles = 101;  // different golden run: different campaign
  EXPECT_THROW((void)inject::merge_campaign_results({a, b}),
               std::invalid_argument);
}

// ---- batched submission ----------------------------------------------------

TEST(Campaign, BatchedSubmissionMatchesSequential) {
  const auto p1 = bench("mcf");
  const auto p2 = bench("gcc");
  const auto p3 = bench("parser");
  std::vector<inject::CampaignSpec> specs(3);
  specs[0].core_name = "InO";
  specs[0].program = &p1;
  specs[0].injections = 300;
  specs[0].seed = 7;
  specs[1].core_name = "InO";
  specs[1].program = &p2;
  specs[1].injections = 400;
  specs[1].seed = 11;
  specs[2].core_name = "InO";
  specs[2].program = &p3;
  specs[2].injections = 200;
  specs[2].seed = 13;
  std::vector<inject::CampaignResult> sequential;
  for (const auto& s : specs) sequential.push_back(engine::run_campaign(s));
  const auto batched = engine::run_campaigns(specs);
  ASSERT_EQ(batched.size(), sequential.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_identical(sequential[i], batched[i]);
  }
}

TEST(Campaign, BatchedSubmissionUsesTheCache) {
  const auto p1 = bench("mcf");
  const auto p2 = bench("gcc");
  std::vector<inject::CampaignSpec> specs(2);
  specs[0].core_name = "InO";
  specs[0].program = &p1;
  specs[0].injections = 150;
  specs[0].key = "test/batch/mcf";
  specs[1].core_name = "InO";
  specs[1].program = &p2;
  specs[1].injections = 150;
  specs[1].key = "test/batch/gcc";
  const auto first = engine::run_campaigns(specs);
  const auto second = engine::run_campaigns(specs);  // served from the pack
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_identical(first[i], second[i]);
  }
}

TEST(Campaign, BatchGoldenFailurePropagatesWithoutDeadlock) {
  // An empty program cannot halt; the batch must rethrow the golden-run
  // failure instead of wedging faulty-run workers on the ready latch.
  const auto good = bench("gcc");
  isa::Program broken;  // no code: the golden run never halts
  std::vector<inject::CampaignSpec> specs(2);
  specs[0].core_name = "InO";
  specs[0].program = &broken;
  specs[0].injections = 100;
  specs[1].core_name = "InO";
  specs[1].program = &good;
  specs[1].injections = 100;
  EXPECT_THROW((void)engine::run_campaigns(specs), std::runtime_error);
}

// ---- classification golden table -------------------------------------------

TEST(Classify, GoldenTableLocksOutcomeTaxonomy) {
  // tests/data/classify_golden.txt pins classify() against hand-checked
  // faulty-vs-golden pairs; a refactor that reshuffles the taxonomy fails
  // here even if every other campaign statistic happens to survive.
  const std::string path =
      std::string(CLEAR_TEST_DATA_DIR) + "/classify_golden.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing " << path;

  arch::CoreRunResult golden;
  golden.status = isa::RunStatus::kHalted;
  golden.output = {0xBEEF, 42, 7};

  const auto parse_status = [](const std::string& s) {
    if (s == "Halted") return isa::RunStatus::kHalted;
    if (s == "Trapped") return isa::RunStatus::kTrapped;
    if (s == "Watchdog") return isa::RunStatus::kWatchdog;
    if (s == "Detected") return isa::RunStatus::kDetected;
    if (s == "Running") return isa::RunStatus::kRunning;
    ADD_FAILURE() << "unknown status " << s;
    return isa::RunStatus::kRunning;
  };

  int cases = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string status, expected;
    int output_matches = 0;
    unsigned recoveries = 0;
    ASSERT_TRUE(
        static_cast<bool>(ls >> status >> output_matches >> recoveries >>
                          expected))
        << "bad line: " << line;
    arch::CoreRunResult faulty = golden;
    faulty.status = parse_status(status);
    faulty.recoveries = recoveries;
    if (output_matches == 0) faulty.output = {0xDEAD};
    EXPECT_STREQ(inject::outcome_name(inject::classify(faulty, golden)),
                 expected.c_str())
        << "case: " << line;
    ++cases;
  }
  EXPECT_EQ(cases, 14) << "golden table changed size unexpectedly";
}

// ---- cache directory creation race -----------------------------------------

TEST(Campaign, CacheDirCreationRaceIsTolerated) {
  // Two bench processes starting at once both try to create the cache
  // directory; neither may fail.  Hammer the helper from the worker pool
  // with the directory re-removed every round.
  const std::string dir = inject::campaign_cache_dir() + "/race_nest/deep";
  for (int round = 0; round < 20; ++round) {
    std::filesystem::remove_all(inject::campaign_cache_dir() + "/race_nest");
    std::atomic<int> failures{0};
    util::parallel_for(
        64,
        [&](std::size_t) {
          if (!util::ensure_dir(dir)) failures.fetch_add(1);
        },
        8);
    EXPECT_EQ(failures.load(), 0) << "round " << round;
    EXPECT_TRUE(std::filesystem::is_directory(dir));
  }
}

TEST(IssInject, AllLevelsRunAndDiffer) {
  const auto prog = bench("mcf");  // store-heavy: exercises varW/regW
  const std::size_t n = 300;
  const auto regu =
      inject::run_iss_campaign(prog, inject::InjectLevel::kRegUniform, n, 5);
  const auto regw =
      inject::run_iss_campaign(prog, inject::InjectLevel::kRegWrite, n, 5);
  const auto varu =
      inject::run_iss_campaign(prog, inject::InjectLevel::kVarUniform, n, 5);
  const auto varw =
      inject::run_iss_campaign(prog, inject::InjectLevel::kVarWrite, n, 5);
  for (const auto* c : {&regu, &regw, &varu, &varw}) {
    EXPECT_EQ(c->total(), n);
  }
  // Register-write-targeted injection corrupts more often than uniform
  // register injection (uniform mostly hits dead registers) -- the
  // [Cho 13] effect that distorts published improvement numbers.
  EXPECT_GT(regw.omm + regw.due(), regu.omm + regu.due());
  // Variable-level injections must corrupt as well (different model, no
  // fixed ordering between the two variable flavours).
  EXPECT_GT(varw.omm + varw.due(), 0u);
  EXPECT_GT(varu.omm + varu.due(), 0u);
}

TEST(IssInject, Deterministic) {
  const auto prog = bench("parser");
  const auto a =
      inject::run_iss_campaign(prog, inject::InjectLevel::kRegUniform, 200, 9);
  const auto b =
      inject::run_iss_campaign(prog, inject::InjectLevel::kRegUniform, 200, 9);
  EXPECT_EQ(a.omm, b.omm);
  EXPECT_EQ(a.ut, b.ut);
  EXPECT_EQ(a.hang, b.hang);
}

}  // namespace
