// Injection-campaign engine tests: classification, determinism, caching,
// sharding, snapshot placement, batched submission, hardening suppression,
// detection/recovery plumbing, and high-level injection models.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>
#include <sstream>

#include "arch/core.h"
#include "core/variants.h"
#include "engine/engine.h"
#include "inject/cachepack.h"
#include "inject/campaign.h"
#include "inject/exec.h"
#include "inject/iss_inject.h"
#include "isa/assembler.h"
#include "obs/metrics.h"
#include "plan/runplan.h"
#include "util/bytes.h"
#include "util/fs.h"
#include "workloads/workloads.h"
#include "dead_at_flip_oracle.h"
#include "merge_lists.h"
#include "parallel_for.h"
#include "payload_decode_oracle.h"
#include "reference_campaign.h"
#include "scoped_env.h"

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
  inject::CampaignResult one;
  {
    const ScopedEnv one_thread("CLEAR_THREADS", "1");
    one = engine::run_campaign(spec);
  }
  const ScopedEnv eight_threads("CLEAR_THREADS", "8");
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
  // mcf at 900 samples, then mcf, gcc and parser at 120 samples and the
  // default seed.
  const struct {
    const char* name;
    std::size_t injections;
    std::uint64_t seed;
  } inputs[] = {{"mcf", 900, 5},
                {"mcf", 120, 1},
                {"gcc", 120, 1},
                {"parser", 120, 1}};
  for (const auto& in : inputs) {
    SCOPED_TRACE(in.name);
    const auto prog = bench(in.name);
    inject::CampaignSpec spec;
    spec.core_name = "InO";
    spec.program = &prog;
    spec.injections = in.injections;
    spec.seed = in.seed;
    expect_identical(testref::reference_campaign(spec),
                     engine::run_campaign(spec));
  }
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
  spec.cfg = &cfg;
  for (const std::uint64_t seed : {13, 1}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    spec.seed = seed;
    expect_identical(testref::reference_campaign(spec),
                     engine::run_campaign(spec));
  }
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

// Every campaign.fork.* counter (docs/OBSERVABILITY.md): the five ways a
// forked run ends, then the cycles of each.
constexpr std::size_t kForkEndings = 5;
constexpr std::array<const char*, 11> kForkCounters = {
    "campaign.fork.converged",        "campaign.fork.converged_shifted",
    "campaign.fork.hung",             "campaign.fork.ran_benign",
    "campaign.fork.ran_failing",      "campaign.fork.prefix_cycles",
    "campaign.fork.converged_cycles", "campaign.fork.converged_shifted_cycles",
    "campaign.fork.hung_cycles",      "campaign.fork.benign_cycles",
    "campaign.fork.failing_cycles"};

std::array<std::uint64_t, kForkCounters.size()> fork_counters() {
  std::array<std::uint64_t, kForkCounters.size()> v{};
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = obs::counter(kForkCounters[i]).value();
  }
  return v;
}

// The samples that end without a fork, then every sample: together with
// the five fork endings they add up to campaign.samples.
constexpr std::array<const char*, 3> kMaskedCounters = {
    "campaign.masked.dead_at_flip", "campaign.masked.suppressed",
    "campaign.samples"};

std::array<std::uint64_t, kMaskedCounters.size()> masked_counters() {
  std::array<std::uint64_t, kMaskedCounters.size()> v{};
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = obs::counter(kMaskedCounters[i]).value();
  }
  return v;
}

// How the forked runs of a campaign ended since construction.
class ForkEndings {
 public:
  enum Ending { kConverged, kShifted, kHung, kRanBenign, kRanFailing };
  ForkEndings() {
    obs::set_enabled(true);
    before_ = fork_counters();
  }
  [[nodiscard]] std::uint64_t operator[](Ending e) const {
    return fork_counters()[e] - before_[e];
  }
  [[nodiscard]] std::uint64_t forks() const {
    const auto now = fork_counters();
    std::uint64_t n = 0;
    for (std::size_t e = 0; e < kForkEndings; ++e) n += now[e] - before_[e];
    return n;
  }

 private:
  std::array<std::uint64_t, kForkCounters.size()> before_{};
};

// Config that hardens every flip-flop of a structure `exposed` rejects
// with LEAP-DICE, whose SER ratio (2e-4) suppresses almost every strike
// there, so nearly all forks hit the exposed structures.  LEAP-DICE does
// nothing inside the simulation: golden and every faulty run are the
// unprotected ones.
template <class Pred>
arch::ResilienceConfig expose_only(const arch::FFRegistry& reg, Pred exposed) {
  arch::ResilienceConfig cfg;
  cfg.prot.assign(reg.ff_count(), arch::FFProt::kLeapDice);
  for (const auto& s : reg.structures()) {
    if (!exposed(s)) continue;
    for (std::uint32_t b = 0; b < s.width; ++b) {
      cfg.prot[s.first_ff + b] = arch::FFProt::kNone;
    }
  }
  return cfg;
}

// Sink flip-flops (FFFlags::sink) drop out of every live set, so a flip
// in one -- the InO Y chain, window pointers, condition-code shadow, debug
// trace -- converges at the first boundary after it, in the same cycle.
// An unprotected sink is dead at flip and never forks, so the sinks here
// carry parity without a parity group: nothing detects their upsets, but
// a parity FF is never classified dead at flip, so every strike forks
// and must converge through the sink-masked compare.
TEST(Campaign, ForkedMatchesReferenceOnInOEddiSinkFlips) {
  const auto prog =
      core::build_variant_program("fft1d", plan::parse_variant("eddi"));
  auto core = arch::make_ino_core();
  arch::ResilienceConfig cfg = expose_only(
      core->registry(),
      [](const arch::FFStructure& s) { return s.flags.sink; });
  cfg.parity_group.assign(core->registry().ff_count(), -1);
  for (arch::FFProt& p : cfg.prot) {
    if (p == arch::FFProt::kNone) p = arch::FFProt::kParity;
  }
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = 0;  // one per FF
  spec.seed = 31;
  spec.cfg = &cfg;
  const ForkEndings endings;
  const auto forked = engine::run_campaign(spec);
  expect_identical(testref::reference_campaign(spec), forked);
  EXPECT_GT(endings[ForkEndings::kConverged], 150u);
  EXPECT_EQ(endings[ForkEndings::kConverged], endings.forks());
}

// OoO structures whose flips leave runs out of step or wedged: flips in
// the fetch PC and fetch buffer leave runs that execute golden's stream a
// few cycles off, and flips in the reorder buffer's valid/done bits and
// pointers leave runs that wedge and repeat one state until the watchdog.
bool shifts_or_wedges_ooo(const arch::FFStructure& s) {
  const std::string& n = s.name;
  const bool rob_control =
      n.rfind("rob.", 0) == 0 &&
      (n.rfind("rob.e", 0) != 0 || n.find(".valid") != std::string::npos ||
       n.find(".done") != std::string::npos);
  return rob_control || n == "RF0.PCreg" || n.rfind("F1.fb", 0) == 0;
}

TEST(Campaign, ForkedMatchesReferenceOnOoOShiftedAndHung) {
  const auto prog = bench("mcf");
  auto core = arch::make_ooo_core();
  const arch::ResilienceConfig cfg =
      expose_only(core->registry(), shifts_or_wedges_ooo);
  inject::CampaignSpec spec;
  spec.core_name = "OoO";
  spec.program = &prog;
  spec.injections = 0;  // one per FF
  spec.seed = 3;
  spec.cfg = &cfg;
  const ForkEndings endings;
  const auto forked = engine::run_campaign(spec);
  expect_identical(testref::reference_campaign(spec), forked);
  EXPECT_GT(endings[ForkEndings::kShifted], 0u);
  EXPECT_GT(endings[ForkEndings::kHung], 0u);
  EXPECT_LE(endings[ForkEndings::kHung], forked.totals.hang);
}

// Monitor core + RoB recovery: a flipped reorder-buffer result reaches
// the monitor at commit, which repairs the core from its own state and
// charges the 64-cycle RoB penalty.  The run then executes golden's stream
// that much later, so it can only stop early at a shifted match.  More
// recovered samples than benign runs simulated to the end means some
// recovered runs stopped early.
TEST(Campaign, ForkedMatchesReferenceOnOoOMonitorRecoversShifted) {
  const auto prog =
      core::build_variant_program("gcc", plan::parse_variant("monitor"));
  auto core = arch::make_ooo_core();
  arch::ResilienceConfig cfg =
      expose_only(core->registry(), [](const arch::FFStructure& s) {
        return s.name.rfind("rob.e", 0) == 0 &&
               s.name.find(".result") != std::string::npos;
      });
  cfg.monitor = true;
  cfg.recovery = arch::RecoveryKind::kRob;
  inject::CampaignSpec spec;
  spec.core_name = "OoO";
  spec.program = &prog;
  spec.injections = 0;  // one per FF
  spec.seed = 17;
  spec.cfg = &cfg;
  const ForkEndings endings;
  const auto forked = engine::run_campaign(spec);
  expect_identical(testref::reference_campaign(spec), forked);
  EXPECT_GT(forked.totals.recovered, endings[ForkEndings::kRanBenign]);
  EXPECT_GT(endings[ForkEndings::kShifted], 0u);
}

// InO recoveries: flush refetches from the committed PC, IR rolls back to
// the cycle before the flip and charges 47 cycles.  Either way the run
// re-joins golden's stream late, which only a shifted compare sees (and,
// as above, recovered samples must outnumber benign runs to the end).
TEST(Campaign, ForkedMatchesReferenceOnInORecoveriesConvergeShifted) {
  const auto prog = bench("gcc");
  auto core = arch::make_ino_core();
  const auto& reg = core->registry();
  // Parity + flush on the flushable FFs, the rest suppressed.
  arch::ResilienceConfig flush = expose_only(
      reg, [](const arch::FFStructure& s) { return s.flags.flushable; });
  flush.parity_group.assign(reg.ff_count(), -1);
  std::int32_t group = 0;
  for (std::uint32_t ff = 0; ff < reg.ff_count(); ++ff) {
    if (flush.prot[ff] != arch::FFProt::kNone) continue;
    flush.prot[ff] = arch::FFProt::kParity;
    flush.parity_group[ff] = group++ / 16;
  }
  flush.recovery = arch::RecoveryKind::kFlush;
  // EDS + IR on every FF.
  arch::ResilienceConfig ir;
  ir.prot.assign(reg.ff_count(), arch::FFProt::kEds);
  ir.recovery = arch::RecoveryKind::kIr;
  for (const arch::ResilienceConfig* cfg : {&flush, &ir}) {
    SCOPED_TRACE(cfg == &flush ? "parity+flush" : "EDS+IR");
    inject::CampaignSpec spec;
    spec.core_name = "InO";
    spec.program = &prog;
    spec.injections = 600;
    spec.seed = 23;
    spec.cfg = cfg;
    const ForkEndings endings;
    const auto forked = engine::run_campaign(spec);
    expect_identical(testref::reference_campaign(spec), forked);
    EXPECT_GT(forked.totals.recovered, endings[ForkEndings::kRanBenign]);
    EXPECT_GT(endings[ForkEndings::kShifted], 0u);
  }
}

// Dead at flip (tests/dead_at_flip_oracle.h) with parity + flush on the
// flushable FFs and the rest unprotected: no parity FF is classified
// dead, and a campaign ends exactly the classified samples without a
// fork.
TEST(Campaign, DeadAtFlipSparesParityFFsOnInOParityFlush) {
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
  spec.injections = 2 * reg.ff_count();
  spec.seed = 29;
  spec.cfg = &cfg;
  const testref::DeadAtFlipCounts n = testref::check_dead_at_flip(spec);
  EXPECT_GT(n.dead, 0u);
  EXPECT_GT(n.protected_strikes, 0u);
  obs::set_enabled(true);
  const auto before = masked_counters();
  (void)engine::run_campaign(spec);
  const auto after = masked_counters();
  EXPECT_EQ(after[0] - before[0], n.dead);
}

// An adaptive shard classifies its pilot, which every shard simulates,
// and its owned samples below the budget.
TEST(Campaign, DeadAtFlipCoversTheAdaptivePilotAndTail) {
  const auto prog = bench("gcc");
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  // 34 samples per FF: a pilot of 32 (inject/adaptive.h), then a tail.
  const std::uint32_t ffs = arch::make_ino_core()->registry().ff_count();
  spec.injections = 34 * ffs;
  spec.seed = 9;
  spec.confidence_half_width = 0.3;
  spec.shard_index = 1;
  spec.shard_count = 2;
  const std::vector<std::uint64_t> dead =
      inject::detail::dead_at_flip_samples(spec);
  const std::uint64_t pilot_span = 32 * ffs;
  ASSERT_FALSE(dead.empty());
  EXPECT_LT(dead.front(), pilot_span);
  EXPECT_GE(dead.back(), pilot_span);
  EXPECT_GT(testref::check_dead_at_flip(spec).dead, 0u);
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

// ---- cache payload decoder -------------------------------------------------

inject::CampaignResult synth_result(bool adaptive) {
  inject::CampaignResult r;
  r.ff_count = 3;
  r.nominal_cycles = 123456789012ULL;
  r.nominal_instrs = 98765;
  r.per_ff = {{0, 1, 2, 3, 4, 5}, {4294967295u, 0, 7, 0, 9, 0}, {}};
  for (const auto& c : r.per_ff) r.totals.merge(c);
  if (adaptive) {
    r.confidence_target = 0.1;  // not a short decimal: the bits must survive
    r.confidence_method = util::IntervalMethod::kClopperPearson;
    r.pilot = 7;
    r.planned = {12, 0, 18446744073709551615ULL};
  }
  return r;
}

void expect_same_payload_result(const inject::CampaignResult& a,
                                const inject::CampaignResult& b) {
  expect_identical(a, b);
  EXPECT_EQ(a.ff_count, b.ff_count);
  EXPECT_EQ(util::f64_bits(a.confidence_target),
            util::f64_bits(b.confidence_target));
  EXPECT_EQ(a.confidence_method, b.confidence_method);
  EXPECT_EQ(a.pilot, b.pilot);
  EXPECT_EQ(a.planned, b.planned);
}

TEST(CacheDecoder, FixedAndAdaptiveResultsRoundTripExactly) {
  for (const bool adaptive : {false, true}) {
    const inject::CampaignResult r = synth_result(adaptive);
    const std::string text = inject::detail::serialize_result(42, r);
    inject::CampaignResult back;
    ASSERT_TRUE(inject::detail::parse_result(text, 42, 3, adaptive, &back))
        << text;
    expect_same_payload_result(r, back);
    EXPECT_EQ(inject::detail::serialize_result(42, back), text);
  }
}

TEST(CacheDecoder, MalformedPayloadsAreRefusedAndLeaveTheOutputUntouched) {
  const std::string fixed = inject::detail::serialize_result(
      42, synth_result(false));
  const std::string adaptive = inject::detail::serialize_result(
      42, synth_result(true));
  ASSERT_EQ(fixed.substr(fixed.find('\n') + 1, 12), "0 1 2 3 4 5\n");
  ASSERT_EQ(adaptive.substr(adaptive.size() - 21), "18446744073709551615\n");
  const auto replace_first_count = [&](const std::string& with) {
    std::string s = fixed;
    s.replace(fixed.find('\n') + 1, 1, with);
    return s;
  };
  const struct {
    const char* what;
    std::string payload;
    bool adaptive;
  } cases[] = {
      {"negative field", replace_first_count("-1"), false},
      {"uint32 overflow", replace_first_count("4294967296"), false},
      {"non-numeric token", replace_first_count("x"), false},
      {"digits run into a letter", replace_first_count("0a"), false},
      {"hex field", replace_first_count("0x1"), false},
      {"number cut off mid-digit", adaptive.substr(0, adaptive.size() - 3),
       true},
      {"last field unterminated", fixed.substr(0, fixed.size() - 1), false},
      {"unknown trailing tag", fixed + "extra 1\n", false},
      {"trailing token after the adaptive block", adaptive + "7\n", true},
      {"missing planned entries",
       adaptive.substr(0, adaptive.rfind('\n', adaptive.size() - 2) + 1),
       true},
      {"adaptive block where none is expected", adaptive, false},
      {"adaptive block missing", fixed, true},
      {"wrong fingerprint", "41" + fixed.substr(2), false},
      {"empty payload", "", false},
  };
  for (const auto& c : cases) {
    inject::CampaignResult out = synth_result(true);
    out.pilot = 99;
    EXPECT_FALSE(
        inject::detail::parse_result(c.payload, 42, 3, c.adaptive, &out))
        << c.what;
    EXPECT_EQ(out.pilot, 99u) << c.what << ": output was modified";
  }
  // The wrong flip-flop count is refused as well.
  inject::CampaignResult out;
  EXPECT_FALSE(inject::detail::parse_result(fixed, 42, 4, false, &out));
}

// A payload cut anywhere -- at every row boundary and inside every row --
// is refused and leaves the output untouched: the decoder appends rows as
// it reads them, so a short payload must never surface as a short result.
TEST(CacheDecoder, PayloadCutAtAnyByteIsRefused) {
  for (const bool adaptive : {false, true}) {
    const std::string text =
        inject::detail::serialize_result(42, synth_result(adaptive));
    std::size_t rows = 0;
    for (std::size_t cut = 0; cut < text.size(); ++cut) {
      rows += cut > 0 && text[cut - 1] == '\n';
      inject::CampaignResult out = synth_result(true);
      out.pilot = 99;
      EXPECT_FALSE(inject::detail::parse_result(text.substr(0, cut), 42, 3,
                                                adaptive, &out))
          << "adaptive " << adaptive << ", cut at " << cut;
      EXPECT_EQ(out.pilot, 99u) << "cut at " << cut << ": output modified";
      EXPECT_EQ(out.per_ff.size(), 3u) << "cut at " << cut;
    }
    EXPECT_EQ(rows, adaptive ? 7u : 3u);  // every row boundary but the end
  }
}

// The cache payload writer as it was first written, one ostream insertion
// per field: the oracle the one-pass writer must match byte for byte.
std::string oracle_serialize_result(std::uint64_t fp,
                                    const inject::CampaignResult& r) {
  std::ostringstream out;
  out << fp << ' ' << r.ff_count << ' ' << r.nominal_cycles << ' '
      << r.nominal_instrs << '\n';
  for (const auto& c : r.per_ff) {
    out << c.vanished << ' ' << c.omm << ' ' << c.ut << ' ' << c.hang << ' '
        << c.ed << ' ' << c.recovered << '\n';
  }
  if (r.adaptive()) {
    out << "adaptive " << static_cast<std::uint32_t>(r.confidence_method)
        << ' ' << util::f64_bits(r.confidence_target) << ' ' << r.pilot
        << '\n';
    for (const std::uint64_t n : r.planned) out << n << '\n';
  }
  return out.str();
}

// A random counter: mostly zero, as in a shard's result, sometimes small,
// sometimes the extremes of the field.
std::uint32_t random_count(std::mt19937_64& rng) {
  switch (rng() % 8) {
    case 0: return 4294967295u;
    case 1: return static_cast<std::uint32_t>(rng());
    case 2:
    case 3: return static_cast<std::uint32_t>(rng() % 1000);
    default: return 0;
  }
}

std::uint64_t random_u64(std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0: return 18446744073709551615ULL;
    case 1: return rng() % 100;
    case 2: return 0;
    default: return rng();
  }
}

TEST(CacheDecoder, OnePassWriterMatchesTheStreamOracleOnRandomResults) {
  std::mt19937_64 rng(20261018);
  for (int trial = 0; trial < 300; ++trial) {
    const bool adaptive = trial % 2 == 1;
    inject::CampaignResult r;
    r.ff_count = 1 + static_cast<std::uint32_t>(rng() % 200);
    r.nominal_cycles = random_u64(rng);
    r.nominal_instrs = random_u64(rng);
    r.per_ff.resize(r.ff_count);
    const int shape = trial % 6;  // 0: all rows zero, 1: all rows at max
    for (auto& c : r.per_ff) {
      if (shape == 0) continue;
      if (shape == 1) {
        c = {4294967295u, 4294967295u, 4294967295u, 4294967295u,
             4294967295u, 4294967295u};
        continue;
      }
      c = {random_count(rng), random_count(rng), random_count(rng),
           random_count(rng), random_count(rng), random_count(rng)};
    }
    for (const auto& c : r.per_ff) r.totals.merge(c);
    if (adaptive) {
      r.confidence_target = std::ldexp(static_cast<double>(rng() % 1000 + 1),
                                       -11);  // (0, 0.5]
      r.confidence_method = rng() % 2 ? util::IntervalMethod::kWilson
                                      : util::IntervalMethod::kClopperPearson;
      r.pilot = random_u64(rng);
      r.planned.resize(r.ff_count);
      for (std::uint64_t& n : r.planned) {
        n = shape == 1 ? 18446744073709551615ULL : random_u64(rng);
      }
    }
    const std::uint64_t fp = trial == 0 ? 18446744073709551615ULL : rng();
    const std::string text = inject::detail::serialize_result(fp, r);
    ASSERT_EQ(text, oracle_serialize_result(fp, r)) << "trial " << trial;
    inject::CampaignResult back;
    ASSERT_EQ(inject::detail::parse_result(text, fp, r.ff_count, adaptive,
                                           &back),
              r.nominal_cycles != 0)  // a zero-length golden never caches
        << "trial " << trial;
  }
}

// A random result whose rows mix the forms the decoder reads in one step
// (six single-digit counts) with rows that need the strict reader.
inject::CampaignResult random_mixed_result(std::mt19937_64& rng,
                                           std::uint32_t ffs, bool adaptive) {
  inject::CampaignResult r;
  r.ff_count = ffs;
  r.nominal_cycles = 1 + rng() % 1000000;
  r.nominal_instrs = random_u64(rng);
  r.per_ff.resize(ffs);
  for (auto& c : r.per_ff) {
    const auto digit = [&] { return static_cast<std::uint32_t>(rng() % 10); };
    switch (rng() % 4) {
      case 0: break;  // all zero
      case 1:
      case 2: c = {digit(), digit(), digit(), digit(), digit(), digit()}; break;
      default:
        c = {random_count(rng), random_count(rng), random_count(rng),
             random_count(rng), random_count(rng), random_count(rng)};
    }
    r.totals.merge(c);
  }
  if (adaptive) {
    r.confidence_target = std::ldexp(static_cast<double>(rng() % 1000 + 1),
                                     -11);  // (0, 0.5]
    r.confidence_method = util::IntervalMethod::kWilson;
    r.pilot = rng() % 10;
    r.planned.resize(ffs);
    for (std::uint64_t& n : r.planned) n = rng() % 3 ? rng() % 10 : rng();
  }
  return r;
}

// The one-step row decode against the strict per-number reader
// (tests/payload_decode_oracle.h): random payloads, each mutated the ways
// a row can leave the one-step form, and cut at every byte.  Every case
// gets the oracle's verdict, and on acceptance its result.
TEST(CacheDecoder, OneStepRowsDecodeAsTheStrictReaderDoes) {
  std::mt19937_64 rng(20261019);
  std::size_t accepted = 0;
  std::size_t refused = 0;
  const auto check = [&](const std::string& payload, std::uint64_t fp,
                         std::uint32_t ffs, bool adaptive,
                         const std::string& what) {
    inject::CampaignResult want;
    const bool ok =
        testref::strict_parse_result(payload, fp, ffs, adaptive, &want);
    inject::CampaignResult got = synth_result(true);
    got.pilot = 99;
    ASSERT_EQ(inject::detail::parse_result(payload, fp, ffs, adaptive, &got),
              ok)
        << what << ":\n" << payload;
    if (ok) {
      expect_same_payload_result(got, want);
      ++accepted;
    } else {
      EXPECT_EQ(got.pilot, 99u) << what << ": output was modified";
      ++refused;
    }
  };
  // Byte offsets of the per-FF rows' digits and separators: the rows run
  // from the second line to the adaptive block (or the end).
  const auto row_bytes = [](const std::string& text, bool adaptive) {
    const std::size_t from = text.find('\n') + 1;
    const std::size_t to = adaptive ? text.find("adaptive") : text.size();
    return std::make_pair(from, to);
  };
  for (int trial = 0; trial < 400; ++trial) {
    const bool adaptive = trial % 2 == 1;
    const auto ffs = static_cast<std::uint32_t>(1 + rng() % 40);
    const std::uint64_t fp = rng();
    const std::string text = inject::detail::serialize_result(
        fp, random_mixed_result(rng, ffs, adaptive));
    const std::string what = "trial " + std::to_string(trial);
    check(text, fp, ffs, adaptive, what + " as written");
    const auto [from, to] = row_bytes(text, adaptive);
    const auto pick = [&, from = from, to = to](auto pred) {
      std::vector<std::size_t> at;
      for (std::size_t i = from; i < to; ++i) {
        if (pred(text[i])) at.push_back(i);
      }
      return at.empty() ? std::string::npos : at[rng() % at.size()];
    };
    const auto is_digit = [](char c) { return c >= '0' && c <= '9'; };
    for (int m = 0; m < 8; ++m) {
      std::string t = text;
      const std::size_t digit = pick(is_digit);
      const std::size_t space = pick([](char c) { return c == ' '; });
      std::string how;
      switch (m) {
        case 0: t.insert(digit, "+"); how = "plus sign"; break;
        case 1: t.insert(digit, "-"); how = "minus sign"; break;
        case 2:
          if (space == std::string::npos) continue;
          t[space] = '\t';
          how = "tab separator";
          break;
        case 3:
          if (space == std::string::npos) continue;
          t[space] = '\r';
          how = "CR separator";
          break;
        case 4: t[digit] = 'a'; how = "digit replaced by a letter"; break;
        case 5: t.pop_back(); how = "no trailing newline"; break;
        case 6: t.insert(digit, "7"); how = "an extra digit"; break;
        default:
          if (space == std::string::npos) continue;
          t.erase(space, 1);
          how = "a separator dropped";
      }
      check(t, fp, ffs, adaptive, what + ", " + how);
    }
    if (trial % 20 < 2) {  // cut at every byte, fixed and adaptive
      for (std::size_t cut = 0; cut < text.size(); ++cut) {
        check(text.substr(0, cut), fp, ffs, adaptive,
              what + ", cut at " + std::to_string(cut));
      }
    }
  }
  EXPECT_GT(accepted, 400u);
  EXPECT_GT(refused, 2000u);
}

// The decoder's refusals reach the executor: each malformed payload,
// planted under the campaign's real fingerprint, makes the campaign
// re-simulate and rewrite the entry with the good payload.
TEST(Campaign, MalformedCachePayloadsReSimulate) {
  const auto prog = bench("parser");
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = 200;
  spec.confidence_half_width = 0.3;
  spec.key = "test/parser/malformed_payload";
  std::filesystem::remove_all(inject::campaign_cache_dir());
  const auto fresh = engine::run_campaign(spec);
  ASSERT_TRUE(fresh.adaptive());

  // The pack holds exactly this campaign's record (docs/FORMATS.md).
  std::string pack;
  {
    std::ifstream in(std::filesystem::path(inject::campaign_cache_dir()) /
                         inject::CachePack::kPackName,
                     std::ios::binary);
    pack.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(pack.size(), 36u);
  std::uint32_t key_len = 0;
  std::uint32_t payload_len = 0;
  std::uint64_t fp = 0;
  std::memcpy(&key_len, pack.data() + 4, 4);
  std::memcpy(&payload_len, pack.data() + 8, 4);
  std::memcpy(&fp, pack.data() + 12, 8);
  ASSERT_EQ(pack.size(), 36u + key_len + payload_len);
  const std::string good = pack.substr(36 + key_len, payload_len);
  const std::size_t first_count = good.find('\n') + 1;

  std::string negative = good;
  negative.insert(first_count, "-");
  std::string overflow = good;
  overflow.replace(first_count, good.find(' ', first_count) - first_count,
                   "4294967296");
  std::string token = good;
  token.insert(first_count, "x");
  const std::string bad[] = {
      negative,
      overflow,
      token,
      good.substr(0, good.size() - 1),  // last number loses its terminator
      good + "extra 1\n",
      good.substr(0, good.rfind('\n', good.size() - 2) + 1),  // planned short
  };
  inject::CachePack& store =
      inject::CachePack::instance(inject::campaign_cache_dir());
  for (const std::string& payload : bad) {
    store.put(fp, "planted", payload);
    const auto again = engine::run_campaign(spec);
    expect_same_payload_result(fresh, again);
    std::string now;
    ASSERT_TRUE(store.get(fp, &now));
    EXPECT_EQ(now, good) << "the re-run must rewrite the entry";
  }
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
    const auto v = fork_counters();
    return std::accumulate(v.begin(), v.begin() + kForkEndings,
                           std::uint64_t{0});
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

// Once a shard places snapshots like the unsharded run, each sample forks
// from the same checkpoint and ends the same way wherever it runs, so the
// shards' fork counters add up to the unsharded run's -- the shifted
// matches and periodic hangs included.
TEST(Placement, ShardForkCountersAddUpToTheUnshardedRun) {
  const auto prog = bench("mcf");
  auto core = arch::make_ooo_core();
  const arch::ResilienceConfig cfg =
      expose_only(core->registry(), shifts_or_wedges_ooo);
  inject::CampaignSpec spec;
  spec.core_name = "OoO";
  spec.program = &prog;
  spec.injections = 2 * core->registry().ff_count();
  spec.seed = 5;
  spec.key = "";
  spec.cfg = &cfg;
  const auto before = fork_counters();
  const auto masked_before = masked_counters();
  const PlacementProbe whole;
  (void)engine::run_campaign(spec);
  const std::uint64_t whole_captures = whole.captures_per_golden();
  const auto mid = fork_counters();
  const auto masked_mid = masked_counters();
  // Shard 0 records the golden for both shards and shard 1 reuses it, so
  // one probe spans both.
  spec.shard_count = 2;
  const PlacementProbe shards;
  for (spec.shard_index = 0; spec.shard_index < 2; ++spec.shard_index) {
    (void)engine::run_campaign(spec);
  }
  EXPECT_EQ(shards.captures_per_golden(), whole_captures);
  const auto after = fork_counters();
  const auto masked_after = masked_counters();
  for (std::size_t i = 0; i < kForkCounters.size(); ++i) {
    EXPECT_EQ(after[i] - mid[i], mid[i] - before[i]) << kForkCounters[i];
  }
  for (std::size_t i = 0; i < kMaskedCounters.size(); ++i) {
    EXPECT_EQ(masked_after[i] - masked_mid[i], masked_mid[i] - masked_before[i])
        << kMaskedCounters[i];
  }
  // Every sample ends masked or in one of the five fork endings.
  std::uint64_t ended = masked_mid[0] - masked_before[0] + masked_mid[1] -
                        masked_before[1];
  for (std::size_t e = 0; e < kForkEndings; ++e) ended += mid[e] - before[e];
  EXPECT_EQ(ended, masked_mid[2] - masked_before[2]);
  EXPECT_EQ(masked_mid[2] - masked_before[2], spec.injections);
  EXPECT_GT(mid[1] - before[1], 0u) << "no shifted re-convergence";
  EXPECT_GT(mid[2] - before[2], 0u) << "no periodic hang";
  EXPECT_GT(masked_mid[0] - masked_before[0], 0u) << "nothing dead at flip";
  EXPECT_GT(masked_mid[1] - masked_before[1], 0u) << "nothing suppressed";
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
    const ScopedEnv threads("CLEAR_THREADS", (s % 2 == 0) ? "1" : "8");
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
  const ScopedEnv one_thread("CLEAR_THREADS", "1");
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
  const ScopedEnv one_thread("CLEAR_THREADS", "1");
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
  const ScopedEnv one_thread("CLEAR_THREADS", "1");
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
  const ScopedEnv one_thread("CLEAR_THREADS", "1");
  spec.cfg = &cfg;
  const auto whole = engine::run_campaign(spec);
  EXPECT_GT(whole.totals.vanished, 0u);  // ~75% suppressed at LHL SER
  expect_identical(whole, run_sharded(spec, 3));
}

// Golden recordings made and reused since construction.
class GoldenProbe {
 public:
  GoldenProbe() {
    obs::set_enabled(true);
    goldens_ = goldens();
    reused_ = reused();
  }
  [[nodiscard]] std::uint64_t recorded() const { return goldens() - goldens_; }
  [[nodiscard]] std::uint64_t reused_count() const {
    return reused() - reused_;
  }

 private:
  static std::uint64_t goldens() {
    return obs::counter("campaign.goldens").value();
  }
  static std::uint64_t reused() {
    return obs::counter("campaign.golden.reused").value();
  }
  std::uint64_t goldens_;
  std::uint64_t reused_;
};

// A process that runs every shard of a campaign (a fleet worker) records
// its golden once, for every shard's samples, and later shards reuse it.
// In any order, one at a time or batched, the shards merge to the
// unsharded campaign's bytes.
TEST(Sharding, ShardsOfOneProcessRecordTheGoldenOnce) {
  struct Case {
    const char* core;
    const char* bench;
    std::uint32_t per_ff;  // injections per FF
    double confidence;
  };
  // InO adaptive: a 32-ordinal pilot, then a tail.  OoO adaptive: the
  // whole budget is the pilot.
  const Case cases[] = {{"InO", "gcc", 2, 0.0},
                        {"InO", "gcc", 34, 0.3},
                        {"OoO", "mcf", 1, 0.0},
                        {"OoO", "mcf", 1, 0.3}};
  std::uint64_t seed = 1701;
  for (const Case& c : cases) {
    const auto prog = bench(c.bench);
    inject::CampaignSpec spec;
    spec.core_name = c.core;
    spec.program = &prog;
    spec.injections = c.per_ff * arch::core_ff_count(c.core);
    spec.seed = seed++;  // a campaign no other test records
    spec.confidence_half_width = c.confidence;
    const std::string what = std::string(c.core) + " conf " +
                             std::to_string(c.confidence);
    const auto whole = engine::run_campaign(spec);

    constexpr std::uint32_t kShards = 5;
    std::vector<std::uint32_t> order(kShards);
    std::iota(order.begin(), order.end(), 0u);
    std::shuffle(order.begin(), order.end(), std::mt19937(spec.seed));
    std::vector<inject::CampaignSpec> shards(kShards, spec);
    for (std::uint32_t k = 0; k < kShards; ++k) {
      shards[k].shard_index = k;
      shards[k].shard_count = kShards;
    }
    std::vector<inject::CampaignResult> parts(kShards);
    const GoldenProbe probe;
    // Two shards alone, then the rest as one batch.
    for (std::size_t i = 0; i < 2; ++i) {
      parts[order[i]] = engine::run_campaign(shards[order[i]]);
    }
    std::vector<inject::CampaignSpec> rest;
    for (std::size_t i = 2; i < kShards; ++i) rest.push_back(shards[order[i]]);
    const auto batch = engine::run_campaigns(rest);
    for (std::size_t i = 2; i < kShards; ++i) parts[order[i]] = batch[i - 2];
    EXPECT_EQ(probe.recorded(), 1u) << what;
    EXPECT_EQ(probe.reused_count(), kShards - 1) << what;
    const auto merged = inject::merge_campaign_results(parts);
    EXPECT_EQ(inject::detail::serialize_result(0, merged),
              inject::detail::serialize_result(0, whole))
        << what;
  }
}

// Shards of one campaign that share a batch, with no recording kept yet,
// fork from one recording: the first records it and the others take it,
// on one thread or several, and the shards still merge to the unsharded
// campaign's bytes.
TEST(Sharding, ShardsSharingABatchRecordTheGoldenOnce) {
  const auto prog = bench("gcc");
  for (const unsigned threads : {4u, 1u}) {
    inject::CampaignSpec spec;
    spec.core_name = "InO";
    spec.program = &prog;
    spec.injections = 4 * arch::core_ff_count("InO");
    spec.seed = 1801 + threads;  // a campaign no other test records
    const ScopedEnv thread_count("CLEAR_THREADS",
                                 std::to_string(threads).c_str());
    const auto whole = engine::run_campaign(spec);

    constexpr std::uint32_t kShards = 4;
    std::vector<inject::CampaignSpec> shards(kShards, spec);
    for (std::uint32_t k = 0; k < kShards; ++k) {
      shards[k].shard_index = k;
      shards[k].shard_count = kShards;
    }
    const GoldenProbe probe;
    const auto parts = engine::run_campaigns(shards);
    EXPECT_EQ(probe.recorded(), 1u) << threads;
    EXPECT_EQ(probe.reused_count(), kShards - 1) << threads;
    EXPECT_EQ(inject::detail::serialize_result(
                  0, inject::merge_campaign_results(parts)),
              inject::detail::serialize_result(0, whole))
        << threads;
  }
}

// The reused recording is keyed by everything the golden trajectory
// depends on: a campaign differing in any one of them records afresh.
TEST(Sharding, AnyIdentityChangeRecordsAFreshGolden) {
  const auto prog = bench("gcc");
  const auto eddi = core::build_variant_program(
      "gcc", plan::parse_variant("eddi"), 0);
  const std::uint32_t ffs = arch::core_ff_count("InO");
  arch::ResilienceConfig cfg;
  cfg.prot.assign(ffs, arch::FFProt::kNone);
  cfg.prot[0] = arch::FFProt::kLeapDice;
  inject::CampaignSpec base;
  base.core_name = "InO";
  base.program = &prog;
  base.injections = 0;  // one per FF of the core
  base.seed = 1801;
  base.shard_count = 4;
  const auto run_shard = [](inject::CampaignSpec spec, std::uint32_t k) {
    spec.shard_index = k;
    (void)engine::run_campaign(spec);
  };
  run_shard(base, 0);  // records every shard's queries, and keeps it
  run_shard(base, 1);  // reuses it
  {
    const GoldenProbe probe;
    run_shard(base, 2);
    EXPECT_EQ(probe.recorded(), 0u);
    EXPECT_EQ(probe.reused_count(), 1u);
  }
  std::vector<std::pair<std::string, inject::CampaignSpec>> changed;
  changed.emplace_back("seed", base);
  changed.back().second.seed += 1;
  changed.emplace_back("injections", base);
  changed.back().second.injections = ffs + 1;
  changed.emplace_back("cfg", base);
  changed.back().second.cfg = &cfg;
  changed.emplace_back("variant", base);
  changed.back().second.program = &eddi;
  changed.emplace_back("core", base);
  changed.back().second.core_name = "OoO";
  for (const auto& [field, spec] : changed) {
    const GoldenProbe probe;
    run_shard(spec, 2);
    EXPECT_EQ(probe.recorded(), 1u) << field;
    EXPECT_EQ(probe.reused_count(), 0u) << field;
  }
  // The campaign-wide recording is still kept.
  {
    const GoldenProbe probe;
    run_shard(base, 3);
    EXPECT_EQ(probe.reused_count(), 1u);
  }
  // An adaptive plan with the same budget asks the same campaign-wide
  // queries, so its shards reuse the recording and still merge to the
  // unsharded adaptive campaign.
  {
    inject::CampaignSpec adaptive = base;
    adaptive.confidence_half_width = 0.3;
    const GoldenProbe probe;
    std::vector<inject::CampaignResult> parts;
    for (std::uint32_t k = 0; k < adaptive.shard_count; ++k) {
      adaptive.shard_index = k;
      parts.push_back(engine::run_campaign(adaptive));
    }
    EXPECT_EQ(probe.recorded(), 0u);
    EXPECT_EQ(probe.reused_count(), adaptive.shard_count);
    adaptive.shard_index = 0;
    adaptive.shard_count = 1;
    expect_identical(engine::run_campaign(adaptive),
                     inject::merge_campaign_results(parts));
  }
  // Past the memo's bound of 8 campaigns the least recently used one is
  // forgotten: its next shard records again.
  for (std::uint64_t s = 1; s <= 8; ++s) {
    inject::CampaignSpec other = base;
    other.seed = base.seed + 100 + s;
    run_shard(other, 0);
  }
  const GoldenProbe probe;
  run_shard(base, 0);
  EXPECT_EQ(probe.recorded(), 1u);
  EXPECT_EQ(probe.reused_count(), 0u);
}

// Whether a shard makes the recording for every shard or reuses it,
// dead_at_flip_samples() names exactly the shard's own dead candidates.
TEST(Sharding, DeadAtFlipSamplesStayTheShardsOwnWhenTheGoldenIsShared) {
  const auto prog = bench("gcc");
  for (const double confidence : {0.0, 0.3}) {
    inject::CampaignSpec spec;
    spec.core_name = "InO";
    spec.program = &prog;
    spec.injections = (confidence > 0 ? 34 : 3) * arch::core_ff_count("InO");
    spec.seed = 1901;
    spec.confidence_half_width = confidence;
    spec.shard_count = 3;
    const GoldenProbe probe;
    for (spec.shard_index = 0; spec.shard_index < 3; ++spec.shard_index) {
      EXPECT_GT(testref::check_dead_at_flip(spec).dead, 0u)
          << "shard " << spec.shard_index << ", conf " << confidence;
    }
    EXPECT_EQ(probe.recorded(), 1u) << "conf " << confidence;
    EXPECT_EQ(probe.reused_count(), 2u) << "conf " << confidence;
  }
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
  std::filesystem::remove_all(inject::campaign_cache_dir());
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
  // However many campaigns it holds, a cache directory is one pack and
  // one index.
  std::vector<std::string> files;
  for (const auto& e :
       std::filesystem::directory_iterator(inject::campaign_cache_dir())) {
    files.push_back(e.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{inject::CachePack::kIndexName,
                                             inject::CachePack::kPackName}));
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
  // The table's outcome spellings.
  const auto outcome_name = [](inject::Outcome o) {
    switch (o) {
      case inject::Outcome::kVanished: return "Vanished";
      case inject::Outcome::kOmm: return "OMM";
      case inject::Outcome::kUt: return "UT";
      case inject::Outcome::kHang: return "Hang";
      case inject::Outcome::kEd: return "ED";
      case inject::Outcome::kRecovered: return "Recovered";
    }
    return "?";
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
    EXPECT_STREQ(outcome_name(inject::classify(faulty, golden)),
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
