// Flat state arena + COW snapshot machinery (arch/arena.h):
//   * snapshot/restore round-trip fuzzing -- flip arbitrary state bytes and
//     assert the exact convergence compare catches every forward-region
//     corruption (and ignores bookkeeping-only corruption),
//   * layout-fingerprint refusal of checkpoints taken under a different
//     core model, program or config (previously documented UB),
//   * COW segment aliasing hammered from the worker thread pool,
//   * per-component checkpoint size accounting,
//   * adaptive checkpoint density: campaign results are bit-identical at
//     any density, fixed interval, and against the legacy engine.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <vector>

#include "arch/arena.h"
#include "arch/core.h"
#include "arch/types.h"
#include "core/variants.h"
#include "engine/engine.h"
#include "inject/campaign.h"
#include "util/rng.h"
#include "util/threadpool.h"
#include "reference_campaign.h"

namespace {

using namespace clear;

constexpr std::uint64_t kBudget = 1u << 20;

// Corruption fuzz: every byte flip inside the forward region must be seen
// by state_matches(); flips in the bookkeeping tail must not.
class ArenaFuzzTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ArenaFuzzTest, RoundTripCatchesForwardCorruption) {
  const auto prog = core::build_variant_program("mcf", core::Variant::base());
  auto core = arch::make_core(GetParam());
  core->begin(prog, nullptr, nullptr);
  ASSERT_TRUE(core->step_to(1024, kBudget));

  arch::CoreCheckpoint cp;
  core->snapshot(&cp);
  EXPECT_TRUE(core->state_matches(cp));
  const std::uint64_t h0 = core->state_hash();

  // Diverge, then restore: bit-exact round trip.
  ASSERT_TRUE(core->step_to(1500, kBudget));
  EXPECT_FALSE(core->state_matches(cp));
  core->restore(cp, nullptr);
  EXPECT_TRUE(core->state_matches(cp));
  EXPECT_EQ(core->state_hash(), h0);
  EXPECT_EQ(core->cycle(), cp.cycle);

  const arch::Core::StateView v = core->state_view();
  ASSERT_GT(v.ff_words, 0u);
  ASSERT_GT(v.fwd_words, 0u);
  ASSERT_GT(v.arena_words, v.fwd_words);

  util::Rng rng(0xF022);
  for (int i = 0; i < 200; ++i) {
    // Flip one random byte of the forward image (FF pool or arena prefix).
    const std::size_t fwd_bytes = (v.ff_words + v.fwd_words) * 8;
    const std::size_t b = static_cast<std::size_t>(rng.below(fwd_bytes));
    auto* bytes = b < v.ff_words * 8
                      ? reinterpret_cast<std::uint8_t*>(v.ff) + b
                      : reinterpret_cast<std::uint8_t*>(v.arena) +
                            (b - v.ff_words * 8);
    *bytes ^= 0xFF;
    EXPECT_FALSE(core->state_matches(cp)) << "flip at byte " << b;
    EXPECT_NE(core->state_hash(), h0);
    core->restore(cp, nullptr);
    EXPECT_TRUE(core->state_matches(cp));
    EXPECT_EQ(core->state_hash(), h0);
  }

  // Bookkeeping tail (cycle counters, outcome latches) is excluded from
  // the convergence compare by design.
  for (int i = 0; i < 32; ++i) {
    const std::size_t w = v.fwd_words +
                          static_cast<std::size_t>(
                              rng.below(v.arena_words - v.fwd_words));
    const std::uint64_t saved = v.arena[w];
    v.arena[w] ^= 0xFFu;
    EXPECT_TRUE(core->state_matches(cp));
    v.arena[w] = saved;
  }
}

INSTANTIATE_TEST_SUITE_P(Cores, ArenaFuzzTest, ::testing::Values("InO", "OoO"));

TEST(ArenaRefusal, WrongProgramConfigOrModelThrows) {
  const auto mcf = core::build_variant_program("mcf", core::Variant::base());
  const auto gcc = core::build_variant_program("gcc", core::Variant::base());

  auto core = arch::make_core("InO");
  core->begin(mcf, nullptr, nullptr);
  ASSERT_TRUE(core->step_to(256, kBudget));
  arch::CoreCheckpoint cp;
  core->snapshot(&cp);

  // Same (program, config): accepted.
  core->begin(mcf, nullptr, nullptr);
  EXPECT_NO_THROW(core->restore(cp, nullptr));

  // Different program: refused, and the live run is left untouched.
  core->begin(gcc, nullptr, nullptr);
  ASSERT_TRUE(core->step_to(64, kBudget));
  EXPECT_THROW(core->restore(cp, nullptr), std::logic_error);
  EXPECT_EQ(core->cycle(), 64u);

  // Different resilience config: refused.
  arch::ResilienceConfig dfc_cfg;
  dfc_cfg.dfc = true;
  core->begin(mcf, &dfc_cfg, nullptr);
  EXPECT_THROW(core->restore(cp, nullptr), std::logic_error);

  // Different core model: refused.
  auto ooo = arch::make_core("OoO");
  ooo->begin(mcf, nullptr, nullptr);
  EXPECT_THROW(ooo->restore(cp, nullptr), std::logic_error);
}

// Immutable snapshots alias segments freely across threads: a golden
// trajectory is restored, advanced, re-snapshotted and dropped by many
// workers at once while the originals stay live and bit-exact.
TEST(ArenaCow, AliasingUnderThreadPool) {
  const auto prog = core::build_variant_program("mcf", core::Variant::base());
  auto golden = arch::make_core("InO");
  golden->begin(prog, nullptr, nullptr);
  std::vector<arch::CoreCheckpoint> chks;
  chks.emplace_back();
  golden->snapshot(&chks.back());
  while (golden->step_to(golden->cycle() + 256, kBudget)) {
    chks.emplace_back();
    golden->snapshot(&chks.back());
  }
  ASSERT_GT(chks.size(), 4u);

  // Reference continuation hash per checkpoint, computed single-threaded.
  std::vector<std::uint64_t> expect(chks.size());
  for (std::size_t i = 0; i < chks.size(); ++i) {
    auto c = arch::make_core("InO");
    c->begin(prog, nullptr, nullptr);
    c->restore(chks[i], nullptr);
    c->step_to(c->cycle() + 64, kBudget);
    expect[i] = c->state_hash();
  }

  // gtest assertions are not thread-safe; count mismatches instead.
  std::atomic<int> failures{0};
  const std::size_t tasks = 4 * chks.size();
  util::ThreadPool::instance().run(tasks, 8, [&](std::size_t t, unsigned) {
    auto c = arch::make_core("InO");
    c->begin(prog, nullptr, nullptr);
    const std::size_t k = t % chks.size();
    c->restore(chks[k], nullptr);
    if (!c->state_matches(chks[k])) failures.fetch_add(1);
    c->step_to(c->cycle() + 64, kBudget);
    if (c->state_hash() != expect[k]) failures.fetch_add(1);
    // Fork-local snapshot shares segments with the golden checkpoint and
    // dies with this task; the golden trajectory must stay intact.
    arch::CoreCheckpoint mine;
    c->snapshot(&mine);
    if (!c->state_matches(mine)) failures.fetch_add(1);
    c->restore(mine, nullptr);
    if (c->state_hash() != expect[k]) failures.fetch_add(1);
  });
  EXPECT_EQ(failures.load(), 0);

  // Trajectory unharmed: restoring each still reproduces its hash.
  for (std::size_t i = 0; i < chks.size(); ++i) {
    auto c = arch::make_core("InO");
    c->begin(prog, nullptr, nullptr);
    c->restore(chks[i], nullptr);
    c->step_to(c->cycle() + 64, kBudget);
    EXPECT_EQ(c->state_hash(), expect[i]);
  }
}

TEST(ArenaCow, SegmentsReturnToPoolAndShare) {
  const auto prog = core::build_variant_program("mcf", core::Variant::base());
  auto core = arch::make_core("InO");
  core->begin(prog, nullptr, nullptr);
  ASSERT_TRUE(core->step_to(512, kBudget));

  const std::size_t live0 = arch::detail::SegPool::instance().live();
  {
    arch::CoreCheckpoint a, b;
    core->snapshot(&a);
    ASSERT_TRUE(core->step_to(768, kBudget));
    core->snapshot(&b);
    EXPECT_EQ(a.state.segment_count(), b.state.segment_count());
    // Consecutive checkpoints of one run share unchanged segments...
    EXPECT_GT(b.state.segments_shared_with(a.state), 0u);
    // ...but not all of them: the run wrote registers and memory.
    EXPECT_LT(b.state.segments_shared_with(a.state),
              b.state.segment_count());
    EXPECT_GT(arch::detail::SegPool::instance().live(), live0);
  }
  // The snapshots are gone, but the core's internal COW reference still
  // pins the last capture; begin() drops it.  After that every segment
  // must be back in the pool.
  core->begin(prog, nullptr, nullptr);
  EXPECT_EQ(arch::detail::SegPool::instance().live(), live0);
}

TEST(ArenaSizes, BreakdownMatchesConfiguration) {
  const auto prog = core::build_variant_program("mcf", core::Variant::base());

  auto ino = arch::make_core("InO");
  ino->begin(prog, nullptr, nullptr);
  ASSERT_TRUE(ino->step_to(512, kBudget));
  arch::CoreCheckpoint cp;
  ino->snapshot(&cp);
  EXPECT_EQ(cp.size_bytes(), cp.sizes.total());
  EXPECT_GT(cp.sizes.ff, 0u);
  EXPECT_EQ(cp.sizes.regs, 32u * 4u);
  EXPECT_EQ(cp.sizes.mem, prog.mem_bytes);
  EXPECT_GT(cp.sizes.output, 0u);
  EXPECT_EQ(cp.sizes.shadow, 0u);

  arch::ResilienceConfig mon;
  mon.monitor = true;
  auto ooo = arch::make_core("OoO");
  ooo->begin(prog, &mon, nullptr);
  ASSERT_TRUE(ooo->step_to(512, kBudget));
  arch::CoreCheckpoint mcp;
  ooo->snapshot(&mcp);
  EXPECT_GT(mcp.sizes.sram, 0u);     // gshare PHT + L1D tags
  EXPECT_GT(mcp.sizes.shadow, 0u);   // delta-encoded monitor checker
  EXPECT_TRUE(mcp.shadow.present);
  // The delta is the point: orders of magnitude below a Machine deep copy
  // (32 KiB memory image + output stream).
  EXPECT_LT(mcp.sizes.shadow, prog.mem_bytes / 4);

  ooo->begin(prog, nullptr, nullptr);
  ASSERT_TRUE(ooo->step_to(512, kBudget));
  ooo->snapshot(&mcp);
  EXPECT_EQ(mcp.sizes.shadow, 0u);
  EXPECT_FALSE(mcp.shadow.present);
}

// The derived snapshot placement moves work around but never changes what
// is simulated: the forked engine matches the from-cycle-0 reference.  EDS
// + IR recovery charges latency that can carry a faulty run past a
// checkpoint boundary, so the overshoot path (no convergence check off a
// boundary) runs too.
TEST(DerivedPlacement, ResultsMatchReferenceWithBoundaryOvershoot) {
  const auto prog = core::build_variant_program("mcf", core::Variant::base());
  arch::ResilienceConfig cfg;
  cfg.prot.assign(arch::make_core("InO")->registry().ff_count(),
                  arch::FFProt::kEds);
  cfg.recovery = arch::RecoveryKind::kIr;
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.cfg = &cfg;
  spec.injections = 200;
  spec.key = "";  // no caching
  spec.threads = 2;

  const auto forked = engine::run_campaign(spec);
  const auto ref = testref::reference_campaign(spec);
  EXPECT_GT(forked.totals.recovered, 0u);
  ASSERT_EQ(forked.per_ff.size(), ref.per_ff.size());
  EXPECT_EQ(forked.nominal_cycles, ref.nominal_cycles);
  for (std::size_t i = 0; i < ref.per_ff.size(); ++i) {
    const auto& x = forked.per_ff[i];
    const auto& y = ref.per_ff[i];
    EXPECT_TRUE(x.vanished == y.vanished && x.omm == y.omm && x.ut == y.ut &&
                x.hang == y.hang && x.ed == y.ed && x.recovered == y.recovered)
        << "ff " << i;
  }
}

}  // namespace
