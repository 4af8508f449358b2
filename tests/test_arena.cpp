// Flat state arena + COW snapshot machinery (arch/arena.h):
//   * snapshot/restore round-trip fuzzing -- flip arbitrary state bytes and
//     assert the exact convergence compare catches every forward-region
//     corruption (and ignores bookkeeping-only corruption),
//   * layout-fingerprint refusal of checkpoints taken under a different
//     core model, program or config (previously documented UB),
//   * COW segment aliasing hammered from the worker thread pool,
//   * dirty tracking: every tracked restore, capture and boundary compare
//     of forked runs checked against a full memcmp,
//   * per-component checkpoint size accounting (computed test-side),
//   * adaptive checkpoint density: campaign results are bit-identical at
//     any density, fixed interval, and against the legacy engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/arena.h"
#include "arch/core.h"
#include "arch/types.h"
#include "core/variants.h"
#include "engine/engine.h"
#include "inject/campaign.h"
#include "util/rng.h"
#include "util/threadpool.h"
#include "dead_at_flip_oracle.h"
#include "reference_campaign.h"
#include "scoped_env.h"

namespace clear::arch {

// Test-side view of the segment pool, a snapshot's COW segments and an
// arena's buffers (a friend of SegPool, ArenaSnapshot and StateArena).
struct ArenaAccess {
  // Segments waiting in the pool's free list.
  static std::size_t free_segments() {
    detail::SegPool& pool = detail::SegPool::instance();
    std::lock_guard<std::mutex> g(pool.m_);
    return pool.free_list_.size();
  }
  // Declared payload bytes of section `s` (no padding), in the order the
  // core laid its sections out.
  static std::size_t section_bytes(const StateArena& a, std::size_t s) {
    return a.secs_[s].elem_size * a.secs_[s].count;
  }
  static std::size_t segment_count(const ArenaSnapshot& a) {
    std::size_t n = 0;
    for (const ArenaSnapshot::Span& sp : a.spans_) n += sp.segs.size();
    return n;
  }
  // Segments physically shared by `a` and `b` (pointer-equal refs).
  static std::size_t segments_shared(const ArenaSnapshot& a,
                                     const ArenaSnapshot& b) {
    std::size_t shared = 0;
    const std::size_t ns = std::min(a.spans_.size(), b.spans_.size());
    for (std::size_t s = 0; s < ns; ++s) {
      const std::size_t n =
          std::min(a.spans_[s].segs.size(), b.spans_[s].segs.size());
      for (std::size_t i = 0; i < n; ++i) {
        if (a.spans_[s].segs[i].same(b.spans_[s].segs[i])) ++shared;
      }
    }
    return shared;
  }
  static const std::uint64_t* ff_base(const StateArena& a) {
    return a.ff_base_;
  }
  static const std::uint64_t* data(const StateArena& a) {
    return a.buf_.data();
  }
};

}  // namespace clear::arch

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
  // Reference snapshot of the same state taken by an independent core: it
  // shares no segment with this core's, so comparing against it reads
  // every byte.
  auto twin = arch::make_core(GetParam());
  twin->begin(prog, nullptr, nullptr);
  ASSERT_TRUE(twin->step_to(1024, kBudget));
  arch::CoreCheckpoint ref;
  twin->snapshot(&ref);
  ASSERT_EQ(arch::ArenaAccess::segments_shared(ref.state, cp.state),
            0u);
  EXPECT_TRUE(core->state_matches(ref));

  // Diverge, then restore: bit-exact round trip.
  ASSERT_TRUE(core->step_to(1500, kBudget));
  EXPECT_FALSE(core->state_matches(cp));
  EXPECT_FALSE(core->state_matches(ref));
  core->restore(cp, nullptr);
  EXPECT_TRUE(core->state_matches(cp));
  EXPECT_TRUE(core->state_matches(ref));
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
    EXPECT_FALSE(core->state_matches(ref)) << "flip at byte " << b;
    core->restore(cp, nullptr);
    EXPECT_TRUE(core->state_matches(cp));
    EXPECT_TRUE(core->state_matches(ref));
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

  // Reference continuation per checkpoint: a snapshot 64 cycles past it,
  // taken single-threaded by a run from cycle 0.  It shares no segment
  // with the trajectory, so comparing against it reads every byte.  The
  // restores and self-compares in between rest on "same segment pointer
  // => same bytes", now across threads.
  std::vector<arch::CoreCheckpoint> expect(chks.size());
  for (std::size_t i = 0; i < chks.size(); ++i) {
    auto c = arch::make_core("InO");
    c->begin(prog, nullptr, nullptr);
    c->step_to(chks[i].cycle + 64, kBudget);
    c->snapshot(&expect[i]);
    ASSERT_EQ(arch::ArenaAccess::segments_shared(expect[i].state,
                                                         chks[i].state),
              0u);
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
    if (!c->state_matches(expect[k])) failures.fetch_add(1);
    // Fork-local snapshot shares segments with the golden checkpoint and
    // dies with this task; the golden trajectory must stay intact.
    arch::CoreCheckpoint mine;
    c->snapshot(&mine);
    if (!c->state_matches(mine)) failures.fetch_add(1);
    c->restore(mine, nullptr);
    if (!c->state_matches(expect[k])) failures.fetch_add(1);
  });
  EXPECT_EQ(failures.load(), 0);

  // Trajectory unharmed: restoring each still reproduces its
  // continuation.
  for (std::size_t i = 0; i < chks.size(); ++i) {
    auto c = arch::make_core("InO");
    c->begin(prog, nullptr, nullptr);
    c->restore(chks[i], nullptr);
    c->step_to(c->cycle() + 64, kBudget);
    EXPECT_TRUE(c->state_matches(expect[i]));
  }
}

TEST(ArenaCow, SegmentsReturnToPoolAndShare) {
  const auto prog = core::build_variant_program("mcf", core::Variant::base());
  auto core = arch::make_core("InO");
  using Access = arch::ArenaAccess;
  // One round: two checkpoints of one run, then begin(), which drops the
  // core's internal COW reference to the last capture.  A first round
  // leaves the pool holding every segment a round takes; the second must
  // take them from the free list and put every one of them back.
  std::size_t free0 = 0;
  for (int round = 0; round < 2; ++round) {
    core->begin(prog, nullptr, nullptr);
    ASSERT_TRUE(core->step_to(512, kBudget));
    free0 = Access::free_segments();
    {
      arch::CoreCheckpoint a, b;
      core->snapshot(&a);
      ASSERT_TRUE(core->step_to(768, kBudget));
      core->snapshot(&b);
      EXPECT_EQ(Access::segment_count(a.state),
                Access::segment_count(b.state));
      // Consecutive checkpoints of one run share unchanged segments...
      EXPECT_GT(Access::segments_shared(b.state, a.state), 0u);
      // ...but not all of them: the run wrote registers and memory.
      EXPECT_LT(Access::segments_shared(b.state, a.state),
                Access::segment_count(b.state));
      if (round == 1) {
        EXPECT_LT(Access::free_segments(), free0);
      }
    }
    core->begin(prog, nullptr, nullptr);
  }
  EXPECT_EQ(Access::free_segments(), free0);
}

// What each part of a checkpoint costs, from public state and the arena's
// section table: the sections in core_shell.h's layout order (fwd
// scalars, regs, mem, then the OoO SRAM arrays, OUT, aux).
TEST(ArenaSizes, BreakdownMatchesConfiguration) {
  const auto prog = core::build_variant_program("mcf", core::Variant::base());
  using Access = arch::ArenaAccess;
  // A MachineDelta's bytes: its fixed fields, OUT and the differing words.
  const auto shadow_bytes = [](const isa::MachineDelta& d) -> std::size_t {
    if (!d.present) return 0;
    return sizeof(d) + d.output.size() * 4 + d.mem_delta.size() * 8;
  };

  auto ino = arch::make_core("InO");
  ino->begin(prog, nullptr, nullptr);
  ASSERT_TRUE(ino->step_to(512, kBudget));
  arch::CoreCheckpoint cp;
  ino->snapshot(&cp);
  const arch::StateArena& ia = ino->arena();
  EXPECT_GT(ia.ff_words() * 8, 0u);
  EXPECT_EQ(Access::section_bytes(ia, 1), 32u * 4u);  // regs
  EXPECT_EQ(Access::section_bytes(ia, 2), prog.mem_bytes);
  EXPECT_GT(Access::section_bytes(ia, 3) + cp.output_spill.size() * 4, 0u);
  EXPECT_EQ(shadow_bytes(cp.shadow), 0u);

  arch::ResilienceConfig mon;
  mon.monitor = true;
  auto ooo = arch::make_core("OoO");
  ooo->begin(prog, &mon, nullptr);
  ASSERT_TRUE(ooo->step_to(512, kBudget));
  arch::CoreCheckpoint mcp;
  ooo->snapshot(&mcp);
  const arch::StateArena& oa = ooo->arena();
  // gshare PHT + L1D tags
  EXPECT_GT(Access::section_bytes(oa, 3) + Access::section_bytes(oa, 4), 0u);
  EXPECT_GT(shadow_bytes(mcp.shadow), 0u);  // delta-encoded monitor checker
  EXPECT_TRUE(mcp.shadow.present);
  // The delta is the point: orders of magnitude below a Machine deep copy
  // (32 KiB memory image + output stream).
  EXPECT_LT(shadow_bytes(mcp.shadow), prog.mem_bytes / 4);

  ooo->begin(prog, nullptr, nullptr);
  ASSERT_TRUE(ooo->step_to(512, kBudget));
  ooo->snapshot(&mcp);
  EXPECT_EQ(shadow_bytes(mcp.shadow), 0u);
  EXPECT_FALSE(mcp.shadow.present);
}

// ---- tracked restore and compare against the full memcmp -----------------
//
// The arena restores and compares only the segments a run wrote since its
// last snapshot/restore, plus those its reference snapshot does not share
// with the target (arch/arena.h).  A write that skipped its dirty mark
// would go unseen by both.  These cases drive forked runs the way the
// campaign does -- restore a golden checkpoint under an injection plan,
// step boundary to boundary, compare against the same-cycle and the
// neighbouring (shifted) checkpoints, snapshot mid-run as the hang probe
// does, then fork the next run -- and check every tracked result against
// a full memcmp read through Core::arena(), which leaves the dirty bits
// alone.

struct TrackedCase {
  const char* name;
  const char* core;
  const char* bench;
  bool eddi;
  bool monitor;
  bool dfc;
  arch::RecoveryKind recovery;
  arch::FFProt prot;  // applied to every FF unless kNone
  // Half the samples strike the FF structures named `strike_prefix`*
  // `strike_suffix` (nullptr: all samples draw from every FF).
  const char* strike_prefix;
  const char* strike_suffix;
};

void PrintTo(const TrackedCase& tc, std::ostream* os) { *os << tc.name; }

constexpr auto kNoRec = arch::RecoveryKind::kNone;
constexpr auto kNoProt = arch::FFProt::kNone;

// The five perfbench `campaign` stanzas, then the write sites they rarely
// reach:
//   * the InO flush-drain counter, which only flush recovery sets;
//   * the monitor's shadow store, when its checker repairs a store whose
//     data a flip corrupted in the store queue (2,000 gcc samples striking
//     the store queue never reached it; mcf's do);
//   * the rollback ring's memory undo across a capture.  EDS and parity
//     detect in the flip's cycle; DFC only at the block's signature check,
//     so an EIR rollback after a flip of a committed instruction word can
//     undo stores made before a capture.
const TrackedCase kTrackedCases[] = {
    {"InO_gcc", "InO", "gcc", false, false, false, kNoRec, kNoProt, nullptr,
     nullptr},
    {"InO_fft1d_eddi", "InO", "fft1d", true, false, false, kNoRec, kNoProt,
     nullptr, nullptr},
    {"InO_mcf", "InO", "mcf", false, false, false, kNoRec, kNoProt, nullptr,
     nullptr},
    {"OoO_mcf", "OoO", "mcf", false, false, false, kNoRec, kNoProt, nullptr,
     nullptr},
    {"OoO_gcc_monitor_rob", "OoO", "gcc", false, true, false,
     arch::RecoveryKind::kRob, kNoProt, nullptr, nullptr},
    {"OoO_mcf_monitor_rob", "OoO", "mcf", false, true, false,
     arch::RecoveryKind::kRob, kNoProt, "mem.stq", ".data"},
    {"InO_mcf_eds_flush", "InO", "mcf", false, false, false,
     arch::RecoveryKind::kFlush, arch::FFProt::kEds, nullptr, nullptr},
    {"InO_mcf_dfc_eir", "InO", "mcf", false, false, true,
     arch::RecoveryKind::kEir, kNoProt, "", ".ctrl.inst"},
    {"OoO_mcf_dfc_eir", "OoO", "mcf", false, false, true,
     arch::RecoveryKind::kEir, kNoProt, "rob.e", ".inst"},
};

bool named(const std::string& s, const char* prefix, const char* suffix) {
  const std::string p(prefix), x(suffix);
  return s.size() >= p.size() + x.size() && s.compare(0, p.size(), p) == 0 &&
         s.compare(s.size() - x.size(), x.size(), x) == 0;
}

class TrackedArenaTest : public ::testing::TestWithParam<TrackedCase> {
 protected:
  // Full memcmp of the live FF pool and the first `arena_words` arena
  // words against `cp`.
  static bool full_equal(const arch::Core& c, const arch::CoreCheckpoint& cp,
                         std::size_t arena_words) {
    const arch::StateArena& a = c.arena();
    using Access = arch::ArenaAccess;
    return cp.state.matches_prefix(0, Access::ff_base(a), a.ff_words()) &&
           cp.state.matches_prefix(1, Access::data(a), arena_words);
  }
  // A restore or capture left the whole image equal to `cp`.
  void expect_image(const arch::Core& c, const arch::CoreCheckpoint& cp,
                    const char* what) {
    ++images_;
    EXPECT_TRUE(full_equal(c, cp, c.arena().total_words()))
        << what << " at cycle " << c.cycle();
  }
  // Snapshots the live state and checks the capture.
  void capture(arch::Core& c, arch::CoreCheckpoint* cp, const char* what) {
    c.snapshot(cp);
    expect_image(c, *cp, what);
  }
  // The tracked boundary compare agrees with the full one.
  void expect_compare(const arch::Core& c, const arch::CoreCheckpoint& cp) {
    const bool tracked = c.arena().matches_fwd(cp.state, nullptr);
    const bool full = full_equal(c, cp, c.arena().fwd_words());
    ++compares_;
    hits_ += full ? 1 : 0;
    EXPECT_EQ(tracked, full) << "compare at cycle " << c.cycle()
                             << " against checkpoint at " << cp.cycle;
    if (c.state_matches(cp)) {
      EXPECT_TRUE(full) << "state_matches at cycle " << c.cycle();
    }
  }

  std::uint64_t images_ = 0;
  std::uint64_t compares_ = 0;
  std::uint64_t hits_ = 0;
};

TEST_P(TrackedArenaTest, RestoreAndCompareMatchFullMemcmp) {
  const TrackedCase& tc = GetParam();
  core::Variant variant = core::Variant::base();
  variant.eddi = tc.eddi;
  variant.monitor = tc.monitor;
  variant.dfc = tc.dfc;
  const auto prog = core::build_variant_program(tc.bench, variant);
  auto core = arch::make_core(tc.core);
  arch::ResilienceConfig cfg;
  cfg.monitor = tc.monitor;
  cfg.dfc = tc.dfc;
  cfg.recovery = tc.recovery;
  if (tc.prot != kNoProt) {
    cfg.prot.assign(core->registry().ff_count(), tc.prot);
  }
  const bool any_cfg = tc.monitor || tc.dfc || tc.recovery != kNoRec;
  const arch::ResilienceConfig* cfgp = any_cfg ? &cfg : nullptr;
  const arch::CoreRunResult golden = core->run(prog, cfgp, nullptr, kBudget);
  ASSERT_EQ(golden.status, isa::RunStatus::kHalted);

  // Golden trajectory at the campaign's densest interval.
  constexpr std::uint64_t kInterval = 16;
  std::vector<arch::CoreCheckpoint> cps(1);
  core->begin(prog, cfgp, nullptr);
  core->snapshot(&cps.back());
  while (core->step_to(core->cycle() + kInterval, kBudget)) {
    cps.emplace_back();
    capture(*core, &cps.back(), "golden capture");
  }
  const std::size_t n = cps.size();
  ASSERT_GT(n, 8u);

  // Restore ladder: every golden checkpoint, in a seeded shuffled order,
  // into one core.
  util::Rng rng(0x7AC3ED);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n - 1; i > 0; --i) {
    std::swap(order[i], order[static_cast<std::size_t>(rng.below(i + 1))]);
  }
  for (const std::size_t k : order) {
    core->restore(cps[k], nullptr);
    expect_image(*core, cps[k], "ladder restore");
    expect_compare(*core, cps[k]);
    expect_compare(*core, cps[(k + 1) % n]);
  }

  // Forked faulty runs, one after another in the same core.
  std::vector<std::uint32_t> strike;
  for (const arch::FFStructure& st : core->registry().structures()) {
    if (tc.strike_prefix == nullptr ||
        !named(st.name, tc.strike_prefix, tc.strike_suffix)) {
      continue;
    }
    for (std::uint32_t k = 0; k < st.width; ++k) {
      strike.push_back(st.first_ff + k);
    }
  }
  ASSERT_EQ(strike.empty(), tc.strike_prefix == nullptr);
  const std::uint32_t ffs = core->registry().ff_count();
  const std::uint64_t watchdog = golden.cycles * 2 + 1024;
  constexpr int kSamples = 2000;
  constexpr int kMaxBoundaries = 12;
  for (int s = 0; s < kSamples; ++s) {
    const auto ff = !strike.empty() && s % 2 == 0
                        ? strike[static_cast<std::size_t>(
                              rng.below(strike.size()))]
                        : static_cast<std::uint32_t>(rng.below(ffs));
    const std::uint64_t inj = 1 + rng.below(golden.cycles - 1);
    const auto plan = arch::InjectionPlan::single(inj, ff);
    const std::size_t ci = std::min<std::size_t>(inj / kInterval, n - 1);
    core->restore(cps[ci], &plan);
    expect_image(*core, cps[ci], "fork restore");
    arch::CoreCheckpoint probe;
    bool probed = false;
    // Cycle by cycle through the first interval after the flip, capturing
    // every cycle: detections, recoveries and drain counters act there,
    // and a DFC recovery may roll back stores made before a capture.
    while (core->cycle() <= inj + kInterval &&
           core->step_to(core->cycle() + 1, watchdog)) {
      if (core->cycle() > inj) {
        capture(*core, &probe, "capture after the flip");
        probed = true;
      }
    }
    for (int b = 0; b < kMaxBoundaries; ++b) {
      const std::uint64_t boundary =
          (core->cycle() / kInterval + 1) * kInterval;
      if (!core->step_to(boundary, watchdog)) break;
      if (core->cycle() % kInterval != 0) continue;
      const auto bi = static_cast<std::size_t>(core->cycle() / kInterval);
      if (probed) expect_compare(*core, probe);
      if (bi < n) {
        expect_compare(*core, cps[bi]);
        if (bi > 0) expect_compare(*core, cps[bi - 1]);
        if (bi + 1 < n) expect_compare(*core, cps[bi + 1]);
        if (core->quiescent() && core->state_matches(cps[bi])) break;
      }
      if (rng.below(2) == 0) {
        // Mid-run capture, as the hang probe takes them: it re-bases the
        // tracking on a snapshot of a faulty state.
        capture(*core, &probe, "boundary capture");
        probed = true;
      }
    }
    // The run's last state, captured against whatever it last re-based
    // on, then back to the last capture and to the fork origin.
    arch::CoreCheckpoint last;
    capture(*core, &last, "final capture");
    if (probed) {
      expect_compare(*core, probe);
      core->restore(probe, nullptr);
      expect_image(*core, probe, "probe restore");
    }
    core->restore(cps[ci], nullptr);
    expect_image(*core, cps[ci], "return restore");
  }
  // The compares exercised both answers.
  EXPECT_GT(hits_, 0u);
  EXPECT_LT(hits_, compares_);
  EXPECT_GT(images_, static_cast<std::uint64_t>(3 * kSamples));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TrackedArenaTest, ::testing::ValuesIn(kTrackedCases),
    [](const ::testing::TestParamInfo<TrackedCase>& p) {
      return std::string(p.param.name);
    });

// Dead at flip on the same configurations (tests/dead_at_flip_oracle.h):
// the samples the executor ends without forking are exactly those a
// per-cycle recording finds dead, and each ends as golden when run from
// cycle 0.  One sample per FF; the OoO takes shard 3/8 of them.
class DeadAtFlipTest : public ::testing::TestWithParam<TrackedCase> {};

TEST_P(DeadAtFlipTest, MatchesPerCycleLivenessAndEndsAsGolden) {
  const TrackedCase& tc = GetParam();
  core::Variant variant = core::Variant::base();
  variant.eddi = tc.eddi;
  variant.monitor = tc.monitor;
  variant.dfc = tc.dfc;
  const auto prog = core::build_variant_program(tc.bench, variant);
  arch::ResilienceConfig cfg;
  cfg.monitor = tc.monitor;
  cfg.dfc = tc.dfc;
  cfg.recovery = tc.recovery;
  if (tc.prot != kNoProt) {
    cfg.prot.assign(arch::make_core(tc.core)->registry().ff_count(), tc.prot);
  }
  const bool any_cfg = tc.monitor || tc.dfc || tc.recovery != kNoRec;
  inject::CampaignSpec spec;
  spec.core_name = tc.core;
  spec.program = &prog;
  spec.cfg = any_cfg ? &cfg : nullptr;
  spec.injections = 0;  // one per FF
  spec.seed = 1;
  if (std::string(tc.core) == "OoO") {
    spec.shard_index = 3;
    spec.shard_count = 8;
  }
  const testref::DeadAtFlipCounts n = testref::check_dead_at_flip(spec);
  if (tc.prot == arch::FFProt::kEds) {
    // Every FF detects its upset: nothing is dead at flip.
    EXPECT_EQ(n.dead, 0u);
    EXPECT_GT(n.protected_strikes, 0u);
  } else {
    EXPECT_GT(n.dead, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DeadAtFlipTest, ::testing::ValuesIn(kTrackedCases),
    [](const ::testing::TestParamInfo<TrackedCase>& p) {
      return std::string(p.param.name);
    });

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
  const ScopedEnv two_threads("CLEAR_THREADS", "2");

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
