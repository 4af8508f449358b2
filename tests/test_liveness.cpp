// FF liveness and the two builds of each core model (arch/liveness.h):
//   * traced/untraced twins: BasicReg<true> and BasicReg<false> builds of
//     one core, stepped in lockstep on the same program, config and
//     injection plan, hold identical state images at every boundary (the
//     traced build records liveness for the untraced one, so they must
//     never drift apart),
//   * dead-state scrambling: at every golden checkpoint, every FF slot
//     that is not live there is set to a random value; the run restored
//     from that state must still end exactly like golden.  This is the
//     soundness claim the liveness-masked convergence compare rests on.
//   * sink scrambling: every sink slot (FFFlags::sink) is set to a random
//     value at every cycle of a golden run, which must still end exactly
//     like golden: sinks feed nothing but other sinks.
//   * live-set pins: golden recordings (every OoO workload, both OoO
//     monitor runs, InO gcc) reproduce a pinned live-slot count and hash,
//     so a core change cannot widen or narrow what the traced build logs
//     unnoticed.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/core.h"
#include "arch/liveness.h"
#include "core/variants.h"
#include "plan/runplan.h"
#include "util/hash.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace clear::arch {

// Test-side view of a rollback ring (a friend of RollbackRing).
struct RingAccess {
  // Bytes the ring pins, entry payloads counted once per reference.
  static std::size_t bytes(const RollbackRing& r) {
    std::size_t n = r.pending_writes_.size() * 8;
    for (const auto& e : r.ring_) {
      n += sizeof(RollbackRing::Entry) + e->ff.size() * 8 +
           e->regs.size() * 4 + e->writes.size() * 8;
    }
    return n;
  }
};

}  // namespace clear::arch

namespace {

using namespace clear;

// Boundaries a finished recording holds: at(b) answers for b below it.
std::size_t boundaries(const arch::FFLiveness& l) {
  std::size_t b = 0;
  while (l.at(b) != nullptr) ++b;
  return b;
}

// Whether FF-pool slot `slot` is live at recorded boundary `b`.
bool live_at(const arch::FFLiveness& l, std::size_t b, std::size_t slot) {
  return ((l.at(b)[slot / 64] >> (slot % 64)) & 1U) != 0;
}

constexpr std::uint64_t kBudget = 1u << 20;

// Snapshots both cores (which flushes their bookkeeping into the arena)
// and requires identical serialized state.
void expect_same_image(arch::Core& a, arch::Core& b, std::uint64_t cycle) {
  arch::CoreCheckpoint ca, cb;
  a.snapshot(&ca);
  b.snapshot(&cb);
  const auto va = a.state_view();
  const auto vb = b.state_view();
  ASSERT_EQ(va.ff_words, vb.ff_words);
  ASSERT_EQ(va.arena_words, vb.arena_words);
  EXPECT_TRUE(std::equal(va.ff, va.ff + va.ff_words, vb.ff))
      << "FF pool differs at cycle " << cycle;
  EXPECT_TRUE(std::equal(va.arena, va.arena + va.arena_words, vb.arena))
      << "arena differs at cycle " << cycle;
  EXPECT_EQ(ca.layout_fp, cb.layout_fp);
  EXPECT_EQ(ca.cycle, cb.cycle);
  EXPECT_EQ(ca.output_spill, cb.output_spill);
  ASSERT_EQ(ca.dets.size(), cb.dets.size()) << "at cycle " << cycle;
  for (std::size_t i = 0; i < ca.dets.size(); ++i) {
    EXPECT_EQ(ca.dets[i].due, cb.dets[i].due);
    EXPECT_EQ(ca.dets[i].flip_cycle, cb.dets[i].flip_cycle);
    EXPECT_EQ(ca.dets[i].src, cb.dets[i].src);
    EXPECT_EQ(ca.dets[i].ff, cb.dets[i].ff);
  }
  EXPECT_EQ(arch::RingAccess::bytes(ca.ring),
            arch::RingAccess::bytes(cb.ring));
  EXPECT_EQ(ca.shadow.present, cb.shadow.present);
  EXPECT_EQ(ca.shadow.output, cb.shadow.output);
  EXPECT_EQ(ca.shadow.mem_delta, cb.shadow.mem_delta);
  // Checkpoints of the two builds are interchangeable: the monitor shadow
  // is compared here too.
  EXPECT_TRUE(b.state_matches(ca)) << "at cycle " << cycle;
}

enum class Config { kPlain, kEdsIr, kParityFlush, kMonitorRob };

arch::ResilienceConfig make_config(Config c, const arch::FFRegistry& reg) {
  arch::ResilienceConfig cfg;
  switch (c) {
    case Config::kPlain:
      break;
    case Config::kEdsIr:
      cfg.prot.assign(reg.ff_count(), arch::FFProt::kEds);
      cfg.recovery = arch::RecoveryKind::kIr;
      break;
    case Config::kParityFlush: {
      cfg.prot.assign(reg.ff_count(), arch::FFProt::kParity);
      cfg.parity_group.assign(reg.ff_count(), -1);
      for (std::uint32_t ff = 0; ff < reg.ff_count(); ++ff) {
        cfg.parity_group[ff] = static_cast<std::int32_t>(ff / 16);
      }
      cfg.recovery = arch::RecoveryKind::kFlush;
      break;
    }
    case Config::kMonitorRob:
      cfg.monitor = true;
      cfg.recovery = arch::RecoveryKind::kRob;
      break;
  }
  return cfg;
}

struct TwinCase {
  const char* core;
  const char* bench;
  Config config;
};

class TracedTwin : public ::testing::TestWithParam<TwinCase> {};

TEST_P(TracedTwin, LockstepImagesAreIdentical) {
  const TwinCase& c = GetParam();
  const auto prog = core::build_variant_program(c.bench, core::Variant::base());
  auto plain = arch::make_core(c.core);
  auto traced = arch::make_traced_core(c.core);
  const arch::ResilienceConfig cfg = make_config(c.config, plain->registry());
  const auto golden = plain->run(prog, &cfg, nullptr, kBudget);
  ASSERT_EQ(golden.status, isa::RunStatus::kHalted);
  const std::uint64_t interval = std::max<std::uint64_t>(1, golden.cycles / 40);
  const std::uint32_t ffs = plain->registry().ff_count();
  // No flip, then flips that reach detection/recovery paths under every
  // config (spread over the FF index space and the run).
  std::vector<arch::InjectionPlan> plans(1);
  for (std::uint32_t k = 1; k <= 6; ++k) {
    plans.push_back(arch::InjectionPlan::single(golden.cycles * k / 8,
                                                (ffs / 7) * k + k));
  }
  std::uint32_t recoveries = 0;
  for (std::size_t p = 0; p < plans.size(); ++p) {
    SCOPED_TRACE("plan " + std::to_string(p));
    plain->begin(prog, &cfg, &plans[p]);
    traced->begin(prog, &cfg, &plans[p]);
    expect_same_image(*plain, *traced, 0);
    for (;;) {
      const bool a = plain->step_to(plain->cycle() + interval, 2 * kBudget);
      const bool b = traced->step_to(traced->cycle() + interval, 2 * kBudget);
      ASSERT_EQ(a, b) << "builds stopped apart at cycle " << plain->cycle();
      expect_same_image(*plain, *traced, plain->cycle());
      if (!a) break;
    }
    const auto ra = plain->current_result();
    const auto rb = traced->current_result();
    EXPECT_EQ(ra.status, rb.status);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.output, rb.output);
    EXPECT_EQ(ra.recoveries, rb.recoveries);
    recoveries += ra.recoveries;
  }
  // EDS flags every flip, so IR rollbacks ran in lockstep too.
  if (c.config == Config::kEdsIr) {
    EXPECT_GT(recoveries, 0u);
  }
}

// Every config on mcf for both cores, then every OoO workload plain and
// under the monitor with RoB recovery: each OoO stage path (store
// forwarding and partial-overlap stalls, the mul/div units, jalr with
// the BTB and RAS, the monitor's repair) runs in lockstep somewhere.
std::vector<TwinCase> twin_cases() {
  std::vector<TwinCase> cases;
  for (const char* core : {"InO", "OoO"}) {
    for (Config c : {Config::kPlain, Config::kEdsIr, Config::kParityFlush,
                     Config::kMonitorRob}) {
      cases.push_back({core, "mcf", c});
    }
  }
  static const std::vector<std::string> ooo =
      workloads::benchmarks_for_core("OoO");
  for (const std::string& b : ooo) {
    if (b == "mcf") continue;
    for (Config c : {Config::kPlain, Config::kMonitorRob}) {
      cases.push_back({"OoO", b.c_str(), c});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Cores, TracedTwin, ::testing::ValuesIn(twin_cases()));

struct ScrambleCase {
  const char* core;
  const char* bench;
  const char* variant;
  bool monitor_rob;
};

class DeadStateScramble : public ::testing::TestWithParam<ScrambleCase> {};

TEST_P(DeadStateScramble, RunEndsLikeGolden) {
  const ScrambleCase& c = GetParam();
  const auto prog =
      core::build_variant_program(c.bench, plan::parse_variant(c.variant));
  arch::ResilienceConfig monitor_rob;
  monitor_rob.monitor = true;
  monitor_rob.recovery = arch::RecoveryKind::kRob;
  const arch::ResilienceConfig* cfg = c.monitor_rob ? &monitor_rob : nullptr;
  auto core = arch::make_core(c.core);
  const auto golden = core->run(prog, cfg, nullptr, kBudget);
  ASSERT_EQ(golden.status, isa::RunStatus::kHalted);

  // Golden recording, as the campaign engine does it.
  const std::uint64_t interval = std::max<std::uint64_t>(1, golden.cycles / 97);
  auto traced = arch::make_traced_core(c.core);
  traced->begin(prog, cfg, nullptr);
  arch::FFLiveness live;
  live.start(*traced);
  std::vector<arch::CoreCheckpoint> cps(1);
  traced->snapshot(&cps.back());
  while (traced->step_to(traced->cycle() + interval, kBudget)) {
    live.end_interval(*traced);
    cps.emplace_back();
    traced->snapshot(&cps.back());
  }
  live.end_interval(*traced);
  live.finish();
  ASSERT_EQ(boundaries(live), cps.size());

  core->begin(prog, cfg, nullptr);
  const auto& structures = core->registry().structures();
  std::size_t changed = 0;
  for (std::uint64_t seed : {1u, 2u}) {
    util::Rng rng(seed);
    for (std::size_t b = 0; b < cps.size(); ++b) {
      core->restore(cps[b], nullptr);
      const auto view = core->state_view();
      for (const auto& s : structures) {
        if (live_at(live, b, s.slot)) continue;
        const std::uint64_t mask =
            s.width == 64 ? ~0ULL : (std::uint64_t{1} << s.width) - 1;
        const std::uint64_t v = rng.next() & mask;
        changed += v != view.ff[s.slot] ? 1 : 0;
        view.ff[s.slot] = v;
      }
      // The masked compare ignores exactly what was scrambled.
      EXPECT_TRUE(core->state_matches(cps[b], live.at(b)));
      core->step_to(kBudget, kBudget);
      const auto r = core->current_result();
      ASSERT_EQ(r.status, golden.status) << "boundary " << b;
      ASSERT_EQ(r.output, golden.output) << "boundary " << b;
      ASSERT_EQ(r.cycles, golden.cycles) << "boundary " << b;
      ASSERT_EQ(r.recoveries, golden.recoveries) << "boundary " << b;
      ASSERT_EQ(r.instrs, golden.instrs) << "boundary " << b;
    }
  }
  // Not vacuous: dead state exists at (almost) every boundary.
  EXPECT_GT(changed, 2 * cps.size());
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, DeadStateScramble,
    ::testing::Values(ScrambleCase{"InO", "gcc", "base", false},
                      ScrambleCase{"InO", "fft1d", "eddi", false},
                      ScrambleCase{"OoO", "mcf", "base", false},
                      ScrambleCase{"OoO", "gcc", "base", true}));

class SinkScramble : public ::testing::TestWithParam<ScrambleCase> {};

TEST_P(SinkScramble, RunEndsLikeGolden) {
  const ScrambleCase& c = GetParam();
  const auto prog =
      core::build_variant_program(c.bench, plan::parse_variant(c.variant));
  arch::ResilienceConfig monitor_rob;
  monitor_rob.monitor = true;
  monitor_rob.recovery = arch::RecoveryKind::kRob;
  const arch::ResilienceConfig* cfg = c.monitor_rob ? &monitor_rob : nullptr;
  auto core = arch::make_core(c.core);
  const auto golden = core->run(prog, cfg, nullptr, kBudget);
  ASSERT_EQ(golden.status, isa::RunStatus::kHalted);

  std::vector<arch::FFStructure> sinks;
  for (const auto& s : core->registry().structures()) {
    if (s.flags.sink) sinks.push_back(s);
  }
  ASSERT_FALSE(sinks.empty());
  core->begin(prog, cfg, nullptr);
  const auto view = core->state_view();
  util::Rng rng(0x5EED);
  std::uint64_t changed = 0;
  do {
    for (const auto& s : sinks) {
      const std::uint64_t mask =
          s.width == 64 ? ~0ULL : (std::uint64_t{1} << s.width) - 1;
      const std::uint64_t v = rng.next() & mask;
      changed += v != view.ff[s.slot] ? 1 : 0;
      view.ff[s.slot] = v;
    }
  } while (core->step_to(core->cycle() + 1, 2 * golden.cycles + 1024));
  const auto r = core->current_result();
  EXPECT_EQ(r.status, golden.status);
  EXPECT_EQ(r.output, golden.output);
  EXPECT_EQ(r.cycles, golden.cycles);
  EXPECT_EQ(r.instrs, golden.instrs);
  EXPECT_EQ(r.recoveries, golden.recoveries);
  // Not vacuous: the sinks really held other values than the run left
  // in them, cycle after cycle.
  EXPECT_GT(changed, golden.cycles);
}

std::vector<ScrambleCase> sink_cases() {
  std::vector<ScrambleCase> cases;
  for (const auto& b : workloads::benchmark_list()) {
    for (const char* core : {"InO", "OoO"}) {
      cases.push_back({core, b.name.c_str(), "base", false});
    }
  }
  cases.push_back({"OoO", "gcc", "monitor", true});
  cases.push_back({"InO", "fft1d", "eddi", false});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Workloads, SinkScramble,
                         ::testing::ValuesIn(sink_cases()));

// The twin test compares state images, not access logs, so it cannot see
// a core that reads more or fewer FF slots.  These pins can: each is the
// total live-slot count and an FNV-1a hash over every boundary's live
// set of one golden recording, as the campaign engine makes it.
struct LiveSetCase {
  ScrambleCase run;
  std::uint64_t interval;
  std::size_t live_slots;
  std::uint64_t hash;
};

class LiveSetPin : public ::testing::TestWithParam<LiveSetCase> {};

TEST_P(LiveSetPin, RecordingMatchesPinnedLiveSets) {
  const LiveSetCase& c = GetParam();
  const auto prog = core::build_variant_program(
      c.run.bench, plan::parse_variant(c.run.variant));
  arch::ResilienceConfig monitor_rob;
  monitor_rob.monitor = true;
  monitor_rob.recovery = arch::RecoveryKind::kRob;
  auto traced = arch::make_traced_core(c.run.core);
  traced->begin(prog, c.run.monitor_rob ? &monitor_rob : nullptr, nullptr);
  arch::FFLiveness live;
  live.start(*traced);
  while (traced->step_to(traced->cycle() + c.interval, kBudget)) {
    live.end_interval(*traced);
  }
  live.end_interval(*traced);
  live.finish();
  ASSERT_EQ(traced->current_result().status, isa::RunStatus::kHalted);
  const std::size_t words = (traced->registry().pool().size() + 63) / 64;
  std::size_t live_slots = 0;
  std::uint64_t hash = util::fnv1a64(nullptr, 0);
  for (std::size_t b = 0; b < boundaries(live); ++b) {
    const std::uint64_t* set = live.at(b);
    for (std::size_t w = 0; w < words; ++w) {
      live_slots += static_cast<std::size_t>(__builtin_popcountll(set[w]));
    }
    hash = util::fnv1a64(set, words * sizeof(std::uint64_t), hash);
  }
  EXPECT_EQ(live_slots, c.live_slots);
  EXPECT_EQ(hash, c.hash);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, LiveSetPin,
    ::testing::Values(
        LiveSetCase{{"OoO", "mcf", "base", false}, 16, 25863,
                    0x1DADD5EE53F63717ULL},
        LiveSetCase{{"OoO", "gcc", "monitor", true}, 16, 5075,
                    0xC7B036685D067182ULL},
        LiveSetCase{{"InO", "gcc", "base", false}, 16, 2072,
                    0x8B88740467CF1B9CULL},
        LiveSetCase{{"OoO", "bzip2", "base", false}, 16, 7004,
                    0xA4EF09C80683C4C9ULL},
        LiveSetCase{{"OoO", "crafty", "base", false}, 16, 16224,
                    0x40941789C5AAB0F5ULL},
        LiveSetCase{{"OoO", "gzip", "base", false}, 16, 22257,
                    0xD9AFF795AAF237F8ULL},
        LiveSetCase{{"OoO", "parser", "base", false}, 16, 9623,
                    0x28FE9EACC2E46C0AULL},
        LiveSetCase{{"OoO", "gcc", "base", false}, 16, 4882,
                    0x083D3B24CEF42508ULL},
        LiveSetCase{{"OoO", "vortex", "base", false}, 16, 6010,
                    0xCEC65CF4D3D9045DULL},
        LiveSetCase{{"OoO", "gap", "base", false}, 16, 37667,
                    0xAE87A8D587505049ULL},
        LiveSetCase{{"OoO", "2d_convolution", "base", false}, 16, 73388,
                    0x941F7C4B91A1E398ULL},
        LiveSetCase{{"OoO", "inner_product", "base", false}, 16, 6293,
                    0x2BB3C32613FA3721ULL},
        LiveSetCase{{"OoO", "fft1d", "base", false}, 16, 6883,
                    0x95321E8377721FC0ULL},
        LiveSetCase{{"OoO", "mcf", "monitor", true}, 16, 27152,
                    0x8E64515612EB0227ULL}));

// Dead-at-flip queries watch slots mid-interval (FFLiveness::watch),
// taking their entries out of the access log.  The live sets must come
// out exactly as an unwatched recording's, and every answer must be the
// per-cycle liveness of a recording that drains after every cycle.
TEST(FFLiveness, WatchesKeepTheLiveSetsAndAnswerLikeAPerCycleRecording) {
  for (const char* core_name : {"InO", "OoO"}) {
    SCOPED_TRACE(core_name);
    const auto prog = core::build_variant_program(
        std::string(core_name) == "InO" ? "gcc" : "mcf",
        core::Variant::base());
    auto traced = arch::make_traced_core(core_name);
    const std::size_t slots = traced->registry().pool().size();
    std::vector<std::pair<std::size_t, std::uint64_t>> asked;
    // Steps one cycle at a time, closing an interval every `interval`
    // cycles and, when `watch`, watching four slots at every cycle.
    const auto record = [&](std::uint64_t interval, bool watch) {
      traced->begin(prog, nullptr, nullptr);
      arch::FFLiveness live;
      live.start(*traced);
      for (;;) {
        const std::uint64_t c = traced->cycle();
        for (int k = 0; watch && k < 4; ++k) {
          const std::size_t slot =
              (c * 37 + static_cast<std::uint64_t>(k) * 101) % slots;
          live.watch(*traced, slot);
          asked.emplace_back(slot, c);
        }
        if (!traced->step_to(c + 1, kBudget)) break;
        if (traced->cycle() % interval == 0) live.end_interval(*traced);
      }
      live.end_interval(*traced);
      live.finish();
      return live;
    };
    const arch::FFLiveness plain = record(16, false);
    const arch::FFLiveness per_cycle = record(1, false);
    const arch::FFLiveness watched = record(16, true);
    ASSERT_EQ(boundaries(watched), boundaries(plain));
    const std::size_t words = (slots + 63) / 64;
    for (std::size_t b = 0; b < boundaries(plain); ++b) {
      EXPECT_TRUE(std::equal(plain.at(b), plain.at(b) + words, watched.at(b)))
          << "live set " << b;
    }
    std::size_t dead = 0;
    for (const auto& [slot, cycle] : asked) {
      const bool want =
          !live_at(per_cycle, static_cast<std::size_t>(cycle), slot);
      EXPECT_EQ(watched.dead(slot, cycle), want)
          << "slot " << slot << " at cycle " << cycle;
      dead += want ? 1 : 0;
    }
    EXPECT_GT(dead, 0u);
    EXPECT_LT(dead, asked.size());
  }
}

TEST(FFLiveness, BackwardPassFollowsFirstAccess) {
  // Unrecorded boundaries compare every slot.
  arch::FFLiveness none;
  EXPECT_EQ(none.at(0), nullptr);
  // A real recording: some slots are dead somewhere, and nothing is
  // live past the last boundary.
  const auto prog = core::build_variant_program("mcf", core::Variant::base());
  auto traced = arch::make_traced_core("InO");
  traced->begin(prog, nullptr, nullptr);
  arch::FFLiveness live;
  live.start(*traced);
  std::size_t intervals = 1;
  while (traced->step_to(traced->cycle() + 200, kBudget)) {
    live.end_interval(*traced);
    ++intervals;
  }
  live.end_interval(*traced);
  live.finish();
  ASSERT_EQ(boundaries(live), intervals);
  EXPECT_EQ(live.at(intervals), nullptr);
  const std::size_t slots = traced->registry().pool().size();
  std::size_t dead = 0, live0 = 0;
  for (std::size_t s = 0; s < slots; ++s) {
    dead += live_at(live, intervals / 2, s) ? 0 : 1;
    live0 += live_at(live, 0, s) ? 1 : 0;
  }
  EXPECT_GT(dead, 0u);
  EXPECT_GT(live0, 0u);
  EXPECT_LT(live0, slots);
  // An untraced core logs nothing, so recording from one is refused
  // (every slot would read as dead).
  auto plain = arch::make_core("InO");
  plain->begin(prog, nullptr, nullptr);
  arch::FFLiveness blind;
  EXPECT_THROW(blind.start(*plain), std::logic_error);
}

}  // namespace
