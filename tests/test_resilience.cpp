// Parity-grouping heuristic tests (Table 7 machinery) and end-to-end
// in-simulator validation of grouped parity protection.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>

#include "arch/core.h"
#include "isa/assembler.h"
#include "phys/phys.h"
#include "resilience/parity.h"
#include "workloads/workloads.h"

namespace {

using namespace clear;
using resilience::ParityHeuristic;

std::vector<std::uint32_t> all_ffs(const arch::Core& core) {
  std::vector<std::uint32_t> v(core.registry().ff_count());
  for (std::uint32_t f = 0; f < v.size(); ++f) v[f] = f;
  return v;
}

class EveryHeuristic : public ::testing::TestWithParam<ParityHeuristic> {};

TEST_P(EveryHeuristic, CoversEveryFFExactlyOnce) {
  auto core = arch::make_ino_core();
  phys::PhysModel model(*core);
  const auto ffs = all_ffs(*core);
  const auto plan =
      resilience::build_parity_plan(model, ffs, GetParam(), 16);
  std::set<std::uint32_t> seen;
  for (const auto& g : plan.groups) {
    for (const auto f : g.ffs) {
      EXPECT_TRUE(seen.insert(f).second) << "duplicate FF " << f;
    }
  }
  EXPECT_EQ(seen.size(), ffs.size());
}

TEST_P(EveryHeuristic, GroupSizesBounded) {
  auto core = arch::make_ino_core();
  phys::PhysModel model(*core);
  const auto plan =
      resilience::build_parity_plan(model, all_ffs(*core), GetParam(), 16);
  for (const auto& g : plan.groups) {
    EXPECT_GE(g.ffs.size(), 1u);
    EXPECT_LE(g.ffs.size(), 32u);
  }
}

INSTANTIATE_TEST_SUITE_P(Heuristics, EveryHeuristic,
                         ::testing::Values(ParityHeuristic::kGroupSize,
                                           ParityHeuristic::kVulnerability,
                                           ParityHeuristic::kLocality,
                                           ParityHeuristic::kTiming,
                                           ParityHeuristic::kOptimized));

TEST(ParityPlan, OptimizedRespectsSlack) {
  // Unpipelined groups must have slack for their XOR tree on every member.
  auto core = arch::make_ino_core();
  phys::PhysModel model(*core);
  const auto plan = resilience::build_parity_plan(
      model, all_ffs(*core), ParityHeuristic::kOptimized);
  for (const auto& g : plan.groups) {
    if (g.pipelined) continue;
    const double need = phys::PhysModel::xor_tree_delay_ps(g.ffs.size());
    for (const auto f : g.ffs) {
      EXPECT_GE(model.slack_ps(f), need);
    }
  }
}

TEST(ParityPlan, OptimizedUses32BitUnpipelinedAnd16BitPipelined) {
  auto core = arch::make_ino_core();
  phys::PhysModel model(*core);
  const auto plan = resilience::build_parity_plan(
      model, all_ffs(*core), ParityHeuristic::kOptimized);
  std::size_t unpiped32 = 0;
  std::size_t piped16 = 0;
  for (const auto& g : plan.groups) {
    if (!g.pipelined && g.ffs.size() == 32) ++unpiped32;
    if (g.pipelined && g.ffs.size() == 16) ++piped16;
  }
  EXPECT_GT(unpiped32, 5u);  // Fig. 3: both modes are exercised
  EXPECT_GT(piped16, 5u);
}

TEST(ParityPlan, TimingHeuristicReducesPipelining) {
  auto core = arch::make_ino_core();
  phys::PhysModel model(*core);
  const auto timing = resilience::build_parity_plan(
      model, all_ffs(*core), ParityHeuristic::kTiming, 16);
  const auto naive = resilience::build_parity_plan(
      model, all_ffs(*core), ParityHeuristic::kGroupSize, 16);
  auto piped = [](const phys::ParityPlan& p) {
    std::size_t n = 0;
    for (const auto& g : p.groups) n += g.pipelined;
    return n;
  };
  // Sorting by slack clusters slack-rich FFs into unpipelined groups.
  EXPECT_LE(piped(timing), piped(naive));
}

// The plan build_parity_plan had when it compared freshly built unit
// strings inside the sort: the identity oracle for the locality orders.
std::string oracle_unit(const arch::FFRegistry& reg, std::uint32_t ff) {
  const std::string& name = reg.structure_of(ff).name;
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

void oracle_sort_by_unit(const arch::FFRegistry& reg,
                         std::vector<std::uint32_t>& v) {
  std::stable_sort(v.begin(), v.end(), [&](std::uint32_t a, std::uint32_t b) {
    return oracle_unit(reg, a) < oracle_unit(reg, b);
  });
}

void oracle_chunk(const phys::PhysModel& model,
                  const std::vector<std::uint32_t>& order, std::size_t bits,
                  int pipelined, phys::ParityPlan* plan) {
  for (std::size_t i = 0; i < order.size(); i += bits) {
    phys::ParityGroup g;
    g.ffs.assign(order.begin() + static_cast<std::ptrdiff_t>(i),
                 order.begin() + static_cast<std::ptrdiff_t>(
                                     std::min(order.size(), i + bits)));
    g.pipelined = pipelined < 0 ? !model.group_fits_unpipelined(g.ffs)
                                : pipelined != 0;
    plan->groups.push_back(std::move(g));
  }
}

phys::ParityPlan oracle_plan(const arch::Core& core,
                             const phys::PhysModel& model,
                             std::vector<std::uint32_t> ffs,
                             ParityHeuristic h) {
  const auto& reg = core.registry();
  phys::ParityPlan plan;
  if (h == ParityHeuristic::kLocality) {
    oracle_sort_by_unit(reg, ffs);
    oracle_chunk(model, ffs, 16, -1, &plan);
    return plan;
  }
  const double need32 = phys::PhysModel::xor_tree_delay_ps(32);
  std::vector<std::uint32_t> fast;
  std::vector<std::uint32_t> slow;
  for (const std::uint32_t f : ffs) {
    (model.slack_ps(f) >= need32 ? fast : slow).push_back(f);
  }
  oracle_sort_by_unit(reg, fast);
  oracle_sort_by_unit(reg, slow);
  oracle_chunk(model, fast, 32, 0, &plan);
  oracle_chunk(model, slow, 16, 1, &plan);
  return plan;
}

void expect_same_plan(const phys::ParityPlan& got,
                      const phys::ParityPlan& want) {
  ASSERT_EQ(got.groups.size(), want.groups.size());
  for (std::size_t g = 0; g < got.groups.size(); ++g) {
    EXPECT_EQ(got.groups[g].ffs, want.groups[g].ffs) << "group " << g;
    EXPECT_EQ(got.groups[g].pipelined, want.groups[g].pipelined)
        << "group " << g;
  }
}

TEST(ParityPlan, LocalityOrdersMatchStringComparatorOracle) {
  for (const char* name : {"InO", "OoO"}) {
    const auto core = arch::make_core(name);
    phys::PhysModel model(*core);
    const auto ffs = all_ffs(*core);
    std::mt19937_64 rng(0xC1EA2u);
    for (const ParityHeuristic h :
         {ParityHeuristic::kOptimized, ParityHeuristic::kLocality}) {
      SCOPED_TRACE(std::string(name) +
                   (h == ParityHeuristic::kOptimized ? " optimized"
                                                     : " locality"));
      expect_same_plan(resilience::build_parity_plan(model, ffs, h),
                       oracle_plan(*core, model, ffs, h));
      // Seeded random subsets, shuffled so the stable sort sees ties out
      // of registration order.
      for (int trial = 0; trial < 8; ++trial) {
        std::vector<std::uint32_t> subset;
        for (const std::uint32_t f : ffs) {
          if (rng() % 3 == 0) subset.push_back(f);
        }
        std::shuffle(subset.begin(), subset.end(), rng);
        expect_same_plan(
            resilience::build_parity_plan(model, subset, h),
            oracle_plan(*core, model, subset, h));
      }
    }
  }
}

// The tabulated unit rank sorts FFs as the structure-name comparison does,
// on seeded random FF subsets of both cores.
TEST(ParityPlan, UnitRankSortEqualsUnitNameSort) {
  for (const char* name : {"InO", "OoO"}) {
    const auto core = arch::make_core(name);
    const phys::PhysModel model(*core);
    const auto& reg = core->registry();
    const auto ffs = all_ffs(*core);
    std::mt19937_64 rng(0x0A17u);
    for (int trial = 0; trial < 16; ++trial) {
      std::vector<std::uint32_t> subset;
      for (const std::uint32_t f : ffs) {
        if (rng() % 4 == 0) subset.push_back(f);
      }
      std::shuffle(subset.begin(), subset.end(), rng);
      std::vector<std::uint32_t> by_rank = subset;
      std::stable_sort(by_rank.begin(), by_rank.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return model.unit_rank(a) < model.unit_rank(b);
                       });
      oracle_sort_by_unit(reg, subset);
      EXPECT_EQ(by_rank, subset) << name << " trial " << trial;
    }
  }
}

TEST(ParityPlan, VulnerabilityHeuristicFrontloadsHotFFs) {
  auto core = arch::make_ino_core();
  phys::PhysModel model(*core);
  std::vector<double> vuln(core->registry().ff_count(), 0.0);
  for (std::size_t f = 0; f < vuln.size(); ++f) {
    vuln[f] = static_cast<double>(f % 97);
  }
  const auto plan = resilience::build_parity_plan(
      model, all_ffs(*core), ParityHeuristic::kVulnerability, 16,
      vuln);
  // First group holds the highest-vulnerability FFs.
  double min_first = 1e18;
  for (const auto f : plan.groups.front().ffs) {
    min_first = std::min(min_first, vuln[f]);
  }
  double max_last = -1;
  for (const auto f : plan.groups.back().ffs) {
    max_last = std::max(max_last, vuln[f]);
  }
  EXPECT_GE(min_first, max_last);
}

TEST(ParityPlan, SmallerGroupsCostMore) {
  // Table 7: 4-bit groups cost far more than 16-bit groups.
  auto core = arch::make_ino_core();
  phys::PhysModel model(*core);
  const auto p4 = resilience::build_parity_plan(
      model, all_ffs(*core), ParityHeuristic::kVulnerability, 4);
  const auto p16 = resilience::build_parity_plan(
      model, all_ffs(*core), ParityHeuristic::kVulnerability, 16);
  EXPECT_GT(model.parity_overhead(p4).power,
            model.parity_overhead(p16).power);
}

TEST(ParityPlan, InSimGroupedParityDetectsFlips) {
  // End-to-end: a parity plan mapped into a ResilienceConfig detects
  // injected flips on the core (unconstrained: run terminates as ED).
  auto core = arch::make_ino_core();
  phys::PhysModel model(*core);
  const auto prog = isa::assemble(workloads::build_benchmark("gcc"));
  const auto plan = resilience::build_parity_plan(
      model, all_ffs(*core), ParityHeuristic::kOptimized);
  arch::ResilienceConfig cfg;
  cfg.prot.assign(core->registry().ff_count(), arch::FFProt::kParity);
  cfg.parity_group.assign(core->registry().ff_count(), -1);
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    for (const auto f : plan.groups[g].ffs) {
      cfg.parity_group[f] = static_cast<std::int32_t>(g);
    }
  }
  const auto clean = core->run_clean(prog);
  int detected = 0;
  for (int t = 0; t < 50; ++t) {
    const auto plan1 = arch::InjectionPlan::single(
        1 + (static_cast<std::uint64_t>(t) * 131) % (clean.cycles - 1),
        (static_cast<std::uint32_t>(t) * 37) % core->registry().ff_count());
    const auto r = core->run(prog, &cfg, &plan1, clean.cycles * 2);
    detected += (r.status == isa::RunStatus::kDetected);
  }
  EXPECT_EQ(detected, 50);  // parity sees every single-bit upset
}

}  // namespace
