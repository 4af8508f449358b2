#include "resilience/parity.h"

#include <algorithm>
#include <utility>

namespace clear::resilience {

namespace {

// Stable sort by functional unit: PhysModel::unit_rank orders units as
// comparing their names does.
void sort_by_unit(const phys::PhysModel& model,
                  std::vector<std::uint32_t>& ffs) {
  std::stable_sort(ffs.begin(), ffs.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return model.unit_rank(a) < model.unit_rank(b);
                   });
}

phys::ParityPlan chunk_into_groups(const phys::PhysModel& model,
                                   const std::vector<std::uint32_t>& order,
                                   std::size_t group_bits) {
  phys::ParityPlan plan;
  for (std::size_t i = 0; i < order.size(); i += group_bits) {
    phys::ParityGroup g;
    const std::size_t end = std::min(order.size(), i + group_bits);
    g.ffs.assign(order.begin() + static_cast<std::ptrdiff_t>(i),
                 order.begin() + static_cast<std::ptrdiff_t>(end));
    g.pipelined = !model.group_fits_unpipelined(g.ffs);
    plan.groups.push_back(std::move(g));
  }
  return plan;
}

}  // namespace

phys::ParityPlan build_parity_plan(const phys::PhysModel& model,
                                   const std::vector<std::uint32_t>& ffs,
                                   ParityHeuristic heuristic,
                                   std::size_t group_bits,
                                   const std::vector<double>& vulnerability) {
  std::vector<std::uint32_t> order = ffs;
  switch (heuristic) {
    case ParityHeuristic::kGroupSize:
      // registration order as-is
      break;
    case ParityHeuristic::kVulnerability:
      std::stable_sort(order.begin(), order.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         const double va =
                             a < vulnerability.size() ? vulnerability[a] : 0;
                         const double vb =
                             b < vulnerability.size() ? vulnerability[b] : 0;
                         return va > vb;
                       });
      break;
    case ParityHeuristic::kLocality:
      sort_by_unit(model, order);
      break;
    case ParityHeuristic::kTiming:
      std::stable_sort(order.begin(), order.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return model.slack_ps(a) > model.slack_ps(b);
                       });
      break;
    case ParityHeuristic::kOptimized: {
      // Fig. 3: partition by whether the FF has slack for a 32-bit tree;
      // slack-rich FFs form 32-bit unpipelined locality groups, the rest
      // form 16-bit pipelined locality groups.
      const double need32 = phys::PhysModel::xor_tree_delay_ps(32);
      std::vector<std::uint32_t> fast;
      std::vector<std::uint32_t> slow;
      for (const std::uint32_t f : order) {
        (model.slack_ps(f) >= need32 ? fast : slow).push_back(f);
      }
      sort_by_unit(model, fast);
      sort_by_unit(model, slow);
      phys::ParityPlan plan;
      for (std::size_t i = 0; i < fast.size(); i += 32) {
        phys::ParityGroup g;
        const std::size_t end = std::min(fast.size(), i + 32);
        g.ffs.assign(fast.begin() + static_cast<std::ptrdiff_t>(i),
                     fast.begin() + static_cast<std::ptrdiff_t>(end));
        g.pipelined = false;
        plan.groups.push_back(std::move(g));
      }
      for (std::size_t i = 0; i < slow.size(); i += 16) {
        phys::ParityGroup g;
        const std::size_t end = std::min(slow.size(), i + 16);
        g.ffs.assign(slow.begin() + static_cast<std::ptrdiff_t>(i),
                     slow.begin() + static_cast<std::ptrdiff_t>(end));
        g.pipelined = true;
        plan.groups.push_back(std::move(g));
      }
      return plan;
    }
  }
  return chunk_into_groups(model, order, group_bits);
}

}  // namespace clear::resilience
