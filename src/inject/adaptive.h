// Confidence-driven adaptive sampling for injection campaigns.
//
// The paper sizes every per-FF campaign with a flat sample count even
// though it reports margins of error at 95% confidence (Sec. 2.1).  This
// module drives sampling with the interval instead: a campaign declares a
// target half-width on the SDC and DUE rates, per-FF sampling stops at the
// first milestone where both intervals are tight enough, and the freed
// budget is reallocated to the FFs whose rates are still noisy.
//
// Everything here is a PURE FUNCTION of (spec, sample outcomes), never of
// execution order.  That is what keeps `--shard k/K` partitions of an
// adaptive campaign bit-identical to the unsharded run:
//
//   * the sample schedule is the existing index-derived one -- global
//     index g targets ff = g % ff_count at per-FF ordinal g / ff_count,
//     with the RNG derived from (seed, g) alone; adaptivity only decides
//     WHICH indices are executed, never what any index produces;
//   * stop decisions are taken at fixed per-FF sample-count milestones
//     (milestone_ladder) inside a bounded pilot prefix (pilot_ordinals),
//     and depend only on the GLOBAL outcome counts at the milestone.
//     Every shard simulates the full pilot redundantly -- the pilot is a
//     small fixed fraction of the budget -- so every shard reaches the
//     identical decision without communicating;
//   * after the pilot, still-open FFs get a deterministic projected
//     budget (util::trials_for_half_width_95 on the pilot counts), and
//     the budget freed by early-stopped FFs is granted proportionally
//     with a fixed tie-break (plan_final_counts).  The resulting per-FF
//     plan N_f is identical on every shard; shard k then executes only
//     its owned tail indices (g % K == k), which is where the sharding
//     speedup is preserved.
//
// The executed index set is therefore {g : g / ff_count < N[g % ff_count]}
// on every shard, and Σ N_f never exceeds the fixed budget (the property
// tests in tests/test_adaptive.cpp pin both invariants, running the whole
// procedure through tests/adaptive_oracle.h).
#ifndef CLEAR_INJECT_ADAPTIVE_H
#define CLEAR_INJECT_ADAPTIVE_H

#include <cstdint>
#include <vector>

#include "inject/outcome.h"
#include "util/stats.h"

namespace clear::inject::adaptive {

// Smallest per-FF sample count at which a stop decision may be taken.
inline constexpr std::uint64_t kFirstMilestone = 32;

// Pilot length P: the per-FF ordinal prefix [0, P) every shard simulates
// redundantly so stop decisions see global counts.  1/8 of the smallest
// per-FF fixed budget, at least kFirstMilestone, never more than the
// budget itself.  0 when the fixed budget is 0 (adaptivity disabled).
[[nodiscard]] std::uint64_t pilot_ordinals(std::uint64_t min_per_ff_budget);

// The decision milestones: kFirstMilestone doubling up to the pilot
// length, always ending with `pilot` itself.  Empty when pilot == 0.
[[nodiscard]] std::vector<std::uint64_t> milestone_ladder(std::uint64_t pilot);

// Per-FF sample counts of the FIXED schedule: base[f] = |{g < injections :
// g % ff_count == f}|.  This is both the non-adaptive plan and the budget
// ceiling the adaptive plan redistributes.
[[nodiscard]] std::vector<std::uint64_t> fixed_budget(std::uint64_t injections,
                                                      std::uint32_t ff_count);

// Decision state for one FF during the pilot.
struct FfDecision {
  OutcomeCounts pilot;           // GLOBAL counts over pilot ordinals so far
  std::uint64_t stopped_at = 0;  // milestone where the target was met; 0 = open
};

// The stop rule, applied at milestone `m` to every still-open FF:
// stop (stopped_at = m) when the 95% interval half-widths of BOTH the SDC
// and the DUE rate over the FF's m global pilot samples are <= target.
void apply_milestone(std::uint64_t m, double target,
                     util::IntervalMethod method,
                     std::vector<FfDecision>* states);

// After the full pilot: the final per-FF plan N_f.
//   * stopped FFs keep N_f = stopped_at;
//   * open FFs project the samples needed to reach the target from their
//     pilot counts; the pooled leftover budget (fixed budget minus all
//     commitments) is granted in proportion to each FF's projected need,
//     floor-divided, with the remainder going to the lowest-indexed open
//     FFs -- all integer arithmetic, bit-identical everywhere.
// Σ of the result never exceeds Σ base.
[[nodiscard]] std::vector<std::uint64_t> plan_final_counts(
    const std::vector<FfDecision>& states, std::uint64_t pilot,
    const std::vector<std::uint64_t>& base, double target,
    util::IntervalMethod method);

}  // namespace clear::inject::adaptive

#endif  // CLEAR_INJECT_ADAPTIVE_H
