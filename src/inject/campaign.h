// Flip-flop soft-error injection campaigns.
//
// Replaces the paper's BEE3 FPGA emulation cluster + Stampede supercomputer
// (Sec. 2.1): a deterministic, multithreaded campaign engine that injects
// single bit-flips uniformly across the flip-flops and execution cycles of
// a processor model run, classifies every outcome against the error-free
// ("golden") run, and aggregates per-flip-flop vulnerability profiles.
// Campaign results are memoized on disk (CLEAR_CACHE_DIR) because every
// paper table shares the same underlying campaigns.
//
// Sampling is stratified by flip-flop: injection i targets
// ff = i mod ff_count at an independently drawn uniform cycle, which is an
// exactly uniform exposure across flip-flops (the paper's "errors are
// injected uniformly into all flip-flops and application regions").
//
// Execution strategy (checkpoint/fork engine): the golden run executes
// once, snapshotting its complete state at cycle intervals.  Each faulty
// run forks from the snapshot nearest below its injection cycle instead of
// re-simulating the identical prefix from cycle 0, and terminates early --
// as Vanished/Recovered -- at the first checkpoint boundary where its full
// state hash re-converges to the golden trajectory.  A strike into state
// golden next overwrites or never reads again does not fork at all: the
// recording pass finds such samples, which end as Vanished (docs/
// ARCHITECTURE.md, "FF liveness", dead at flip).  Results are
// bit-identical to simulating every faulty run from cycle 0 (the test-side
// reference engine, tests/reference_campaign.h, checks this) and
// independent of the worker-thread count: every injection derives its RNG
// from the sample index alone.  Workers run on a persistent pool
// (util::ThreadPool) and reuse per-worker core instances across the
// campaigns of a session.
//
// Sharding: because each injection depends only on its global sample
// index, a campaign partitions arbitrarily across processes or machines.
// A shard (shard_index, shard_count) simulates exactly the samples i with
// i % shard_count == shard_index; folding the K shard results with
// merge_campaign_results() is bit-identical to the unsharded campaign.
// Every golden recording asks the dead-at-flip queries of every sample
// below the budget, with placement priced at the campaign's forks divided
// by shard_count, so one recording serves any shard.  A process that runs
// several shards of one campaign one after another (a `clear serve`
// worker) records it once, and a process-wide memo keeps it for the later
// shards.  The memo key is a 64-bit content identity: the core's layout
// identity (core, program, every ResilienceConfig field), the DFC
// signatures, seed, injections and the shard count, never the cache key.
// It keeps at most 8 recordings, least recently used first out, so a
// process that cycles through more campaigns (a fleet spec of more than
// 8 stanzas) records again.  Unsharded campaigns never enter it.  A
// shard's results do not depend on which recording it forks from.
//
// Batching: a batch of campaigns runs as one pool job, so golden-run
// recordings of later campaigns overlap the faulty runs of earlier ones
// instead of serializing on the caller thread.  Shards of one campaign
// in one batch fork from one recording: the first of them records it (or
// finds it in the memo) and hands it to the others.  Shards in batches
// running at once that miss the memo at the same moment do not wait for
// each other: each records, and the first recording to finish is kept.
//
// Execution layering: this header owns the campaign vocabulary (spec,
// result, classification, merge); the blocking simulation core lives
// behind inject/exec.h, and callers run campaigns through the
// process-wide job engine one layer up (engine::run_campaign(s) and
// engine::Engine::submit in engine/engine.h).
//
// Caching: results are memoized in a single append-only pack file per
// cache directory (inject/cachepack.h).
//
// Shard transport: inject/wire.h defines the checksummed `.csr` file
// format shard results travel in between machines, and the `clear` CLI
// (src/cli) drives the run-on-K-machines -> merge workflow end to end.
#ifndef CLEAR_INJECT_CAMPAIGN_H
#define CLEAR_INJECT_CAMPAIGN_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "arch/core.h"
#include "inject/outcome.h"
#include "isa/program.h"
#include "util/stats.h"

namespace clear::inject {

struct CampaignSpec {
  std::string core_name;  // "InO" or "OoO"; anything else throws
  // Program to simulate; must be non-null and outlive the campaign run
  // (the engine keeps only this pointer).
  const isa::Program* program = nullptr;
  // Cache identity.  Callers encode everything that shapes the outcome
  // distribution (core, benchmark, program variant, in-sim technique
  // configuration) in this key.  Empty key disables caching.
  std::string key;
  // Global sample count across ALL shards (0 = one injection per
  // flip-flop).  A shard simulates ~injections/shard_count of them.
  std::size_t injections = 0;
  // Campaign RNG seed.  Together with the global sample index it fully
  // determines every injection (FF, cycle, suppression draw): results
  // are bit-identical across runs, hosts, thread counts and partitions.
  std::uint64_t seed = 1;
  // Worker threads (0 = CLEAR_THREADS env, then hardware concurrency).
  // Affects wall-clock only, never results.
  unsigned threads = 0;
  // Optional in-simulator resilience configuration (DFC, monitor core,
  // detection + recovery).  Per-FF hardening suppression (LEAP-DICE & co.)
  // is applied by the campaign driver using the Table 4 SER ratios.
  // Nullable; must outlive the call like `program`.
  const arch::ResilienceConfig* cfg = nullptr;
  // Shard selection: this spec simulates only the global sample indices i
  // with i % shard_count == shard_index.  The defaults run the whole
  // campaign; shard results fold with merge_campaign_results().  The cache
  // fingerprint covers the shard selection, so shards and the unsharded
  // campaign memoize independently.
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  // Confidence-driven adaptive sampling (inject/adaptive.h).  When
  // confidence_half_width > 0, `injections` becomes a budget CEILING
  // instead of an exact count: per-FF sampling stops at the first
  // deterministic milestone where the 95% interval half-widths of both
  // the SDC and the DUE rate drop to the target, and the freed budget is
  // reallocated to the FFs whose rates are still noisy.  Stop decisions
  // are pure functions of global sample indices and milestone
  // boundaries, so any --shard k/K partition of an adaptive campaign
  // still merges bit-identically to the unsharded adaptive run.  The
  // cache fingerprint covers both fields whenever adaptivity is active,
  // so adaptive and fixed-budget results never alias.  0 = fixed budget.
  double confidence_half_width = 0.0;
  util::IntervalMethod confidence_method = util::IntervalMethod::kWilson;

  [[nodiscard]] bool adaptive() const noexcept {
    return confidence_half_width > 0.0;
  }
};

struct CampaignResult {
  std::uint32_t ff_count = 0;        // flip-flops of the core model
  std::uint64_t nominal_cycles = 0;  // error-free run length, in cycles
  std::uint64_t nominal_instrs = 0;  // error-free committed instructions
  // Outcome counters summed over all simulated samples; totals is always
  // the element-wise sum of per_ff (per_ff.size() == ff_count).  For a
  // shard these cover only the shard's samples until merged.
  OutcomeCounts totals;
  std::vector<OutcomeCounts> per_ff;

  [[nodiscard]] double sdc_fraction() const noexcept {
    const auto t = totals.total();
    return t ? static_cast<double>(totals.sdc()) / static_cast<double>(t) : 0;
  }
  [[nodiscard]] double due_fraction() const noexcept {
    const auto t = totals.total();
    return t ? static_cast<double>(totals.due()) / static_cast<double>(t) : 0;
  }
  // 95% margin of error on the SDC fraction (paper reports <0.1% at 9M
  // injections; reduced-scale campaigns report their own margin).
  [[nodiscard]] double sdc_margin_of_error() const noexcept;

  // ---- adaptive-campaign metadata (all zero/empty for fixed budgets) ----
  // Echo of CampaignSpec::confidence_half_width / confidence_method.
  double confidence_target = 0.0;
  util::IntervalMethod confidence_method = util::IntervalMethod::kWilson;
  // Pilot length and the final per-FF plan N_f (inject/adaptive.h).  The
  // plan is part of the campaign identity: every shard computes the same
  // plan, and merge_campaign_results refuses shards whose plans differ.
  std::uint64_t pilot = 0;
  std::vector<std::uint64_t> planned;  // per-FF; sum <= spec.injections

  [[nodiscard]] bool adaptive() const noexcept {
    return confidence_target > 0.0;
  }
  // Samples actually simulated and owned by this result (a shard's share
  // until merged); for a merged adaptive result this equals planned_total.
  [[nodiscard]] std::uint64_t samples_executed() const noexcept {
    return totals.total();
  }
  [[nodiscard]] std::uint64_t planned_total() const noexcept {
    std::uint64_t t = 0;
    for (const std::uint64_t n : planned) t += n;
    return t;
  }
  // Achieved 95% intervals on the SDC/DUE rates over this result's
  // samples, using the campaign's interval method (Wilson for fixed
  // budgets).  For a shard these cover only its own samples until merged.
  [[nodiscard]] util::Interval sdc_interval() const noexcept;
  [[nodiscard]] util::Interval due_interval() const noexcept;
};

// Classifies one faulty run against the golden run.  Pure function of
// its arguments (pinned by tests/data/classify_golden.txt).
[[nodiscard]] Outcome classify(const arch::CoreRunResult& faulty,
                               const arch::CoreRunResult& golden) noexcept;

// Per-FF-protection soft-error-rate ratio (Table 4): the probability that
// a particle strike on a hardened flip-flop still produces an upset.
[[nodiscard]] double ser_ratio(arch::FFProt p) noexcept;

// Folds shard results (any order, any partition sizes) into the result of
// the corresponding unsharded campaign.  All shards must agree on
// ff_count and the nominal golden run; throws std::invalid_argument
// otherwise (merging shards of different campaigns is always a bug).
[[nodiscard]] CampaignResult merge_campaign_results(
    const std::vector<CampaignResult>& shards);

// The one counter fold merge_campaign_results is made of: adds r's
// counters into *into in place.  Throws std::invalid_argument, leaving
// *into unchanged, unless both agree on ff_count, the nominal golden run
// and the adaptive plan.
void fold_campaign_result(CampaignResult* into, const CampaignResult& r);

// r's campaign identity (ff_count, nominal run, adaptive plan) with every
// counter zero: the start of a fold.
[[nodiscard]] CampaignResult empty_result_like(const CampaignResult& r);

// The campaign cache directory ($CLEAR_CACHE_DIR, default ".clear_cache";
// empty = caching disabled).  Reads the env on every call.
[[nodiscard]] std::string campaign_cache_dir();

}  // namespace clear::inject

#endif  // CLEAR_INJECT_CAMPAIGN_H
