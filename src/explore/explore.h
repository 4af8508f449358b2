// Distributed design-space exploration engine (the paper's headline
// cross-layer exploration, Fig. 1d / Table 18, scaled out).
//
// The engine turns combination-space search into a persistent, resumable,
// distributable job system on top of the campaign layer:
//
//   * enumeration -- core::enumerate_combos gives the valid combination
//     space (417 InO + 169 OoO) and a fingerprint that pins it;
//   * sharding -- shard k of K owns the combo indices i with i % K == k,
//     so K machines explore disjoint slices and `fold_ledger`
//     folds their ledgers back bit-identically to the unsharded run
//     (every record is a pure function of the experiment identity);
//   * batching -- each batch of combos prefetches ALL its profiling
//     campaigns as one engine submission (core::Session::prefetch_async):
//     golden-run recording overlaps faulty runs across combos, combos
//     sharing a program variant share its campaigns through the on-disk
//     cache pack, and batch N+1 simulates on the engine while batch N is
//     evaluated;
//   * parallel evaluation -- once a batch's profiles are resident, its
//     combos are evaluated on a run-local thread pool (CLEAR_THREADS,
//     else the hardware concurrency) against one read-only Session and
//     Selector, and an in-order fold appends the records in index order;
//   * dominance pruning -- fixed per-core anchor combinations (the
//     paper's flagship LEAP-DICE + parity + recovery designs) are
//     evaluated first at their "max" point; a combo whose analytic cost
//     lower bound (core::combo_cost_lower_bound) already exceeds the
//     cheapest full-protection anchor is recorded as pruned instead of
//     evaluated.  Anchors are fixed, so the decision is bit-identical
//     across shards, resumes and thread counts.  When the bar tightens
//     during a run (ExploreSpec::confidence), combos are evaluated
//     speculatively against the bar at batch start and the fold applies
//     the live bar, so the records match a serial run exactly;
//   * persistence -- every outcome is appended to the `.cxl` exploration
//     ledger (explore/ledger.h); a killed exploration resumes from the
//     records on disk without re-running completed combos.
//
// `clear explore` (src/cli/cli_explore.cpp) drives the run-on-K-machines
// -> merge -> frontier/report workflow end to end.
#ifndef CLEAR_EXPLORE_EXPLORE_H
#define CLEAR_EXPLORE_EXPLORE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/combos.h"
#include "explore/ledger.h"
#include "util/stats.h"

namespace clear::util {
class ArgParser;
}  // namespace clear::util

namespace clear::explore {

struct ExploreSpec {
  std::string core = "InO";  // "InO" or "OoO"; anything else throws
  // SDC/DUE improvement target tunable combos are evaluated at (> 0).
  double target = 50.0;
  core::Metric metric = core::Metric::kSdc;
  std::uint64_t seed = 1;
  // Injections per flip-flop per benchmark (0 = the per-core default,
  // like core::Session: 2 on InO, 1 on OoO).
  std::size_t per_ff_samples = 0;
  // Confidence-driven adaptive profiling (core::Session::set_confidence):
  // stop sampling each flip-flop once the 95% interval half-width on its
  // SDC and DUE rates is <= this (0 = fixed budget; per_ff_samples
  // becomes a budget ceiling when on).  Part of the experiment identity:
  // adaptive and fixed-budget ledgers never merge, and the ledger is
  // written as format version 2 (explore/ledger.h).  With confidence on
  // and shard_count == 1 the dominance-pruning bar additionally tightens
  // as evaluated (near-)full-protection points land, pruning more of the
  // space the longer the run goes.
  double confidence = 0.0;
  util::IntervalMethod confidence_method = util::IntervalMethod::kWilson;
  // Benchmark suite to profile on (empty = the core's full suite).  Part
  // of the experiment identity: ledgers of different suites never merge.
  std::vector<std::string> benchmarks;
  // Shard selection over the combo list: this run owns the combo indices
  // i with i % shard_count == shard_index.
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  // Dominance pruning (on by default).  Pruning never removes a point
  // cheaper than the cheapest full-protection anchor, so the low-cost
  // frontier and the cheapest target-meeting combination are unaffected;
  // disable it to evaluate every combination (the full Fig. 1d cloud).
  bool prune = true;
  // Combos per scheduling batch (each batch prefetches its profiling
  // campaigns as one engine submission and is evaluated in parallel).
  // 0 = 64.  No flag sets it: tests vary it to check that records do not
  // depend on the schedule.
  std::size_t batch = 0;
  // Cooperative cancellation (optional).  When non-null, run_exploration
  // polls the flag before every evaluation and every record append, and
  // throws ExploreCancelled once it reads true.  A persistent ledger
  // keeps every record appended so far (each is complete and exact -- a
  // resumed run skips them); nothing partial is ever written.  The
  // `clear serve` worker uses this to stop an explore shard whose driver
  // vanished.
  const std::atomic<bool>* cancel = nullptr;
};

// ---- the explore flag grammar ----------------------------------------------
//
// The identity flags of an exploration -- --core, --target, --metric,
// --seed, --per-ff, --benches, --no-prune, --confidence and
// --confidence-method -- are one grammar for `clear explore run`, `clear
// fleet explore` and the explore shard stanzas a fleet dispatches to its
// workers.  Shard selection is not part of it: each caller owns that.

// Registers the identity flags on `args`.
void add_spec_flags(util::ArgParser* args);

// Reads the identity flags of a parsed `args` into *spec, leaving its
// other fields alone.  Checks only that each value parses; ranges are
// resolve_identity's.  Returns false and fills *error ("bad --flag
// 'value'") otherwise.
bool read_spec_flags(const util::ArgParser& args, ExploreSpec* spec,
                     std::string* error);

// The inverse: `spec`'s identity as flag tokens, defaults omitted, doubles
// in a form read_spec_flags reads back bit-exactly.
[[nodiscard]] std::string spec_flags(const ExploreSpec& spec);

// Thrown by run_exploration when ExploreSpec::cancel flipped true.
class ExploreCancelled : public std::runtime_error {
 public:
  ExploreCancelled() : std::runtime_error("exploration cancelled") {}
};

// Running counters for progress reporting (counts from this run only,
// not records resumed from the ledger).
struct Progress {
  std::size_t pending = 0;    // combos this run owed at the start
  std::size_t done = 0;       // records appended so far
  std::size_t evaluated = 0;  // of which: evaluated points
  std::size_t pruned = 0;     // of which: dominance-pruned
  std::size_t skipped = 0;    // of which: unsupported on the suite
};
using ProgressFn = std::function<void(const Progress&)>;

// Resolves a spec to the ledger identity it would run under (benchmarks
// resolved against the core's suite, per-FF samples against the env,
// covered = {shard_index}).  Cheap: no campaigns run.  Throws
// std::invalid_argument on a bad core/shard/target/benchmark name.
[[nodiscard]] Ledger resolve_identity(const ExploreSpec& spec);

// Runs (or resumes) one shard of an exploration.  With a non-empty
// `ledger_path` every outcome is appended there crash-safely and combos
// already recorded are not re-run; with an empty path the exploration is
// in-memory only (examples/benches).  Returns the complete ledger state
// for this shard (resumed + new records).  Deterministic: the record for
// a combo is bit-identical across runs, hosts, thread counts, shardings
// and resume points, and records are appended in combo-index order
// whatever the evaluation thread count.  Throws std::invalid_argument on
// a bad spec and std::runtime_error on ledger identity mismatch or I/O
// failure.
Ledger run_exploration(const ExploreSpec& spec, const std::string& ledger_path,
                       const ProgressFn& progress = {});

// Writes the exploration's profiling prelude -- every (program variant x
// benchmark) campaign the spec's combo space can demand -- as a
// multi-campaign manifest for `clear run --spec`.  Running the manifest
// warms the campaign cache pack under the exact fingerprints `clear
// explore run` will look up.  Run it unsharded: a `--shard k/K` run
// memoizes under shard-specific fingerprints the exploration's unsharded
// campaigns never consult.  Throws std::runtime_error when the path is
// unwritable.
void write_profile_manifest(const ExploreSpec& spec, const std::string& path);

// The per-core anchor combinations (indices into enumerate_combos):
// LEAP-DICE alone and LEAP-DICE + parity + flush/RoB recovery -- the
// paper's flagship designs.  Exposed for tests and reports.
[[nodiscard]] std::vector<std::uint32_t> anchor_indices(
    const std::string& core);

}  // namespace clear::explore

#endif  // CLEAR_EXPLORE_EXPLORE_H
