// A Session bundles the experiment configuration for one core (benchmarks,
// campaign scale, seed) and memoizes per-variant vulnerability profiles.
//
// A ProfileSet aggregates per-flip-flop outcome counts over the core's
// benchmark suite for one program variant -- the data that drives every
// selective-hardening decision, every improvement estimate and every table
// of the evaluation.  Collection is the expensive step (thousands of
// microarchitectural simulations); results are memoized in memory and in
// the on-disk campaign cache pack shared by every process.  The
// underlying campaigns are submitted per variant batch as one job to the
// process-wide execution engine (engine/engine.h): golden-run recordings
// of later benchmarks overlap the faulty runs of earlier ones, every
// worker reuses its core-model instances across all of a session's
// campaigns, and the checkpoint/fork engine accelerates each faulty run.
// prefetch_async() exposes the submission as a non-blocking ticket so a
// caller (the design-space engine) can simulate the next batch while it
// evaluates the current one.
#ifndef CLEAR_CORE_SESSION_H
#define CLEAR_CORE_SESSION_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/reliability.h"
#include "core/variants.h"
#include "engine/engine.h"
#include "inject/campaign.h"
#include "util/stats.h"

namespace clear::core {

class Session;

// Handle to an in-flight batch prefetch (Session::prefetch_async): the
// campaigns run on the job engine's bulk lane while the caller keeps
// working; commit() blocks until they finish and installs the profiles
// into the session's memo.  The design-space engine double-buffers these
// to overlap batch N's evaluation with batch N+1's simulation.
//
// Lifetime: the ticket owns the batch's programs (the engine job holds
// raw pointers into them), so dropping an uncommitted ticket cancels the
// job and joins it before releasing the storage.  The Session must
// outlive every ticket it issued; commit-or-drop all tickets before
// destroying it.
class PrefetchTicket {
 public:
  PrefetchTicket() = default;  // empty: nothing pending, commit() no-op
  PrefetchTicket(PrefetchTicket&&) noexcept;
  PrefetchTicket& operator=(PrefetchTicket&&) noexcept;
  PrefetchTicket(const PrefetchTicket&) = delete;
  PrefetchTicket& operator=(const PrefetchTicket&) = delete;
  ~PrefetchTicket();  // cancels + joins an uncommitted batch

  // True while an uncommitted batch is outstanding.
  [[nodiscard]] bool pending() const noexcept;
  // The engine job handle (invalid for an empty ticket): progress and
  // cancellation.  Do not take_results() through it; commit() does.
  [[nodiscard]] engine::Job job() const;
  // Waits for the batch and installs the profiles into the issuing
  // session's memo (idempotent; empty tickets return immediately).  Must
  // be called on the session's thread (Session is not thread-safe).
  // Rethrows the batch's error; throws engine::JobCancelled when the job
  // was cancelled through the handle above.
  void commit();

 private:
  friend class Session;
  struct Batch;
  std::shared_ptr<Batch> batch_;
  Session* session_ = nullptr;
};

struct BenchProfile {
  std::string benchmark;            // canonical name (workloads.h)
  inject::CampaignResult campaign;  // full campaign for this benchmark
  // Error-free cycles of the BASE variant of the same benchmark (the
  // denominator of the execution-overhead ratio).
  std::uint64_t base_cycles = 0;
};

struct ProfileSet {
  std::string core;         // "InO" or "OoO"
  std::string variant_key;  // Variant::key() this set was collected for
  std::uint32_t ff_count = 0;         // flip-flops of the core model
  std::vector<BenchProfile> benches;  // one entry per profiled benchmark
  // Aggregates over all benchmarks (each vector has ff_count elements):
  std::vector<std::uint64_t> ff_sdc;    // per-FF OMM counts
  std::vector<std::uint64_t> ff_due;    // per-FF UT+Hang+ED counts
  std::vector<std::uint64_t> ff_total;  // per-FF injection counts
  inject::OutcomeCounts totals;         // sum over benches' campaign totals
  // Error-free execution-time overhead vs. the base variant (mean of the
  // per-benchmark cycle ratios minus one).
  double exec_overhead = 0.0;

  [[nodiscard]] ErrorMass mass() const noexcept { return mass_of(totals); }
  // Fraction of FFs with at least one SDC-causing (resp. DUE-causing)
  // error across all benchmarks (Table 2).
  [[nodiscard]] double frac_ffs_with_sdc() const;
  [[nodiscard]] double frac_ffs_with_due() const;
  [[nodiscard]] double frac_ffs_with_either() const;
  [[nodiscard]] double frac_ffs_always_vanish() const;
};

// The error mass of `set`'s campaigns on the named benchmarks: their
// campaign totals summed in `names` order, reading no per-FF count and
// copying no campaign.  The unprotected reference of any profile is the
// base profile's mass over that profile's benchmarks
// (core::ComboStack).  Throws std::invalid_argument when a name has no
// profiled benchmark in `set`.
[[nodiscard]] ErrorMass mass_over(const ProfileSet& set,
                                  const std::vector<std::string>& names);

// The benchmark names of a profile's benches, in profile order.
[[nodiscard]] std::vector<std::string> bench_names(
    const std::vector<BenchProfile>& benches);

// Not thread-safe, except for concurrent const reads of resident profiles
// (resident() below): collect on one thread, then read from many.  The
// campaigns a Session submits share the process-wide worker pool and
// on-disk cache regardless.
// Profiles are deterministic for (core, benchmarks, per_ff_samples, seed)
// -- bit-identical across runs, hosts and thread counts.
class Session {
 public:
  // core = "InO" or "OoO".  per_ff_samples = injections per flip-flop per
  // benchmark (0 = the per-core default: 2 on InO, 1 on OoO).
  explicit Session(std::string core, std::size_t per_ff_samples = 0,
                   std::uint64_t seed = 1);

  [[nodiscard]] const std::string& core() const noexcept { return core_; }
  [[nodiscard]] const std::vector<std::string>& benchmarks() const noexcept {
    return benchmarks_;
  }
  // Restricts the benchmark suite (reduced-scale runs and tests).
  //
  // Lifetime contract: every ProfileSet& returned by profiles() aliases
  // the session's memo and stays valid until the Session is destroyed --
  // set_benchmarks() is therefore only legal BEFORE the first profiles
  // were collected (and while no prefetch_async ticket is outstanding).
  // Re-suiting a session that already handed out profile references
  // would dangle them, so it throws std::logic_error instead of silently
  // clearing the memo; use a fresh Session for a different suite.
  void set_benchmarks(std::vector<std::string> names);

  // Confidence-driven adaptive campaigns: every profiling campaign stops
  // sampling a flip-flop once the 95% interval half-width on its SDC and
  // DUE rates is <= `half_width` (inject/adaptive.h); per_ff_samples
  // becomes a budget ceiling.  Same precondition as set_benchmarks():
  // profiles already collected under the fixed budget would not match,
  // so this throws std::logic_error once any were.  0 restores the fixed
  // budget (the default).
  void set_confidence(double half_width,
                      util::IntervalMethod method = util::IntervalMethod::kWilson);
  [[nodiscard]] double confidence() const noexcept { return confidence_; }
  [[nodiscard]] util::IntervalMethod confidence_method() const noexcept {
    return confidence_method_;
  }

  [[nodiscard]] std::size_t per_ff_samples() const noexcept {
    return per_ff_samples_;
  }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  // Collects (or returns memoized) profiles for a variant.  For ABFT
  // variants only the ABFT-capable benchmarks are profiled; benchmarks
  // whose program the variant cannot transform are skipped.  The
  // returned reference stays valid until the Session's destruction
  // (set_benchmarks() refuses to invalidate it).  Throws
  // std::runtime_error when no benchmark supports the variant on this
  // core.
  const ProfileSet& profiles(const Variant& v);

  // Read-only lookup of an already-collected profile: never submits
  // campaigns, and throws std::logic_error when `v` is not resident.
  // This is the one Session call that is safe from many threads at once:
  // once a batch's profiles are resident, any number of threads may call
  // resident() (and the other const accessors) concurrently, provided no
  // thread mutates the session meanwhile -- profiles(), prefetch(),
  // PrefetchTicket::commit() and the setters are single-threaded.  The
  // exploration engine evaluates a batch's combos in parallel this way.
  [[nodiscard]] const ProfileSet& resident(const Variant& v) const;

  // Batch collection: profiles every not-yet-memoized variant of the list
  // with ONE engine::run_campaigns submission, so golden-run recording
  // overlaps faulty runs across ALL (variant, benchmark) campaigns -- not
  // just within one variant.  Results are bit-identical to calling
  // profiles() per variant; subsequent profiles() calls hit the memo.
  // Variants no benchmark supports throw (like profiles()); exploration
  // filters those out first.  The design-space engine (src/explore)
  // prefetches each combo batch's layer variants through this.
  void prefetch(const std::vector<Variant>& variants);

  // Non-blocking batch collection: submits the not-yet-memoized
  // variants' campaigns to the job engine (engine/engine.h) on the given
  // lane and returns immediately.  The ticket's commit() waits and
  // installs the profiles exactly as prefetch() would have -- results
  // are bit-identical to the blocking path, with the same cache
  // semantics.  prefetch() is prefetch_async(...).commit() on the
  // interactive lane; pipelined callers use the bulk lane so an
  // interactive submission elsewhere can overtake the backfill.
  [[nodiscard]] PrefetchTicket prefetch_async(
      const std::vector<Variant>& variants,
      engine::JobPriority priority = engine::JobPriority::kBulk);

  // Profile restricted to a benchmark subset (used by the Sec. 4
  // train/validate study); aggregates -- totals, the per-FF vectors AND
  // the error-free execution overhead -- are folded from the memoized
  // per-benchmark campaigns by the same code install uses, exactly equal
  // to a fresh Session profiled on `names` alone.  Throws
  // std::invalid_argument when a name has no profiled benchmark in
  // `full`.  Copies the kept campaigns; a caller after masses alone uses
  // mass_over.
  [[nodiscard]] ProfileSet subset(const ProfileSet& full,
                                  const std::vector<std::string>& names) const;

 private:
  friend class PrefetchTicket;

  // Folds a finished batch's campaign results into the memo (first
  // install of a variant wins; recomputed duplicates are identical).
  void install(const PrefetchTicket::Batch& batch,
               std::vector<inject::CampaignResult> campaigns);
  // Error-free cycles of a benchmark's base program on this core (every
  // variant's overhead divides by it): the golden cycles of the base
  // profile's campaign when base is resident, or installed earlier in the
  // same batch (exploration lists base first).  Otherwise the base
  // program runs once per benchmark and is memoized.
  std::uint64_t base_cycles(const std::string& bench);

  std::string core_;
  std::vector<std::string> benchmarks_;
  std::size_t per_ff_samples_;
  std::uint64_t seed_;
  double confidence_ = 0.0;  // 0 = fixed budget
  util::IntervalMethod confidence_method_ = util::IntervalMethod::kWilson;
  std::map<std::string, std::unique_ptr<ProfileSet>> cache_;
  std::map<std::string, std::uint64_t> base_cycles_;  // see base_cycles()
  std::size_t pending_prefetches_ = 0;  // uncommitted tickets outstanding
};

}  // namespace clear::core

#endif  // CLEAR_CORE_SESSION_H
