#include "inject/campaign.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string_view>

#include <cstring>

#include "arch/arena.h"
#include "arch/liveness.h"
#include "inject/adaptive.h"
#include "inject/cachepack.h"
#include "inject/exec.h"
#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/env.h"
#include "util/fs.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/threadpool.h"

namespace clear::inject {

namespace {

// Cooperative cancellation: polled at checkpoint boundaries and sample
// starts (see exec.h for the contract).
inline void check_cancel(const std::atomic<bool>* cancel) {
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    throw detail::CampaignCancelled();
  }
}

// v4: checkpoint/fork execution engine (results are bit-identical to v3,
// but the bump invalidates caches written by builds without the hardened
// loader below).
constexpr std::uint32_t kCacheVersion = 4;

constexpr std::uint64_t kGoldenBudget = 20'000'000;

// IEEE bits of a double (util::f64_bits), for hashing and text
// round-trips that must be exact (a decimal round-trip of the confidence
// target could make two shards disagree about the campaign identity).
using util::bits_f64;
using util::f64_bits;

// Stable hash of the campaign identity (key + program code + parameters).
// The shard selection participates only when sharding is active, and the
// confidence target only when adaptivity is active, so unsharded and
// fixed-budget fingerprints -- and therefore pre-existing caches -- are
// unchanged.
std::uint64_t spec_fingerprint(const CampaignSpec& spec,
                               std::size_t injections) {
  std::uint64_t h = 0xC1EA5u;
  for (char c : spec.key) h = util::hash_combine(h, static_cast<unsigned char>(c));
  for (const std::uint32_t w : spec.program->code) h = util::hash_combine(h, w);
  for (const std::uint32_t w : spec.program->data) h = util::hash_combine(h, w);
  h = util::hash_combine(h, injections);
  h = util::hash_combine(h, spec.seed);
  h = util::hash_combine(h, kCacheVersion);
  if (spec.shard_count > 1) {
    h = util::hash_combine(h, 0x5AA5D0000ULL + spec.shard_count);
    h = util::hash_combine(h, spec.shard_index);
  }
  if (spec.adaptive()) {
    h = util::hash_combine(h, 0xADA7011'1EULL);
    h = util::hash_combine(
        h, static_cast<std::uint64_t>(spec.confidence_method));
    h = util::hash_combine(h, f64_bits(spec.confidence_half_width));
  }
  return h;
}

std::string sanitize(const std::string& key) {
  std::string out;
  for (char c : key) {
    out += (std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
            c == '-' || c == '_')
               ? c
               : '_';
  }
  return out;
}

// Debug label stored next to the payload in the cache pack.
std::string cache_label(const CampaignSpec& spec) {
  std::string label = sanitize(spec.key);
  if (spec.shard_count > 1) {
    label += ".s" + std::to_string(spec.shard_index) + "of" +
             std::to_string(spec.shard_count);
  }
  return label;
}

// ---- persistent per-worker simulators --------------------------------------
//
// Core models are expensive to construct (the FF registry materializes
// hundreds of named structures), so each pool worker -- the threads live
// for the whole process -- keeps its own instances and rebinds them per
// campaign.  Campaigns are identified by a token; a worker calls begin()
// once per (campaign, worker) to bind the program/config, then forks every
// faulty run off the shared golden checkpoints with restore().
std::atomic<std::uint64_t> g_campaign_tokens{1};

arch::Core* worker_core(const std::string& name) {
  thread_local std::map<std::string, std::unique_ptr<arch::Core>> cores;
  auto& slot = cores[name];
  if (!slot) slot = arch::make_core(name);
  return slot.get();
}

arch::Core* bound_worker_core(const CampaignSpec& spec,
                              std::uint64_t campaign_token) {
  // Batched submission interleaves campaigns on one worker, so the
  // binding is tracked per core model (an InO and an OoO campaign never
  // evict each other's binding).
  thread_local std::map<std::string, std::uint64_t> bound;
  arch::Core* core = worker_core(spec.core_name);
  auto& token = bound[spec.core_name];
  if (token != campaign_token) {
    core->begin(*spec.program, spec.cfg, nullptr);
    token = campaign_token;
  }
  return core;
}

// Hot-path metric handles (catalog in docs/OBSERVABILITY.md), registered
// once and mutated lock-free afterwards.  Collection is result-neutral:
// none of these feed RNG streams, simulation state or wire payloads.
struct CampaignMetrics {
  obs::Histogram& golden_record = obs::histogram("campaign.golden.record");
  obs::Histogram& snap_capture = obs::histogram("campaign.snapshot.capture");
  obs::Histogram& snap_restore = obs::histogram("campaign.snapshot.restore");
  obs::Histogram& fork_replay = obs::histogram("campaign.fork.replay");
  obs::Histogram& classify = obs::histogram("campaign.sample.classify");
  obs::Counter& samples = obs::counter("campaign.samples");
  obs::Counter& goldens = obs::counter("campaign.goldens");
  // Shards that forked from a recording another shard of their campaign
  // made in this process (TrajectoryMemo).
  obs::Counter& golden_reused = obs::counter("campaign.golden.reused");
  // Samples that end as golden without a fork: the strike was suppressed
  // by a hardened flip-flop, or it hit an FF slot golden never reads
  // again (dead at flip).
  obs::Counter& masked_suppressed = obs::counter("campaign.masked.suppressed");
  obs::Counter& masked_dead = obs::counter("campaign.masked.dead_at_flip");
  // How each forked run ended, and the cycles it simulated: the prefix
  // (fork checkpoint to injection) and the post-injection cycles per
  // ending (cycle-counter distance, recovery penalties included).
  obs::Counter& fork_converged = obs::counter("campaign.fork.converged");
  obs::Counter& fork_shifted = obs::counter("campaign.fork.converged_shifted");
  obs::Counter& fork_hung = obs::counter("campaign.fork.hung");
  obs::Counter& fork_benign = obs::counter("campaign.fork.ran_benign");
  obs::Counter& fork_failing = obs::counter("campaign.fork.ran_failing");
  obs::Counter& prefix_cycles = obs::counter("campaign.fork.prefix_cycles");
  obs::Counter& converged_cycles =
      obs::counter("campaign.fork.converged_cycles");
  obs::Counter& shifted_cycles =
      obs::counter("campaign.fork.converged_shifted_cycles");
  obs::Counter& hung_cycles = obs::counter("campaign.fork.hung_cycles");
  obs::Counter& benign_cycles = obs::counter("campaign.fork.benign_cycles");
  obs::Counter& failing_cycles = obs::counter("campaign.fork.failing_cycles");
};

CampaignMetrics& metrics() {
  static CampaignMetrics m;
  return m;
}

// Golden trajectory: periodic full-state snapshots, shared read-only by
// all workers.  Each snapshot doubles as the fork origin for injections in
// its interval and as the reference for the convergence test at its
// boundary, which compares only the FF slots live there.  The same
// recording answers, per sample, whether its strike lands in a slot that
// is dead at the injection cycle; such a sample never forks.  Immutable
// once recorded, so shards of one campaign can share it (TrajectoryMemo).
struct GoldenTrajectory {
  arch::CoreRunResult golden;   // the error-free run
  std::uint64_t watchdog = 0;   // faulty runs stop here: a Hang
  std::uint64_t interval = 0;
  std::vector<arch::CoreCheckpoint> checkpoints;  // at cycles 0, I, 2I, ...
  // One FF-pool live set per checkpoint, and the dead-at-flip answers.
  arch::FFLiveness live;
  std::vector<std::uint16_t> slot_of;  // FF-pool slot of every FF
  // Per checkpoint: cycles since golden's committed count last changed
  // (0 when an instruction committed in the cycle before the boundary).
  std::vector<std::uint64_t> since_commit;
  // Every FF-pool slot except the sinks (FFFlags::sink).
  std::vector<std::uint64_t> non_sink;
};

// A faulty run that is out of step with golden at a boundary looks for a
// shifted match for this many intervals after its injection, and never
// past golden's halt, where the hang probe takes over.  Later re-syncs
// are rare, and a run that never commits again (a wedged pipeline) would
// be stepped to the end of the window without a probe.
constexpr std::uint64_t kShiftSearchIntervals = 32;

enum class Seek { kMatched, kEnded, kGaveUp };

// Looks for a cycle t < stop at which the (quiescent) faulty run matches
// some golden checkpoint b, at whatever cycle B golden took it.  A run
// that executes golden's instruction stream d cycles late (or early)
// reaches golden's state at B only at B + d, where no same-cycle compare
// looks.  Candidates come from the committed-instruction count: golden
// committed cps[b].committed instructions by B, its last commit
// since_commit[b] cycles before B, so a run shifted by d reaches that
// count first at B - since_commit[b] + d and golden's state at B + d.
// The commit-bounded step stops there directly, without per-cycle calls.
// Candidates only steer where to compare: a match at any cycle proves
// the shifted ending (see run_forked), and a missed one costs only time.
Seek seek_shifted(arch::Core* core, const GoldenTrajectory& traj,
                  std::uint64_t stop, std::uint64_t watchdog,
                  std::uint64_t golden_cycles, std::size_t* matched) {
  const auto& cps = traj.checkpoints;
  // Golden never recovers, so its commit counts never decrease.  Start
  // at the first checkpoint past the run's count, so the first stop below
  // lands where that count begins.
  const std::uint64_t n = core->committed();
  std::size_t b = static_cast<std::size_t>(
      std::partition_point(
          cps.begin(), cps.end(),
          [n](const arch::CoreCheckpoint& cp) { return cp.committed <= n; }) -
      cps.begin());
  std::uint64_t count_start = 0;  // first cycle of the run's current count
  for (; b < cps.size(); ++b) {
    const std::uint64_t want = cps[b].committed;
    if (core->committed() < want) {
      if (!core->step_until(stop, watchdog, want)) return Seek::kEnded;
      if (core->committed() < want) return Seek::kGaveUp;  // reached stop
      count_start = core->cycle();
    }
    if (core->committed() != want) continue;  // the run skipped this count
    const std::uint64_t at = count_start + traj.since_commit[b];
    if (at >= stop) return Seek::kGaveUp;
    if (!core->step_until(at, watchdog, want + 1)) return Seek::kEnded;
    if (core->committed() != want) {  // the count ended before `at`
      count_start = core->cycle();
      continue;
    }
    // The shifted remainder must halt before the watchdog:
    // golden_cycles + (t - B) < watchdog.
    if (golden_cycles + core->cycle() < watchdog + cps[b].cycle &&
        core->quiescent() && core->state_matches(cps[b], traj.live.at(b))) {
      *matched = b;
      return Seek::kMatched;
    }
  }
  return Seek::kGaveUp;
}

// Brent's cycle detection over a run's boundary states past golden's
// halt: every probe compares the state with the saved one, which is
// replaced after 1, 2, 4, 8, ... probes, so a period of p probes is found
// within a few times p (docs/ARCHITECTURE.md, "FF liveness").
class HangProbe {
 public:
  // True once the run is provably periodic.  Call at boundaries where the
  // run is quiescent.
  bool repeats(arch::Core* core, const std::uint64_t* non_sink) {
    if (saved_any_ && recoveries_ == core->recovery_count() &&
        core->state_matches(saved_, non_sink)) {
      return true;
    }
    if (!saved_any_ || steps_ == power_) {
      core->snapshot(&saved_);
      saved_any_ = true;
      recoveries_ = core->recovery_count();
      power_ *= 2;
      steps_ = 0;
    }
    ++steps_;
    return false;
  }

 private:
  arch::CoreCheckpoint saved_;
  bool saved_any_ = false;
  std::uint32_t recoveries_ = 0;
  std::uint64_t power_ = 1;
  std::uint64_t steps_ = 0;
};

// Runs one faulty execution forked from the nearest golden checkpoint and
// classifies it.  Stops early once its ending is certain: it re-converged
// to golden's state at the same cycle or at a shifted one, or it repeats
// a state of its own after golden has halted.
Outcome run_forked(arch::Core* core, const GoldenTrajectory& traj,
                   const arch::InjectionPlan& plan, std::uint64_t inj_cycle,
                   std::uint64_t watchdog, const arch::CoreRunResult& golden,
                   const std::atomic<bool>* cancel) {
  const obs::Span replay_span(metrics().fork_replay);
  const std::uint64_t interval = traj.interval;
  const auto& cps = traj.checkpoints;
  const std::size_t ci = std::min<std::size_t>(
      static_cast<std::size_t>(inj_cycle / interval), cps.size() - 1);
  {
    const obs::Span restore_span(metrics().snap_restore);
    core->restore(cps[ci], &plan);
  }
  metrics().prefix_cycles.add(inj_cycle - cps[ci].cycle);
  const auto ran_to_end = [&] {
    const Outcome out = classify(core->current_result(), golden);
    const bool benign = out == Outcome::kVanished || out == Outcome::kRecovered;
    (benign ? metrics().fork_benign : metrics().fork_failing).add();
    (benign ? metrics().benign_cycles : metrics().failing_cycles)
        .add(core->cycle() - inj_cycle);
    return out;
  };
  // Convergence, by induction over the rest of the run.  Suppose the
  // faulty run is quiescent (no flip left, no detection pending) at cycle
  // t and agrees with golden's checkpoint b (cycle B) on every non-sink FF
  // slot golden will read before writing it (the live set) and on all
  // other forward state.  Then, step by step, every value the faulty run
  // reads to compute non-sink state equals golden's, so it takes golden's
  // path and writes golden's values; a dead slot that differs is written
  // before it is ever read, and a sink only ever feeds other sinks.  The
  // cycle counter is read only to apply flips, to time detections and by
  // the rollback ring -- none of which a quiescent run reaches -- so this
  // holds for t != B too: the run is golden's, t - B cycles late.  State
  // that bypasses the FF handles cannot break this: the rollback ring
  // flows back only through a recovery, which needs a detection, which
  // needs a new flip (none is left) or a read of a differing live value
  // (excluded above); snapshot/flip/read_bit are engine-side, not part of
  // the run.  So the remainder halts with golden's output, exactly what
  // classify() would conclude after simulating it, provided the shifted
  // halt comes before the watchdog (seek_shifted checks that).
  const auto converged = [&](std::size_t b) {
    const std::uint64_t cyc = core->cycle();
    if (cyc == cps[b].cycle) {
      metrics().fork_converged.add();
      metrics().converged_cycles.add(cyc - inj_cycle);
    } else {
      metrics().fork_shifted.add();
      metrics().shifted_cycles.add(cyc - inj_cycle);
    }
    return core->recovery_count() > 0 ? Outcome::kRecovered
                                      : Outcome::kVanished;
  };
  const std::uint64_t search_end = std::min(
      inj_cycle + kShiftSearchIntervals * interval, golden.cycles);
  HangProbe hang;
  for (;;) {
    check_cancel(cancel);
    const std::uint64_t boundary = (core->cycle() / interval + 1) * interval;
    if (!core->step_to(boundary, watchdog)) return ran_to_end();
    const std::uint64_t cyc = core->cycle();
    // Recovery latency charges can overshoot a boundary; the checks below
    // run only when the faulty run lands exactly on one.
    if (cyc % interval != 0 || !core->quiescent()) continue;
    const std::size_t bi = static_cast<std::size_t>(cyc / interval);
    if (bi < cps.size()) {
      if (core->state_matches(cps[bi], traj.live.at(bi))) return converged(bi);
      // A different committed count means the run is out of step with
      // golden's timing: look for golden's state at shifted cycles.
      if (cyc < search_end && core->committed() != cps[bi].committed) {
        std::size_t b = 0;
        switch (seek_shifted(core, traj, search_end, watchdog, golden.cycles,
                             &b)) {
          case Seek::kMatched:
            return converged(b);
          case Seek::kEnded:
            return ran_to_end();
          case Seek::kGaveUp:
            break;
        }
      }
    } else if (cyc > golden.cycles &&
               hang.repeats(core, traj.non_sink.data())) {
      // Periodic: the state at this boundary (every non-sink FF slot and
      // the whole forward region) equals the one saved at an earlier
      // boundary, both quiescent, and no recovery ran in between.  The
      // cycles between them were then a pure function of that state --
      // no flip, no detection, no cycle-counter read -- so they repeat
      // forever, and the run can only reach the watchdog: a Hang.
      metrics().fork_hung.add();
      metrics().hung_cycles.add(cyc - inj_cycle);
      return Outcome::kHang;
    }
  }
}

// ---- batched campaign execution --------------------------------------------
//
// One campaign of a batch.  The golden task sets traj and the nominal run
// length and flips `ready`; faulty tasks of the campaign wait on that.
struct CampaignJob {
  const CampaignSpec* spec = nullptr;
  std::size_t spec_index = 0;     // slot in the execute_campaigns() result
  std::uint32_t ff_count = 0;
  std::size_t injections = 0;     // global sample count
  std::size_t local_count = 0;    // samples owned by this shard
  std::uint64_t fp = 0;           // cache fingerprint; 0 = no caching
  std::uint64_t token = 0;
  // Written by the golden task, read by faulty tasks after `ready`.  The
  // trajectory is dropped once the job's last sample ran; the nominal
  // run outlives it for the result.
  std::shared_ptr<const GoldenTrajectory> traj;
  std::uint64_t nominal_cycles = 0;
  std::uint64_t nominal_instrs = 0;
  // One outcome per index of the current pass, written only by the pool
  // task that runs that index.  After the pass they fold, in index
  // order, into the result's counters (the samples this shard owns) and
  // into `decide` (pilot samples), so the tally costs O(samples), not
  // O(threads x flip-flops), and never depends on scheduling.
  std::vector<Outcome> outcomes;

  // ---- confidence-driven adaptive sampling (inject/adaptive.h) ----
  // pilot == 0 <=> fixed schedule (including adaptive specs whose budget
  // is too small to host a pilot; those keep planned == base).
  std::uint64_t pilot = 0;
  std::vector<std::uint64_t> milestones;
  std::vector<std::uint64_t> base;           // fixed-budget per-FF counts
  std::vector<adaptive::FfDecision> decide;  // GLOBAL pilot decision state
  std::vector<std::uint64_t> planned;        // final N_f, set after the pilot
  bool in_tail = false;                      // pilot done, tail built
  // Global sample indices this job simulates in the CURRENT pass (empty
  // for fixed jobs, which map their pass-1 work arithmetically).
  std::vector<std::uint64_t> pass_indices;
};

// ---- the samples a job may simulate ----------------------------------------
//
// The draws of one sample, in the order every sample makes them: the
// target FF is g mod ff_count, then the injection cycle, then the SER
// Bernoulli by which a hardened flip-flop suppresses the strike
// (Table 4).  They derive from the global index alone.
struct Strike {
  std::uint32_t ff = 0;
  std::uint64_t cycle = 0;
  bool upset = false;  // false: the strike was suppressed
};

Strike draw_strike(const CampaignJob& job, const GoldenTrajectory& traj,
                   std::uint64_t g) {
  const CampaignSpec& spec = *job.spec;
  util::Rng rng(util::hash_combine(spec.seed, g));
  Strike st;
  st.ff = static_cast<std::uint32_t>(g % job.ff_count);
  st.cycle = 1 + rng.below(traj.golden.cycles - 1);
  const arch::FFProt p =
      spec.cfg != nullptr ? spec.cfg->prot_of(st.ff) : arch::FFProt::kNone;
  st.upset = rng.bernoulli(ser_ratio(p));
  return st;
}

// An EDS or parity flip-flop can detect the upset in the cycle it is
// struck (CoreShell::apply_injections), whatever golden does with the
// slot afterwards, so neither the dead-slot nor the sink argument holds
// for it.
bool detected_when_struck(const CampaignSpec& spec, std::uint32_t ff) {
  if (spec.cfg == nullptr) return false;
  const arch::FFProt p = spec.cfg->prot_of(ff);
  return p == arch::FFProt::kEds || p == arch::FFProt::kParity;
}

// Whether the recording of `traj` asks about sample g, whose draws are
// `st`.  It asks about every sample below the budget, so one recording
// answers every shard of the campaign: those are all the samples a shard
// may simulate before its adaptive plan exists (the pilot never reaches
// past the budget), and an adaptive tail sample past it forks.  A golden
// run that recovered reads the rollback ring behind the access log's back
// (see record_golden), so its campaign asks nothing.
bool asks_about(const CampaignJob& job, const GoldenTrajectory& traj,
                std::uint64_t g, const Strike& st) {
  return st.upset && traj.golden.recoveries == 0 &&
         !detected_when_struck(*job.spec, st.ff) && g < job.injections;
}

// A strike the recording pass asks about: is FF-pool slot `slot` dead at
// cycle `cycle`?
struct FlipQuery {
  std::uint32_t cycle = 0;
  std::uint32_t slot = 0;
};
static_assert(kGoldenBudget <= 0xFFFFFFFFu, "query cycles are 32-bit");

// Orders the queries of cycles [first, first + span) by cycle: a
// counting sort over buckets of 2^shift cycles, the fewest that keep the
// bucket count at most the query count, then a sort within each bucket.
// A bucket is one cycle wide while the span is no longer than the query
// count.
void sort_by_cycle(std::vector<FlipQuery>* queries, std::uint64_t first,
                   std::uint64_t span) {
  const std::size_t n = queries->size();
  if (n < 2) return;
  unsigned shift = 0;
  while ((span >> shift) > n) ++shift;
  const auto bucket = [&](const FlipQuery& q) {
    return static_cast<std::size_t>((q.cycle - first) >> shift);
  };
  std::vector<std::size_t> end(static_cast<std::size_t>(span >> shift) + 2,
                               0);
  for (const FlipQuery& q : *queries) ++end[bucket(q) + 1];
  for (std::size_t b = 1; b < end.size(); ++b) end[b] += end[b - 1];
  std::vector<FlipQuery> out(n);
  for (const FlipQuery& q : *queries) out[end[bucket(q)]++] = q;
  if (shift > 0) {
    std::size_t begin = 0;
    for (const std::size_t stop : end) {
      std::sort(out.begin() + static_cast<std::ptrdiff_t>(begin),
                out.begin() + static_cast<std::ptrdiff_t>(stop),
                [](const FlipQuery& a, const FlipQuery& b) {
                  return a.cycle < b.cycle;
                });
      begin = stop;
    }
  }
  queries->swap(out);
}

// The strikes the recording pass asks about, handed out in cycle order.
// Holding every query at once would cost 8 bytes per sample, so the
// schedule keeps one byte per sample asked about naming the window of
// cycles its strike falls in (0: nothing asked), and redraws one window's
// queries at a time as the recording reaches it.
class QuerySchedule {
 public:
  // Replays the draws of every sample below the budget; also counts
  // the non-suppressed strikes among them, which placement prices.
  // `traj` holds the golden run and the slot map.
  QuerySchedule(const CampaignJob& job, const GoldenTrajectory& traj)
      : job_(job), traj_(traj), span_(traj.golden.cycles / kWindows + 1) {
    window_of_.reserve(job.injections);
    for (std::uint64_t g = 0; g < job.injections; ++g) {
      const Strike st = draw_strike(job, traj, g);
      if (st.upset) ++forks_;
      window_of_.push_back(
          asks_about(job, traj, g, st)
              ? static_cast<std::uint8_t>(1 + st.cycle / span_)
              : 0);
    }
  }
  [[nodiscard]] std::uint64_t forks() const noexcept { return forks_; }
  // The cycle of the next query, kGoldenBudget when none is left.
  std::uint64_t next_cycle() {
    while (next_ == due_.size() && loaded_ < kWindows) load(++loaded_);
    return next_ < due_.size() ? std::uint64_t{due_[next_].cycle}
                               : kGoldenBudget;
  }
  // Calls watch(slot) for every query at `cycle`, the next query cycle.
  template <class Fn>
  void pop(std::uint64_t cycle, Fn&& watch) {
    for (; next_cycle() == cycle; ++next_) watch(due_[next_].slot);
  }

 private:
  static constexpr std::uint8_t kWindows = 16;

  void load(std::uint8_t window) {
    due_.clear();
    next_ = 0;
    const std::uint8_t* w = window_of_.data();
    const std::size_t n = window_of_.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (w[i] != window) continue;
      const Strike st = draw_strike(job_, traj_, i);
      due_.push_back(
          {static_cast<std::uint32_t>(st.cycle), traj_.slot_of[st.ff]});
    }
    sort_by_cycle(&due_, (window - 1) * span_, span_);
  }

  const CampaignJob& job_;
  const GoldenTrajectory& traj_;
  const std::uint64_t span_;  // cycles per window
  std::vector<std::uint8_t> window_of_;  // per sample: 1 + window, or 0
  std::uint64_t forks_ = 0;
  std::vector<FlipQuery> due_;  // the loaded window's queries, by cycle
  std::size_t next_ = 0;        // due_[next_] is the next query
  std::uint8_t loaded_ = 0;     // 1 + the window in due_
};

// ---- adaptive snapshot placement -------------------------------------------
//
// Cost of taking one golden snapshot, in simulated-cycle equivalents.
// Measured on a 4-CPU x86 host: a capture costs 6.9 us on InO gcc and
// 10.8 us on OoO mcf (mean of campaign.snapshot.capture, 120,000-sample
// campaigns, seed 1), and the cores step 16.3M InO / 2.6M OoO cycles per
// second (perfbench probe) -- about 110 InO or 28 OoO cycles.  The InO
// figure, rounded, is kept: it errs towards coarser placement.  This
// constant only steers the snapshot-count / replay trade-off, it does
// not affect results.
constexpr std::uint64_t kSnapEquivCycles = 100;

// Snapshot interval for one campaign.  Every faulty sample's injection
// cycle derives from its global index alone (see simulate_sample), so the
// shard's fork-origin distribution is known *before* any faulty run
// starts.  A forked sample at cycle c replays c mod I golden cycles up to
// the injection and, since most faulty runs converge at the first
// boundary after it, another I - c mod I up to that compare: about I
// cycles per sample whatever c is (shifted matches and hang probes touch
// only the few percent of runs that are out of step or outlive golden).
// So the cost of interval I over the n
// non-suppressed local samples is snapshots(I) * kSnapEquivCycles + n * I.
// ~1/96 of the run is the first candidate, and the answer when every
// strike is suppressed.  The choice only moves work around -- per-sample
// injections and outcomes are interval-independent, so results stay
// bit-identical at any placement.
//
// `forks` counts one shard's share of the campaign's non-suppressed
// strikes (all of them divided by the shard count), dead at flip or not:
// placement is chosen before the recording pass that finds out which of
// them are dead, since that pass needs the interval.  Pricing the dead
// ones too errs towards denser placement.
std::uint64_t pick_interval(std::uint64_t nominal_cycles,
                            std::uint64_t forks) {
  const std::uint64_t first = std::max<std::uint64_t>(64, nominal_cycles / 96);
  if (forks == 0) return first;  // all strikes suppressed: no forks
  // The golden pass takes ~nominal/I + 1 snapshots.  Scan geometric
  // candidate counts (the cost curve is smooth, halving resolution is
  // plenty).
  const auto cost_of = [&](std::uint64_t iv) {
    return (nominal_cycles / iv + 1) * kSnapEquivCycles + forks * iv;
  };
  std::uint64_t best_interval = first;
  std::uint64_t best_cost = cost_of(first);
  for (std::uint64_t count = 1; count <= 4096; count *= 2) {
    const std::uint64_t iv = std::max<std::uint64_t>(16, nominal_cycles / count);
    const std::uint64_t c = cost_of(iv);
    if (c < best_cost) {
      best_cost = c;
      best_interval = iv;
    }
    if (iv <= 16) break;
  }
  return best_interval;
}

// Records the golden (error-free) reference run, which doubles as the
// recording pass for the fork snapshots, the live sets of the
// convergence compare and the dead-at-flip answers for every sample
// below the budget, so it serves any shard of the campaign.  Runs on a
// pool worker so recordings of different campaigns overlap each other
// and the faulty runs of already-recorded campaigns.
std::shared_ptr<const GoldenTrajectory> record_golden(
    const CampaignJob& job, const std::atomic<bool>* cancel) {
  const obs::Span golden_span(metrics().golden_record);
  metrics().goldens.add();
  const CampaignSpec& spec = *job.spec;
  const auto traj = std::make_shared<GoldenTrajectory>();
  // The snapshot interval depends on the nominal run length, which is
  // unknown until the golden run finishes: run once to learn the length,
  // then re-run recording snapshots at the chosen interval.  The golden
  // run is paid twice per campaign versus `injections` faulty runs, so
  // the extra pass is noise.
  traj->golden = worker_core(spec.core_name)
                     ->run(*spec.program, spec.cfg, nullptr, kGoldenBudget);
  if (traj->golden.status != isa::RunStatus::kHalted) {
    throw std::runtime_error("golden run did not halt for key " + spec.key);
  }
  // The recording pass runs the traced build of the core, which also
  // yields the FF live sets of every boundary (arch/liveness.h).  It is
  // built per recording and dropped after: faulty runs never trace.
  const std::unique_ptr<arch::Core> gcore =
      arch::make_traced_core(spec.core_name);
  static_assert(arch::FFRegistry::kMaxSlots <= 0x10000,
                "slot_of holds 16-bit slot indices");
  traj->slot_of.resize(job.ff_count);
  for (const arch::FFStructure& st : gcore->registry().structures()) {
    std::fill_n(traj->slot_of.begin() + st.first_ff, st.width,
                static_cast<std::uint16_t>(st.slot));
  }
  QuerySchedule queries(job, *traj);
  traj->interval =
      pick_interval(traj->golden.cycles, queries.forks() / spec.shard_count);
  gcore->begin(*spec.program, spec.cfg, nullptr);
  traj->live.start(*gcore);
  // The first cycle of golden's current committed count: the recording
  // steps from commit to commit to find it (one stop per instruction).
  std::uint64_t count_start = 0;
  // The recording also stops at every query cycle c, before the cycle
  // runs, to watch the queried slots there: a flip lands at the start of
  // cycle c, before any access of that cycle.
  const auto watch_due = [&] {
    queries.pop(gcore->cycle(), [&](std::uint32_t slot) {
      traj->live.watch(*gcore, slot);
    });
  };
  const auto capture = [&] {
    traj->since_commit.push_back(gcore->cycle() - count_start);
    traj->checkpoints.emplace_back();
    const obs::Span snap_span(metrics().snap_capture);
    gcore->snapshot(&traj->checkpoints.back());
  };
  const auto step_interval = [&] {
    const std::uint64_t boundary = gcore->cycle() + traj->interval;
    while (gcore->cycle() < boundary) {
      // Only a recovery moves the cycle count by more than one, and a
      // golden run that recovered asks nothing, so no query is skipped.
      const std::uint64_t stop = std::min(boundary, queries.next_cycle());
      const std::uint64_t have = gcore->committed();
      const bool running = gcore->step_until(stop, kGoldenBudget, have + 1);
      if (gcore->committed() != have) count_start = gcore->cycle();
      if (!running) return false;
      if (gcore->cycle() == stop && stop < boundary) watch_due();
    }
    return true;
  };
  capture();
  while (step_interval()) {
    check_cancel(cancel);
    traj->live.end_interval(*gcore);
    watch_due();
    capture();
  }
  traj->live.end_interval(*gcore);
  traj->non_sink = gcore->registry().sink_slots();
  for (std::uint64_t& w : traj->non_sink) w = ~w;
  if (gcore->cycle() != traj->golden.cycles) {
    throw std::logic_error("traced and untraced core builds diverged for key " +
                           spec.key);
  }
  // Liveness follows golden's own accesses only; a golden run that
  // recovered would also have read the rollback ring, which the access
  // log does not see.  No fault-free run detects anything, but such a
  // campaign would keep the word-exact compare (no live sets) and fork
  // every sample.
  if (traj->golden.recoveries == 0) {
    traj->live.finish();
  } else {
    traj->live = arch::FFLiveness{};
  }
  traj->watchdog = traj->golden.cycles * 2 + 1024;
  return traj;
}

// ---- golden trajectories shared by the shards of a campaign ----------------
//
// A process that runs several shards of one campaign (a `clear serve`
// worker in a fleet) records the golden trajectory once and keeps it;
// later shards reuse it.  Dead-at-flip answers are keyed by (slot,
// cycle), and every recording asks about every shard's samples, so
// results never depend on which shard recorded.  Shards that miss the
// memo at the same moment each record, and the first to finish is kept.
// Unsharded campaigns never come here: their recording is dropped with
// the batch.
class TrajectoryMemo {
 public:
  // Recordings kept; the least recently used one goes first, so a process
  // that cycles through more campaigns than this between two shards of
  // one of them records again.  A kept recording holds ~0.4 MB of
  // checkpoint segments on InO gcc and ~1.5 MB on OoO mcf (120,000
  // samples).
  static constexpr std::size_t kEntries = 8;

  static TrajectoryMemo& instance() {
    static TrajectoryMemo memo;
    return memo;
  }

  // The recording kept for campaign `id`, or null.
  std::shared_ptr<const GoldenTrajectory> find(std::uint64_t id) {
    const std::lock_guard<std::mutex> lock(m_);
    const auto it = entry(id);
    if (it == lru_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it);
    return it->traj;
  }

  // Keeps `traj` for campaign `id` unless a recording is already kept.
  void keep(std::uint64_t id, std::shared_ptr<const GoldenTrajectory> traj) {
    const std::lock_guard<std::mutex> lock(m_);
    if (entry(id) != lru_.end()) return;
    lru_.push_front(Entry{id, std::move(traj)});
    if (lru_.size() > kEntries) lru_.pop_back();
  }

 private:
  struct Entry {
    std::uint64_t id;
    std::shared_ptr<const GoldenTrajectory> traj;
  };

  std::list<Entry>::iterator entry(std::uint64_t id) {
    return std::find_if(lru_.begin(), lru_.end(),
                        [&](const Entry& e) { return e.id == id; });
  }

  std::mutex m_;
  std::list<Entry> lru_;  // most recently used first
};

// The memo key: everything the golden trajectory is a function of -- the
// core's layout identity (core, program, every ResilienceConfig field),
// the DFC signatures, seed, budget, and the shard count, since placement
// prices one shard's share of the forks.  The cache key is not part of
// it (it only names the campaign), so campaigns run without caching
// share recordings too.  Adaptive parameters are not either: the
// queries stop at the budget either way.
std::uint64_t memo_identity(const CampaignJob& job) {
  const CampaignSpec& spec = *job.spec;
  const isa::Program& prog = *spec.program;
  std::uint64_t h =
      arch::layout_identity(spec.core_name.c_str(), prog, spec.cfg);
  std::vector<std::pair<std::uint16_t, std::uint32_t>> sigs(
      prog.dfc_signatures.begin(), prog.dfc_signatures.end());
  std::sort(sigs.begin(), sigs.end());
  h = util::hash_combine(h, sigs.size());
  for (const auto& [block, sig] : sigs) {
    h = util::hash_combine(h, block);
    h = util::hash_combine(h, sig);
  }
  h = util::hash_combine(h, spec.seed);
  h = util::hash_combine(h, job.injections);
  return util::hash_combine(h, spec.shard_count);
}

// The golden trajectory `job` forks from: recorded for it, or, for a
// shard of a campaign this process has recorded, shared through the
// TrajectoryMemo.
std::shared_ptr<const GoldenTrajectory> golden_for(
    const CampaignJob& job, const std::atomic<bool>* cancel) {
  if (job.spec->shard_count == 1) return record_golden(job, cancel);
  const std::uint64_t id = memo_identity(job);
  TrajectoryMemo& memo = TrajectoryMemo::instance();
  if (auto traj = memo.find(id)) {
    metrics().golden_reused.add();
    return traj;
  }
  auto traj = record_golden(job, cancel);
  memo.keep(id, traj);
  return traj;
}

// Whether sample g, whose draws are `st`, strikes a slot that is dead at
// its cycle, as the recording pass found.
bool dead_at_flip(const CampaignJob& job, std::uint64_t g, const Strike& st) {
  const GoldenTrajectory& traj = *job.traj;
  return asks_about(job, traj, g, st) &&
         traj.live.dead(traj.slot_of[st.ff], st.cycle);
}

// One faulty sample.  `g` is the global sample index: the RNG, target
// flip-flop and injection cycle derive from it alone, which is what makes
// results independent of threads, batching and shard partitioning --
// adaptivity only decides WHICH indices run, never what an index produces.
Outcome simulate_sample(CampaignJob& job, std::size_t g,
                        const std::atomic<bool>* cancel) {
  const obs::Span classify_span(metrics().classify);
  metrics().samples.add();
  const GoldenTrajectory& traj = *job.traj;
  // Stratified-by-FF sampling with an index-derived RNG: results are
  // independent of thread scheduling and thread count.
  const Strike st = draw_strike(job, traj, g);
  // Circuit-hardened flip-flops suppress the upset with probability
  // 1 - SER ratio (Table 4); a suppressed strike vanishes by definition.
  if (!st.upset) {
    metrics().masked_suppressed.add();
    return Outcome::kVanished;
  }
  // A strike into a slot golden next writes (or never reads again) ends
  // as golden, which never recovers when it answers this
  // (docs/ARCHITECTURE.md, "FF liveness").
  if (dead_at_flip(job, g, st)) {
    metrics().masked_dead.add();
    return Outcome::kVanished;
  }
  const auto plan = arch::InjectionPlan::single(st.cycle, st.ff);
  return run_forked(bound_worker_core(*job.spec, job.token), traj, plan,
                    st.cycle, traj.watchdog, traj.golden, cancel);
}

// Folds the outcomes of the pass that just ran, in index order.  A
// pilot sample feeds the stop decision on every shard, since decisions
// need global counts, but only the owning shard's result (merge stays an
// exact sum); an owned or tail sample feeds the result only.
void fold_pass(CampaignJob& job, CampaignResult* result) {
  const CampaignSpec& spec = *job.spec;
  std::vector<OutcomeCounts>& per_ff = result->per_ff;
  if (job.pilot == 0) {
    // Local index l is global sample l * K + k, whose FF is that mod
    // ff_count: step it instead of dividing per sample.
    const std::uint64_t step = spec.shard_count % job.ff_count;
    std::uint64_t ff = spec.shard_index % job.ff_count;
    for (const Outcome out : job.outcomes) {
      per_ff[ff].add(out);
      ff += step;
      if (ff >= job.ff_count) ff -= job.ff_count;
    }
    return;
  }
  for (std::size_t l = 0; l < job.outcomes.size(); ++l) {
    const std::uint64_t g = job.pass_indices[l];
    const std::uint64_t ff = g % job.ff_count;
    const Outcome out = job.outcomes[l];
    if (job.in_tail || g % spec.shard_count == spec.shard_index) {
      per_ff[ff].add(out);
    }
    if (!job.in_tail) job.decide[ff].pilot.add(out);
  }
}

// Upper bound on the samples THIS SHARD will simulate for an adaptive
// job: the full pilot (redundant on every shard) plus its owned share of
// the worst-case tail.  Published as the initial progress total, then
// shrunk at every milestone barrier as FFs stop early.
std::uint64_t adaptive_upper_bound(const CampaignJob& job) {
  const CampaignSpec& spec = *job.spec;
  const std::uint64_t pilot_sims =
      static_cast<std::uint64_t>(job.ff_count) * job.pilot;
  std::uint64_t upper = pilot_sims;
  if (job.injections > pilot_sims) {
    upper += (job.injections - pilot_sims + spec.shard_count - 1) /
                 spec.shard_count +
             job.ff_count;
  }
  return upper;
}

}  // namespace

double CampaignResult::sdc_margin_of_error() const noexcept {
  return util::proportion_margin_of_error_95(
      static_cast<std::size_t>(totals.sdc()),
      static_cast<std::size_t>(totals.total()));
}

util::Interval CampaignResult::sdc_interval() const noexcept {
  return util::binomial_interval_95(confidence_method,
                                    static_cast<std::size_t>(totals.sdc()),
                                    static_cast<std::size_t>(totals.total()));
}

util::Interval CampaignResult::due_interval() const noexcept {
  return util::binomial_interval_95(confidence_method,
                                    static_cast<std::size_t>(totals.due()),
                                    static_cast<std::size_t>(totals.total()));
}

Outcome classify(const arch::CoreRunResult& faulty,
                 const arch::CoreRunResult& golden) noexcept {
  switch (faulty.status) {
    case isa::RunStatus::kDetected:
      return Outcome::kEd;
    case isa::RunStatus::kTrapped:
      return Outcome::kUt;
    case isa::RunStatus::kWatchdog:
      return Outcome::kHang;
    case isa::RunStatus::kHalted:
      if (faulty.output == golden.output) {
        return faulty.recoveries > 0 ? Outcome::kRecovered
                                     : Outcome::kVanished;
      }
      return Outcome::kOmm;
    case isa::RunStatus::kRunning:
      return Outcome::kHang;
  }
  return Outcome::kHang;
}

double ser_ratio(arch::FFProt p) noexcept {
  switch (p) {
    case arch::FFProt::kLeapDice:
    case arch::FFProt::kLeapCtrlRes:
      return 2.0e-4;  // Table 4
    case arch::FFProt::kLhl:
      return 2.5e-1;
    case arch::FFProt::kLeapCtrlEco:
    case arch::FFProt::kNone:
    case arch::FFProt::kEds:
    case arch::FFProt::kParity:
      return 1.0;
  }
  return 1.0;
}

std::string campaign_cache_dir() {
  // lint: allow(determinism): the cache only memoizes results, a hit returns the bytes a run would compute
  return util::env_string("CLEAR_CACHE_DIR", ".clear_cache");
}

CampaignResult empty_result_like(const CampaignResult& r) {
  CampaignResult out;
  out.ff_count = r.ff_count;
  out.nominal_cycles = r.nominal_cycles;
  out.nominal_instrs = r.nominal_instrs;
  out.confidence_target = r.confidence_target;
  out.confidence_method = r.confidence_method;
  out.pilot = r.pilot;
  out.planned = r.planned;
  out.per_ff.assign(out.ff_count, {});
  return out;
}

void fold_campaign_result(CampaignResult* into, const CampaignResult& r) {
  if (r.ff_count != into->ff_count || r.per_ff.size() != into->per_ff.size() ||
      r.nominal_cycles != into->nominal_cycles ||
      r.nominal_instrs != into->nominal_instrs) {
    throw std::invalid_argument(
        "merge_campaign_results: shards disagree on campaign identity");
  }
  // The adaptive plan is part of the identity: every shard derives the
  // same per-FF N_f from the same global pilot, so any disagreement
  // means the shards came from different campaigns (or a fixed-budget
  // shard is being mixed into an adaptive merge).
  if (f64_bits(r.confidence_target) != f64_bits(into->confidence_target) ||
      r.confidence_method != into->confidence_method ||
      r.pilot != into->pilot || r.planned != into->planned) {
    throw std::invalid_argument(
        "merge_campaign_results: shards disagree on the adaptive plan");
  }
  for (std::size_t f = 0; f < r.per_ff.size(); ++f) {
    into->per_ff[f].merge(r.per_ff[f]);
    into->totals.merge(r.per_ff[f]);
  }
}

CampaignResult merge_campaign_results(
    const std::vector<CampaignResult>& shards) {
  if (shards.empty()) {
    throw std::invalid_argument("merge_campaign_results: no shards");
  }
  CampaignResult out = empty_result_like(shards.front());
  for (const auto& s : shards) fold_campaign_result(&out, s);
  return out;
}

namespace detail {

namespace {

bool is_payload_space(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r';
}

// Strict reader over a cached payload: unsigned decimal fields and words,
// each followed by at least one whitespace byte (every line the writer
// emits ends in '\n').  A sign, an out-of-range value or a field cut off
// at the end of the payload fails the read.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  template <typename T>
  bool number(T* out) {
    skip_space();
    const auto [next, ec] = std::from_chars(p_, end_, *out);
    if (ec != std::errc() || next == end_ || !is_payload_space(*next)) {
      return false;
    }
    p_ = next;
    return true;
  }
  // Consumes `word` when it is the next token.
  bool word(std::string_view word) {
    skip_space();
    const std::size_t left = static_cast<std::size_t>(end_ - p_);
    if (left <= word.size() || std::string_view(p_, word.size()) != word ||
        !is_payload_space(p_[word.size()])) {
      return false;
    }
    p_ += word.size();
    return true;
  }
  bool at_end() {
    skip_space();
    return p_ == end_;
  }

 private:
  void skip_space() {
    while (p_ != end_ && is_payload_space(*p_)) ++p_;
  }

  const char* p_;
  const char* end_;
};

}  // namespace

bool parse_result(std::string_view payload, std::uint64_t fp,
                  std::uint32_t expected_ffs, bool adaptive,
                  CampaignResult* out) {
  PayloadReader in(payload);
  std::uint64_t file_fp = 0;
  std::uint32_t ffs = 0;
  CampaignResult r;
  if (!in.number(&file_fp) || !in.number(&ffs) ||
      !in.number(&r.nominal_cycles) || !in.number(&r.nominal_instrs)) {
    return false;
  }
  if (file_fp != fp || ffs != expected_ffs || r.nominal_cycles == 0) {
    return false;
  }
  r.ff_count = ffs;
  r.per_ff.assign(ffs, {});
  for (OutcomeCounts& c : r.per_ff) {
    if (!in.number(&c.vanished) || !in.number(&c.omm) || !in.number(&c.ut) ||
        !in.number(&c.hang) || !in.number(&c.ed) ||
        !in.number(&c.recovered)) {
      return false;
    }
    r.totals.merge(c);
  }
  if (adaptive) {
    std::uint32_t method = 0;
    std::uint64_t target_bits = 0;
    if (!in.word("adaptive") || !in.number(&method) ||
        !in.number(&target_bits) || !in.number(&r.pilot) || method > 1) {
      return false;
    }
    r.confidence_method = static_cast<util::IntervalMethod>(method);
    r.confidence_target = bits_f64(target_bits);
    if (!(r.confidence_target > 0.0) || r.confidence_target > 0.5) {
      return false;
    }
    r.planned.assign(ffs, 0);
    for (std::uint64_t& n : r.planned) {
      if (!in.number(&n)) return false;
    }
  }
  if (!in.at_end()) return false;
  *out = std::move(r);
  return true;
}

namespace {

// Appends the decimal form of each value, space-separated, then '\n'.
template <class... T>
void put_line(std::string* out, T... values) {
  // 20 digits (a u64) plus a separator per value; the digits never get
  // the last byte, so the separator after them always fits.
  char buf[21 * sizeof...(T)];
  char* const digits_end = buf + sizeof(buf) - 1;
  char* p = buf;
  ((p = std::to_chars(p, digits_end, values).ptr, *p++ = ' '), ...);
  p[-1] = '\n';
  out->append(buf, static_cast<std::size_t>(p - buf));
}

}  // namespace

std::string serialize_result(std::uint64_t fp, const CampaignResult& r) {
  // Most rows of a shard's result are all zero (a shard owns about
  // samples / ff_count samples per FF); size for that and let the rare
  // long row grow the string.
  std::string out;
  out.reserve(96 + 12 * r.per_ff.size() + 21 * r.planned.size());
  put_line(&out, fp, r.ff_count, r.nominal_cycles, r.nominal_instrs);
  for (const OutcomeCounts& c : r.per_ff) {
    if ((c.vanished | c.omm | c.ut | c.hang | c.ed | c.recovered) == 0) {
      out.append("0 0 0 0 0 0\n");
    } else {
      put_line(&out, c.vanished, c.omm, c.ut, c.hang, c.ed, c.recovered);
    }
  }
  if (r.adaptive()) {
    out.append("adaptive ");
    put_line(&out, static_cast<std::uint32_t>(r.confidence_method),
             f64_bits(r.confidence_target), r.pilot);
    for (const std::uint64_t n : r.planned) put_line(&out, n);
  }
  return out;
}

namespace {

// A validated job for `spec` with its sample schedule laid out; nothing
// is simulated yet.
CampaignJob plan_job(const CampaignSpec& spec) {
  arch::Core* proto = worker_core(spec.core_name);
  if (proto == nullptr) {
    throw std::invalid_argument("unknown core " + spec.core_name);
  }
  if (spec.shard_count == 0 || spec.shard_index >= spec.shard_count) {
    throw std::invalid_argument("invalid shard " +
                                std::to_string(spec.shard_index) + "/" +
                                std::to_string(spec.shard_count) +
                                " for key " + spec.key);
  }
  if (spec.adaptive() &&
      (!(spec.confidence_half_width > 0.0) ||
       !(spec.confidence_half_width <= 0.5))) {
    throw std::invalid_argument("confidence half-width must be in (0, 0.5]"
                                " for key " + spec.key);
  }
  CampaignJob job;
  job.spec = &spec;
  job.ff_count = proto->registry().ff_count();
  job.injections = spec.injections != 0 ? spec.injections : job.ff_count;
  job.local_count =
      job.injections > spec.shard_index
          ? (job.injections - spec.shard_index + spec.shard_count - 1) /
                spec.shard_count
          : 0;
  if (spec.adaptive()) {
    job.base = adaptive::fixed_budget(job.injections, job.ff_count);
    std::uint64_t min_base = job.base.empty() ? 0 : job.base.front();
    for (const std::uint64_t b : job.base) min_base = std::min(min_base, b);
    job.pilot = adaptive::pilot_ordinals(min_base);
    job.milestones = adaptive::milestone_ladder(job.pilot);
    if (job.pilot != 0) {
      job.decide.assign(job.ff_count, {});
    } else {
      // Budget too small for a pilot: run the fixed schedule, but keep
      // the adaptive identity (planned == base on every shard).
      job.planned = job.base;
    }
  }
  return job;
}

}  // namespace

std::vector<std::uint64_t> dead_at_flip_samples(const CampaignSpec& spec) {
  CampaignJob job = plan_job(spec);
  job.traj = golden_for(job, nullptr);
  // The shard's own samples below the budget: the pilot, which every
  // shard simulates, and the indices it owns past it.
  const std::uint64_t pilot_span = job.pilot * job.ff_count;
  std::vector<std::uint64_t> dead;
  for (std::uint64_t g = 0; g < job.injections; ++g) {
    if (g >= pilot_span && g % spec.shard_count != spec.shard_index) continue;
    if (dead_at_flip(job, g, draw_strike(job, *job.traj, g))) {
      dead.push_back(g);
    }
  }
  return dead;
}

std::vector<CampaignResult> execute_campaigns(
    const std::vector<CampaignSpec>& specs, const BatchHooks& hooks) {
  std::vector<CampaignResult> results(specs.size());
  if (specs.empty()) return results;
  const std::atomic<bool>* cancel = hooks.cancel;

  const std::string cache_dir = campaign_cache_dir();
  std::vector<CampaignJob> jobs;
  jobs.reserve(specs.size());
  for (std::size_t si = 0; si < specs.size(); ++si) {
    const CampaignSpec& spec = specs[si];
    CampaignJob job = plan_job(spec);
    job.spec_index = si;
    if (!spec.key.empty() && !cache_dir.empty()) {
      job.fp = spec_fingerprint(spec, job.injections);
      std::string payload;
      if (CachePack::instance(cache_dir).get(job.fp, &payload) &&
          parse_result(payload, job.fp, job.ff_count, spec.adaptive(),
                       &results[si])) {
        continue;  // served from the pack
      }
    }
    jobs.push_back(std::move(job));
  }
  if (jobs.empty()) {
    // Whole batch served from the cache pack: publish empty totals so
    // progress reads as complete, not as still-planning.
    if (hooks.goldens_total) hooks.goldens_total->store(0);
    if (hooks.samples_total) hooks.samples_total->store(0);
    return results;
  }
  check_cancel(cancel);

  unsigned threads = 0;
  std::size_t upper_total = 0;  // worst-case sims this shard performs
  for (auto& job : jobs) {
    // A thread count only schedules: samples derive from global indices.
    const unsigned want = job.spec->threads != 0
                              ? util::resolve_threads(job.spec->threads)
                              : util::env_threads();
    threads = std::max(threads, want);
    upper_total += job.pilot != 0
                       ? static_cast<std::size_t>(adaptive_upper_bound(job))
                       : job.local_count;
    job.token = g_campaign_tokens.fetch_add(1, std::memory_order_relaxed);
  }
  threads = static_cast<unsigned>(std::min<std::size_t>(
      threads, std::max<std::size_t>(1, upper_total / 64)));
  for (auto& job : jobs) {
    results[job.spec_index].per_ff.assign(job.ff_count, {});
    if (job.pilot != 0) {
      // Milestone round 0: per-FF ordinals [0, milestones[0]) of every FF,
      // on every shard (decisions need global counts).
      job.pass_indices.reserve(static_cast<std::size_t>(job.milestones[0]) *
                               job.ff_count);
      for (std::uint64_t ord = 0; ord < job.milestones[0]; ++ord) {
        for (std::uint32_t f = 0; f < job.ff_count; ++f) {
          job.pass_indices.push_back(ord * job.ff_count + f);
        }
      }
    }
  }
  // Planning is done: publish the work totals the progress counters count
  // toward (cache-served campaigns are excluded from both phases).  For
  // adaptive campaigns the sample total is an UPPER BOUND that shrinks at
  // every milestone barrier as per-FF campaigns stop early.
  if (hooks.goldens_total) hooks.goldens_total->store(jobs.size());
  if (hooks.samples_total) hooks.samples_total->store(upper_total);
  std::uint64_t published_total = upper_total;
  std::uint64_t executed_sofar = 0;

  const std::size_t njobs = jobs.size();
  // Shards of one campaign in this batch fork from one recording: the
  // first of them (the leader) records it, or takes it from the
  // TrajectoryMemo, and hands it to the others (its followers) before
  // they become ready.
  std::vector<std::size_t> leaders;
  std::vector<std::vector<std::size_t>> followers(njobs);
  {
    std::vector<std::pair<std::uint64_t, std::size_t>> sharded;  // id, leader
    for (std::size_t j = 0; j < njobs; ++j) {
      if (jobs[j].spec->shard_count > 1) {
        const std::uint64_t id = memo_identity(jobs[j]);
        const auto same = std::find_if(
            sharded.begin(), sharded.end(),
            [&](const auto& e) { return e.first == id; });
        if (same != sharded.end()) {
          followers[same->second].push_back(j);
          continue;
        }
        sharded.emplace_back(id, j);
      }
      leaders.push_back(j);
    }
  }
  std::mutex batch_m;
  std::condition_variable batch_cv;
  std::vector<char> ready(njobs, 0);  // golden attempted (set even on throw)
  std::vector<char> golden_ok(njobs, 0);
  // Checkpoints dominate a batch's memory (each holds a full state + data
  // image, ~96 per campaign): drop a fixed campaign's trajectory as soon
  // as its last faulty sample finishes instead of holding every
  // trajectory until the whole batch drains.  Adaptive campaigns keep
  // theirs across milestone rounds and free them after the tail pass.  A
  // recording the TrajectoryMemo keeps outlives the job's reference.
  std::vector<std::atomic<std::size_t>> samples_left(njobs);
  for (std::size_t j = 0; j < njobs; ++j) {
    samples_left[j].store(jobs[j].local_count, std::memory_order_relaxed);
  }

  // One pool pass.  The first pass carries the golden recordings in its
  // leading indices (the pool hands indices out monotonically, so every
  // golden is claimed by some worker before any faulty sample -- a faulty
  // task that finds its campaign's golden not yet `ready` can safely
  // block on the batch condition variable: the recording is already in
  // flight on another worker, or this batch is aborting).  Fixed jobs map
  // their samples arithmetically and only have work in the first pass;
  // adaptive jobs execute their current `pass_indices` (pilot rounds,
  // then the owned tail).  Later passes are pure sample work: milestone
  // barriers between passes are what keeps stop decisions a function of
  // sample counts, never of arrival order.
  const auto run_pass = [&](bool with_goldens) {
    std::vector<std::size_t> prefix(njobs + 1, 0);
    for (std::size_t j = 0; j < njobs; ++j) {
      const std::size_t count = jobs[j].pilot != 0
                                    ? jobs[j].pass_indices.size()
                                    : (with_goldens ? jobs[j].local_count : 0);
      prefix[j + 1] = prefix[j] + count;
    }
    const std::size_t total = prefix[njobs];
    const std::size_t lead = with_goldens ? leaders.size() : 0;
    if (lead + total == 0) return;
    for (std::size_t j = 0; j < njobs; ++j) {
      jobs[j].outcomes.assign(prefix[j + 1] - prefix[j], Outcome::kVanished);
    }
    util::ThreadPool::instance().run(
        lead + total, threads, [&](std::size_t i, unsigned /*worker_id*/) {
          if (i < lead) {
            const std::size_t l = leaders[i];
            const std::vector<std::size_t>& shares = followers[l];
            std::shared_ptr<const GoldenTrajectory> traj;
            try {
              check_cancel(cancel);
              traj = golden_for(jobs[l], cancel);
            } catch (...) {
              {
                std::lock_guard<std::mutex> g(batch_m);
                // Wake waiters; golden_ok stays 0.
                ready[l] = 1;
                for (const std::size_t k : shares) ready[k] = 1;
              }
              batch_cv.notify_all();
              throw;  // first exception is rethrown by the pool
            }
            metrics().golden_reused.add(shares.size());
            {
              std::lock_guard<std::mutex> g(batch_m);
              const auto take = [&](std::size_t k) {
                jobs[k].traj = traj;
                jobs[k].nominal_cycles = traj->golden.cycles;
                jobs[k].nominal_instrs = traj->golden.instrs;
                ready[k] = golden_ok[k] = 1;
              };
              take(l);
              for (const std::size_t k : shares) take(k);
            }
            batch_cv.notify_all();
            if (hooks.goldens_done) {
              hooks.goldens_done->fetch_add(1 + shares.size(),
                                            std::memory_order_relaxed);
            }
            return;
          }
          const std::size_t fi = i - lead;
          const std::size_t j =
              static_cast<std::size_t>(
                  std::upper_bound(prefix.begin(), prefix.end(), fi) -
                  prefix.begin()) -
              1;
          CampaignJob& job = jobs[j];
          if (with_goldens) {
            std::unique_lock<std::mutex> g(batch_m);
            batch_cv.wait(g, [&] { return ready[j] != 0; });
            if (!golden_ok[j]) return;  // aborting: the recording threw
          }
          check_cancel(cancel);
          const std::size_t local = fi - prefix[j];
          if (job.pilot == 0) {
            const std::size_t global =
                local * job.spec->shard_count + job.spec->shard_index;
            job.outcomes[local] = simulate_sample(job, global, cancel);
            if (hooks.samples_done) {
              hooks.samples_done->fetch_add(1, std::memory_order_relaxed);
            }
            if (samples_left[j].fetch_sub(1, std::memory_order_acq_rel) ==
                1) {
              job.traj.reset();
            }
            return;
          }
          job.outcomes[local] = simulate_sample(
              job, static_cast<std::size_t>(job.pass_indices[local]), cancel);
          if (hooks.samples_done) {
            hooks.samples_done->fetch_add(1, std::memory_order_relaxed);
          }
        });
    for (auto& job : jobs) fold_pass(job, &results[job.spec_index]);
    executed_sofar += total;
  };

  run_pass(/*with_goldens=*/true);

  // Milestone barriers.  Round r simulated per-FF ordinals
  // [milestones[r-1], milestones[r]) of every open FF; the barrier folds
  // the round's global decision counts, applies the stop rule at
  // milestones[r], and builds the next pass.  Jobs whose ladder ends
  // early move to their tail while others continue piloting.
  std::size_t max_rounds = 0;
  for (const auto& job : jobs) {
    max_rounds = std::max(max_rounds, job.milestones.size());
  }
  for (std::size_t r = 0; r < max_rounds; ++r) {
    check_cancel(cancel);
    for (auto& job : jobs) {
      if (job.pilot == 0) continue;
      if (job.in_tail || r >= job.milestones.size()) {
        job.pass_indices.clear();  // tail (or ladder) already ran
        continue;
      }
      const CampaignSpec& spec = *job.spec;
      adaptive::apply_milestone(job.milestones[r], spec.confidence_half_width,
                                spec.confidence_method, &job.decide);
      job.pass_indices.clear();
      if (r + 1 < job.milestones.size()) {
        for (std::uint64_t ord = job.milestones[r];
             ord < job.milestones[r + 1]; ++ord) {
          for (std::uint32_t f = 0; f < job.ff_count; ++f) {
            if (job.decide[f].stopped_at != 0) continue;
            job.pass_indices.push_back(ord * job.ff_count + f);
          }
        }
      } else {
        job.planned = adaptive::plan_final_counts(
            job.decide, job.pilot, job.base, spec.confidence_half_width,
            spec.confidence_method);
        job.in_tail = true;
        for (std::uint32_t f = 0; f < job.ff_count; ++f) {
          for (std::uint64_t ord = job.pilot; ord < job.planned[f]; ++ord) {
            const std::uint64_t g = ord * job.ff_count + f;
            if (g % spec.shard_count == spec.shard_index) {
              job.pass_indices.push_back(g);
            }
          }
        }
      }
    }
    // Shrink the published sample total: executed so far plus a fresh
    // upper bound on what is left, clamped monotone.
    if (hooks.samples_total) {
      std::uint64_t remaining = 0;
      for (const auto& job : jobs) {
        if (job.pilot == 0) continue;
        if (job.in_tail || r >= job.milestones.size()) {
          remaining += job.pass_indices.size();
          continue;
        }
        const CampaignSpec& spec = *job.spec;
        std::uint64_t open = 0;
        std::uint64_t committed = 0;
        for (std::uint32_t f = 0; f < job.ff_count; ++f) {
          const std::uint64_t stop = job.decide[f].stopped_at;
          if (stop == 0) ++open;
          committed += stop != 0 ? stop : job.milestones[r];
        }
        remaining += open * (job.pilot - job.milestones[r]);
        if (job.injections > committed) {
          remaining += (job.injections - committed + spec.shard_count - 1) /
                           spec.shard_count +
                       open;
        }
      }
      published_total = std::min(published_total, executed_sofar + remaining);
      hooks.samples_total->store(published_total);
    }
    if (r + 1 < max_rounds) run_pass(/*with_goldens=*/false);
  }
  // Tail pass: every adaptive job's remaining owned samples (jobs whose
  // ladder ended early already ran theirs during later pilot rounds and
  // carry an empty list here).
  run_pass(/*with_goldens=*/false);
  for (auto& job : jobs) {
    if (job.pilot != 0) job.traj.reset();
  }
  if (hooks.samples_total && executed_sofar < published_total) {
    hooks.samples_total->store(executed_sofar);  // final exact count
  }

  // A cancel that raced the last sample still aborts here, before any
  // cache write: a cancelled batch never persists anything.
  check_cancel(cancel);
  std::vector<CacheRecord> records;
  for (auto& job : jobs) {
    CampaignResult& result = results[job.spec_index];
    result.ff_count = job.ff_count;
    result.nominal_cycles = job.nominal_cycles;
    result.nominal_instrs = job.nominal_instrs;
    for (const auto& c : result.per_ff) result.totals.merge(c);
    if (job.spec->adaptive()) {
      result.confidence_target = job.spec->confidence_half_width;
      result.confidence_method = job.spec->confidence_method;
      result.pilot = job.pilot;
      result.planned = job.planned;
    }
    if (job.fp != 0) {
      records.push_back({job.fp, cache_label(*job.spec),
                         serialize_result(job.fp, result)});
    }
  }
  if (!records.empty()) CachePack::instance(cache_dir).put(records);
  return results;
}

}  // namespace detail

}  // namespace clear::inject
