#include "inject/campaign.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cctype>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <cstring>

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

// Campaign payload <-> text (the CPK1 record payload, docs/FORMATS.md).
// Parsing tolerates truncated or corrupted payloads: any parse failure,
// fingerprint mismatch or implausible header leaves *out untouched and
// returns false, so the caller falls back to re-running the campaign (and
// rewrites the cache entry).
bool parse_result(const std::string& payload, std::uint64_t fp,
                  std::uint32_t expected_ffs, CampaignResult* out) {
  std::istringstream in(payload);
  std::uint64_t file_fp = 0;
  std::uint32_t ffs = 0;
  CampaignResult r;
  if (!(in >> file_fp >> ffs >> r.nominal_cycles >> r.nominal_instrs)) {
    return false;
  }
  if (file_fp != fp || ffs != expected_ffs || r.nominal_cycles == 0) {
    return false;
  }
  r.ff_count = ffs;
  r.per_ff.assign(ffs, {});
  for (std::uint32_t i = 0; i < ffs; ++i) {
    OutcomeCounts& c = r.per_ff[i];
    if (!(in >> c.vanished >> c.omm >> c.ut >> c.hang >> c.ed >> c.recovered)) {
      return false;
    }
    r.totals.merge(c);
  }
  // Optional adaptive block (fingerprints keep adaptive and fixed entries
  // from ever aliasing, so its presence is self-consistent with the probe).
  std::string tag;
  if (in >> tag) {
    if (tag != "adaptive") return false;
    std::uint32_t method = 0;
    std::uint64_t target_bits = 0;
    if (!(in >> method >> target_bits >> r.pilot)) return false;
    if (method > 1) return false;
    r.confidence_method = static_cast<util::IntervalMethod>(method);
    r.confidence_target = bits_f64(target_bits);
    if (!(r.confidence_target > 0.0) || r.confidence_target > 0.5) {
      return false;
    }
    r.planned.assign(ffs, 0);
    for (std::uint32_t i = 0; i < ffs; ++i) {
      if (!(in >> r.planned[i])) return false;
    }
  }
  *out = std::move(r);
  return true;
}

std::string serialize_result(std::uint64_t fp, const CampaignResult& r) {
  std::ostringstream out;
  out << fp << ' ' << r.ff_count << ' ' << r.nominal_cycles << ' '
      << r.nominal_instrs << '\n';
  for (const auto& c : r.per_ff) {
    out << c.vanished << ' ' << c.omm << ' ' << c.ut << ' ' << c.hang << ' '
        << c.ed << ' ' << c.recovered << '\n';
  }
  if (r.adaptive()) {
    out << "adaptive " << static_cast<std::uint32_t>(r.confidence_method)
        << ' ' << f64_bits(r.confidence_target) << ' ' << r.pilot << '\n';
    for (const std::uint64_t n : r.planned) out << n << '\n';
  }
  return out.str();
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
  // How each forked run ended, and the cycles it simulated: the prefix
  // (fork checkpoint to injection) and the post-injection cycles per
  // ending (cycle-counter distance, recovery penalties included).
  obs::Counter& fork_converged = obs::counter("campaign.fork.converged");
  obs::Counter& fork_benign = obs::counter("campaign.fork.ran_benign");
  obs::Counter& fork_failing = obs::counter("campaign.fork.ran_failing");
  obs::Counter& prefix_cycles = obs::counter("campaign.fork.prefix_cycles");
  obs::Counter& converged_cycles =
      obs::counter("campaign.fork.converged_cycles");
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
// boundary, which compares only the FF slots live there.
struct GoldenTrajectory {
  std::uint64_t interval = 0;
  std::vector<arch::CoreCheckpoint> checkpoints;  // at cycles 0, I, 2I, ...
  arch::FFLiveness live;  // one FF-pool live set per checkpoint

  void release() {
    std::vector<arch::CoreCheckpoint>().swap(checkpoints);
    live = arch::FFLiveness{};
  }
};

// Runs one faulty execution forked from the nearest golden checkpoint and
// classifies it.  Early-terminates as soon as the faulty state provably
// re-converges to the golden trajectory at a checkpoint boundary.
Outcome run_forked(arch::Core* core, const GoldenTrajectory& traj,
                   const arch::InjectionPlan& plan, std::uint64_t inj_cycle,
                   std::uint64_t watchdog, const arch::CoreRunResult& golden,
                   const std::atomic<bool>* cancel) {
  const obs::Span replay_span(metrics().fork_replay);
  const std::uint64_t interval = traj.interval;
  const std::size_t ci =
      std::min<std::size_t>(static_cast<std::size_t>(inj_cycle / interval),
                            traj.checkpoints.size() - 1);
  {
    const obs::Span restore_span(metrics().snap_restore);
    core->restore(traj.checkpoints[ci], &plan);
  }
  metrics().prefix_cycles.add(inj_cycle - traj.checkpoints[ci].cycle);
  for (;;) {
    check_cancel(cancel);
    const std::uint64_t boundary = (core->cycle() / interval + 1) * interval;
    if (!core->step_to(boundary, watchdog)) {
      const Outcome out = classify(core->current_result(), golden);
      const bool benign =
          out == Outcome::kVanished || out == Outcome::kRecovered;
      (benign ? metrics().fork_benign : metrics().fork_failing).add();
      (benign ? metrics().benign_cycles : metrics().failing_cycles)
          .add(core->cycle() - inj_cycle);
      return out;
    }
    const std::uint64_t cyc = core->cycle();
    // Recovery latency charges can overshoot a boundary; convergence is
    // only checked when the faulty run lands exactly on one.
    if (cyc % interval != 0) continue;
    const std::size_t bi = static_cast<std::size_t>(cyc / interval);
    // Convergence, by induction over the rest of the run.  Suppose the
    // faulty run is quiescent (no flip left, no detection pending) and
    // agrees with golden at this boundary on every FF slot golden will
    // read before writing it (the live set) and on all other forward
    // state.  Then, step by step, every value the faulty run reads equals
    // golden's, so it takes golden's path and writes golden's values; a
    // dead slot that differs is written before it is ever read.  State
    // that bypasses the FF handles cannot break this: the rollback ring
    // flows back only through a recovery, which needs a detection, which
    // needs a new flip (none is left) or a read of a differing live value
    // (excluded above); snapshot/flip/read_bit are engine-side, not part
    // of the run.  So the remainder is golden's: it halts with golden's
    // output, exactly what classify() would conclude after simulating it.
    if (bi < traj.checkpoints.size() && core->quiescent() &&
        core->state_matches(traj.checkpoints[bi], traj.live.at(bi))) {
      metrics().fork_converged.add();
      metrics().converged_cycles.add(cyc - inj_cycle);
      return core->recovery_count() > 0 ? Outcome::kRecovered
                                        : Outcome::kVanished;
    }
  }
}

// ---- batched campaign execution --------------------------------------------
//
// One campaign of a batch.  The golden-recording task fills traj/golden/
// watchdog and flips `ready`; faulty tasks of the campaign wait on that.
struct CampaignJob {
  const CampaignSpec* spec = nullptr;
  std::size_t spec_index = 0;     // slot in the execute_campaigns() result
  std::uint32_t ff_count = 0;
  std::size_t injections = 0;     // global sample count
  std::size_t local_count = 0;    // samples owned by this shard
  std::uint64_t fp = 0;           // cache fingerprint; 0 = no caching
  std::uint64_t token = 0;
  // Written by the golden task, read by faulty tasks after `ready`.
  GoldenTrajectory traj;
  arch::CoreRunResult golden;
  std::uint64_t watchdog = 0;
  // One OutcomeCounts strip per pool worker plus one for the inline
  // caller slot, merged afterwards: counter addition is commutative, so
  // totals are independent of scheduling.
  std::vector<std::vector<OutcomeCounts>> partials;

  // ---- confidence-driven adaptive sampling (inject/adaptive.h) ----
  // pilot == 0 <=> fixed schedule (including adaptive specs whose budget
  // is too small to host a pilot; those keep planned == base).
  std::uint64_t pilot = 0;
  std::vector<std::uint64_t> milestones;
  std::vector<std::uint64_t> base;           // fixed-budget per-FF counts
  std::vector<adaptive::FfDecision> decide;  // GLOBAL pilot decision state
  std::vector<std::uint64_t> planned;        // final N_f, set after the pilot
  bool in_tail = false;                      // pilot done, tail built
  // Decision strips for the current milestone round, one per worker slot;
  // folded into `decide` and cleared at every round barrier.  Kept apart
  // from `partials`: decisions see every shard's pilot samples, result
  // accounting only this shard's owned ones.
  std::vector<std::vector<OutcomeCounts>> decide_partials;
  // Global sample indices this job simulates in the CURRENT pass (empty
  // for fixed jobs, which map their pass-1 work arithmetically).
  std::vector<std::uint64_t> pass_indices;
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
// cycles per sample whatever c is.  So the cost of interval I over the n
// non-suppressed local samples is snapshots(I) * kSnapEquivCycles + n * I.
// ~1/96 of the run is the first candidate, and the answer when every
// strike is suppressed.  The choice only moves work around -- per-sample
// injections and outcomes are interval-independent, so results stay
// bit-identical at any placement.
std::uint64_t pick_interval(const CampaignJob& job,
                            std::uint64_t nominal_cycles) {
  const CampaignSpec& spec = *job.spec;
  const std::uint64_t first = std::max<std::uint64_t>(64, nominal_cycles / 96);
  // Replay the per-sample RNG draws (identical order to run_faulty_sample)
  // to count the non-suppressed strikes this shard will fork for.
  std::uint64_t forks = 0;
  for (std::size_t l = 0; l < job.local_count; ++l) {
    const std::size_t g = l * spec.shard_count + spec.shard_index;
    util::Rng rng(util::hash_combine(spec.seed, g));
    const auto ff = static_cast<std::uint32_t>(g % job.ff_count);
    (void)rng.below(nominal_cycles - 1);  // the injection cycle draw
    const arch::FFProt p =
        spec.cfg != nullptr ? spec.cfg->prot_of(ff) : arch::FFProt::kNone;
    if (rng.bernoulli(ser_ratio(p))) ++forks;
  }
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
// recording pass for the fork snapshots and convergence hashes.  Runs on a
// pool worker so recordings of different campaigns overlap each other and
// the faulty runs of already-recorded campaigns.
void record_golden(CampaignJob& job, const std::atomic<bool>* cancel) {
  const obs::Span golden_span(metrics().golden_record);
  metrics().goldens.add();
  const CampaignSpec& spec = *job.spec;
  // The snapshot interval depends on the nominal run length, which is
  // unknown until the golden run finishes: run once to learn the length,
  // then re-run recording snapshots at the chosen interval.  The golden
  // run is paid twice per campaign versus `injections` faulty runs, so
  // the extra pass is noise.
  job.golden = worker_core(spec.core_name)
                   ->run(*spec.program, spec.cfg, nullptr, kGoldenBudget);
  if (job.golden.status != isa::RunStatus::kHalted) {
    throw std::runtime_error("golden run did not halt for key " + spec.key);
  }
  job.traj.interval = pick_interval(job, job.golden.cycles);
  // The recording pass runs the traced build of the core, which also
  // yields the FF live sets of every boundary (arch/liveness.h).  It is
  // built per recording and dropped after: faulty runs never trace.
  const std::unique_ptr<arch::Core> gcore =
      arch::make_traced_core(spec.core_name);
  gcore->begin(*spec.program, spec.cfg, nullptr);
  job.traj.live.start(*gcore);
  job.traj.checkpoints.emplace_back();
  {
    const obs::Span snap_span(metrics().snap_capture);
    gcore->snapshot(&job.traj.checkpoints.back());
  }
  while (gcore->step_to(gcore->cycle() + job.traj.interval, kGoldenBudget)) {
    check_cancel(cancel);
    job.traj.live.end_interval(*gcore);
    job.traj.checkpoints.emplace_back();
    const obs::Span snap_span(metrics().snap_capture);
    gcore->snapshot(&job.traj.checkpoints.back());
  }
  job.traj.live.end_interval(*gcore);
  if (gcore->cycle() != job.golden.cycles) {
    throw std::logic_error("traced and untraced core builds diverged for key " +
                           spec.key);
  }
  // Liveness follows golden's own accesses only; a golden run that
  // recovered would also have read the rollback ring, which the access
  // log does not see.  No fault-free run detects anything, but such a
  // campaign would keep the word-exact compare (no live sets).
  if (job.golden.recoveries == 0) {
    job.traj.live.finish();
  } else {
    job.traj.live = arch::FFLiveness{};
  }
  job.watchdog = job.golden.cycles * 2 + 1024;
}

// One faulty sample.  `g` is the global sample index: the RNG, target
// flip-flop and injection cycle derive from it alone, which is what makes
// results independent of threads, batching and shard partitioning --
// adaptivity only decides WHICH indices run, never what an index produces.
Outcome simulate_sample(CampaignJob& job, std::size_t g,
                        const std::atomic<bool>* cancel) {
  const obs::Span classify_span(metrics().classify);
  metrics().samples.add();
  const CampaignSpec& spec = *job.spec;
  // Stratified-by-FF sampling with an index-derived RNG: results are
  // independent of thread scheduling and thread count.
  util::Rng rng(util::hash_combine(spec.seed, g));
  const std::uint32_t ff = static_cast<std::uint32_t>(g % job.ff_count);
  const std::uint64_t cycle = 1 + rng.below(job.golden.cycles - 1);
  // Circuit-hardened flip-flops suppress the upset with probability
  // 1 - SER ratio (Table 4); a suppressed strike vanishes by definition.
  const arch::FFProt p =
      spec.cfg != nullptr ? spec.cfg->prot_of(ff) : arch::FFProt::kNone;
  if (!rng.bernoulli(ser_ratio(p))) {
    return Outcome::kVanished;
  }
  const auto plan = arch::InjectionPlan::single(cycle, ff);
  return run_forked(bound_worker_core(spec, job.token), job.traj, plan, cycle,
                    job.watchdog, job.golden, cancel);
}

// Owned sample: simulate and account into this shard's result strips.
void run_faulty_sample(CampaignJob& job, std::size_t g, unsigned slot,
                       const std::atomic<bool>* cancel) {
  const std::uint32_t ff = static_cast<std::uint32_t>(g % job.ff_count);
  job.partials[slot][ff].add(simulate_sample(job, g, cancel));
}

// Pilot sample of an adaptive campaign: EVERY shard simulates it so the
// stop decision sees global counts, but only the owning shard accounts it
// in the result (merge stays an exact sum).
void run_pilot_sample(CampaignJob& job, std::uint64_t g, unsigned slot,
                      const std::atomic<bool>* cancel) {
  const CampaignSpec& spec = *job.spec;
  const std::uint32_t ff = static_cast<std::uint32_t>(g % job.ff_count);
  const Outcome out = simulate_sample(job, static_cast<std::size_t>(g), cancel);
  if (g % spec.shard_count == spec.shard_index) {
    job.partials[slot][ff].add(out);
  }
  job.decide_partials[slot][ff].add(out);
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
  return util::env_string("CLEAR_CACHE_DIR", ".clear_cache");
}

CampaignResult merge_campaign_results(
    const std::vector<CampaignResult>& shards) {
  if (shards.empty()) {
    throw std::invalid_argument("merge_campaign_results: no shards");
  }
  CampaignResult out;
  out.ff_count = shards.front().ff_count;
  out.nominal_cycles = shards.front().nominal_cycles;
  out.nominal_instrs = shards.front().nominal_instrs;
  out.confidence_target = shards.front().confidence_target;
  out.confidence_method = shards.front().confidence_method;
  out.pilot = shards.front().pilot;
  out.planned = shards.front().planned;
  out.per_ff.assign(out.ff_count, {});
  for (const auto& s : shards) {
    if (s.ff_count != out.ff_count || s.per_ff.size() != out.per_ff.size() ||
        s.nominal_cycles != out.nominal_cycles ||
        s.nominal_instrs != out.nominal_instrs) {
      throw std::invalid_argument(
          "merge_campaign_results: shards disagree on campaign identity");
    }
    // The adaptive plan is part of the identity: every shard derives the
    // same per-FF N_f from the same global pilot, so any disagreement
    // means the shards came from different campaigns (or a fixed-budget
    // shard is being mixed into an adaptive merge).
    if (f64_bits(s.confidence_target) != f64_bits(out.confidence_target) ||
        s.confidence_method != out.confidence_method || s.pilot != out.pilot ||
        s.planned != out.planned) {
      throw std::invalid_argument(
          "merge_campaign_results: shards disagree on the adaptive plan");
    }
    for (std::uint32_t f = 0; f < out.ff_count; ++f) {
      out.per_ff[f].merge(s.per_ff[f]);
    }
  }
  for (const auto& c : out.per_ff) out.totals.merge(c);
  return out;
}

namespace detail {

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
    job.spec_index = si;
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
    if (!spec.key.empty() && !cache_dir.empty()) {
      job.fp = spec_fingerprint(spec, job.injections);
      std::string payload;
      if (CachePack::instance(cache_dir).get(job.fp, &payload) &&
          parse_result(payload, job.fp, job.ff_count, &results[si])) {
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
    const unsigned want =
        job.spec->threads != 0
            ? job.spec->threads
            : static_cast<unsigned>(util::env_long(
                  "CLEAR_THREADS", std::thread::hardware_concurrency()));
    threads = std::max(threads, want);
    upper_total += job.pilot != 0
                       ? static_cast<std::size_t>(adaptive_upper_bound(job))
                       : job.local_count;
    job.token = g_campaign_tokens.fetch_add(1, std::memory_order_relaxed);
  }
  if (threads == 0) threads = 1;
  threads = static_cast<unsigned>(std::min<std::size_t>(
      threads, std::max<std::size_t>(1, upper_total / 64)));
  for (auto& job : jobs) {
    job.partials.assign(threads + 1,
                        std::vector<OutcomeCounts>(job.ff_count));
    if (job.pilot != 0) {
      job.decide_partials.assign(threads + 1,
                                 std::vector<OutcomeCounts>(job.ff_count));
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
  std::mutex batch_m;
  std::condition_variable batch_cv;
  std::vector<char> ready(njobs, 0);  // golden attempted (set even on throw)
  std::vector<char> golden_ok(njobs, 0);
  // Checkpoints dominate a batch's memory (each holds a full state + data
  // image, ~96 per campaign): drop a fixed campaign's trajectory as soon
  // as its last faulty sample finishes instead of holding every
  // trajectory until the whole batch drains.  Adaptive campaigns keep
  // theirs across milestone rounds and free them after the tail pass.
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
    const std::size_t lead = with_goldens ? njobs : 0;
    if (lead + total == 0) return;
    util::ThreadPool::instance().run(
        lead + total, threads, [&](std::size_t i, unsigned worker_id) {
          const unsigned slot =
              worker_id == util::ThreadPool::kCallerSlot ? threads : worker_id;
          if (with_goldens && i < njobs) {
            try {
              check_cancel(cancel);
              record_golden(jobs[i], cancel);
            } catch (...) {
              {
                std::lock_guard<std::mutex> g(batch_m);
                ready[i] = 1;  // wake waiters; golden_ok stays 0
              }
              batch_cv.notify_all();
              throw;  // first exception is rethrown by the pool
            }
            {
              std::lock_guard<std::mutex> g(batch_m);
              ready[i] = 1;
              golden_ok[i] = 1;
            }
            batch_cv.notify_all();
            if (hooks.goldens_done) {
              hooks.goldens_done->fetch_add(1, std::memory_order_relaxed);
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
            run_faulty_sample(job, global, slot, cancel);
            if (hooks.samples_done) {
              hooks.samples_done->fetch_add(1, std::memory_order_relaxed);
            }
            if (samples_left[j].fetch_sub(1, std::memory_order_acq_rel) ==
                1) {
              job.traj.release();
            }
            return;
          }
          const std::uint64_t g = job.pass_indices[local];
          if (job.in_tail) {
            run_faulty_sample(job, static_cast<std::size_t>(g), slot, cancel);
          } else {
            run_pilot_sample(job, g, slot, cancel);
          }
          if (hooks.samples_done) {
            hooks.samples_done->fetch_add(1, std::memory_order_relaxed);
          }
        });
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
      for (auto& strip : job.decide_partials) {
        for (std::uint32_t f = 0; f < job.ff_count; ++f) {
          job.decide[f].pilot.merge(strip[f]);
          strip[f] = OutcomeCounts{};
        }
      }
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
    if (job.pilot != 0) job.traj.release();
  }
  if (hooks.samples_total && executed_sofar < published_total) {
    hooks.samples_total->store(executed_sofar);  // final exact count
  }

  // A cancel that raced the last sample still aborts here, before any
  // cache write: a cancelled batch never persists anything.
  check_cancel(cancel);
  for (auto& job : jobs) {
    CampaignResult& result = results[job.spec_index];
    result.ff_count = job.ff_count;
    result.nominal_cycles = job.golden.cycles;
    result.nominal_instrs = job.golden.instrs;
    result.per_ff.assign(job.ff_count, {});
    for (const auto& strip : job.partials) {
      for (std::uint32_t f = 0; f < job.ff_count; ++f) {
        result.per_ff[f].merge(strip[f]);
      }
    }
    for (const auto& c : result.per_ff) result.totals.merge(c);
    if (job.spec->adaptive()) {
      result.confidence_target = job.spec->confidence_half_width;
      result.confidence_method = job.spec->confidence_method;
      result.pilot = job.pilot;
      result.planned = job.planned;
    }
    if (job.fp != 0) {
      CachePack::instance(cache_dir)
          .put(job.fp, cache_label(*job.spec),
               serialize_result(job.fp, result));
    }
  }
  return results;
}

}  // namespace detail

}  // namespace clear::inject
