#include "core/session.h"

#include <algorithm>
#include <stdexcept>

#include "arch/core.h"

namespace clear::core {

namespace {

double frac_with(const std::vector<std::uint64_t>& counts,
                 std::uint32_t ff_count) {
  if (ff_count == 0) return 0.0;
  std::size_t n = 0;
  for (const auto c : counts) n += (c > 0);
  return static_cast<double>(n) / static_cast<double>(ff_count);
}

// Fills a set's aggregates from its benches: the per-FF sums, the
// totals and the error-free execution overhead (the mean of the
// per-benchmark cycle ratios minus one, clamped at zero).  Every profile
// -- installed or a subset -- is aggregated here, so a subset equals a
// fresh Session profiled on its names alone.
void aggregate(ProfileSet& set) {
  set.ff_sdc.assign(set.ff_count, 0);
  set.ff_due.assign(set.ff_count, 0);
  set.ff_total.assign(set.ff_count, 0);
  set.totals = {};
  double exec_sum = 0.0;
  for (const BenchProfile& bp : set.benches) {
    exec_sum += static_cast<double>(bp.campaign.nominal_cycles) /
                static_cast<double>(bp.base_cycles);
    for (std::uint32_t f = 0; f < set.ff_count; ++f) {
      const auto& c = bp.campaign.per_ff[f];
      set.ff_sdc[f] += c.sdc();
      set.ff_due[f] += c.due();
      set.ff_total[f] += c.total();
    }
    set.totals.merge(bp.campaign.totals);
  }
  const std::size_t n = set.benches.size();
  set.exec_overhead = n ? exec_sum / static_cast<double>(n) - 1.0 : 0.0;
  if (set.exec_overhead < 0) set.exec_overhead = 0.0;
}

}  // namespace

double ProfileSet::frac_ffs_with_sdc() const {
  return frac_with(ff_sdc, ff_count);
}

double ProfileSet::frac_ffs_with_due() const {
  return frac_with(ff_due, ff_count);
}

double ProfileSet::frac_ffs_with_either() const {
  if (ff_count == 0) return 0.0;
  std::size_t n = 0;
  for (std::uint32_t f = 0; f < ff_count; ++f) {
    n += (ff_sdc[f] > 0 || ff_due[f] > 0);
  }
  return static_cast<double>(n) / static_cast<double>(ff_count);
}

double ProfileSet::frac_ffs_always_vanish() const {
  return 1.0 - frac_ffs_with_either();
}

Session::Session(std::string core, std::size_t per_ff_samples,
                 std::uint64_t seed)
    : core_(std::move(core)), seed_(seed) {
  benchmarks_ = workloads::benchmarks_for_core(core_);
  per_ff_samples_ =
      per_ff_samples != 0 ? per_ff_samples : (core_ == "OoO" ? 1 : 2);
}

// One asynchronous batch: the per-variant jobs with their compiled
// benchmark programs (the engine job holds raw pointers into `pending`,
// so this storage must outlive the job -- the ticket guarantees it).
struct PrefetchTicket::Batch {
  struct Pending {
    std::string bench;
    isa::Program prog;
  };
  struct VariantJob {
    Variant variant;
    std::string vkey;
    arch::ResilienceConfig cfg;
    bool needs_cfg = false;
    std::vector<Pending> pending;
  };
  std::vector<VariantJob> jobs;
  std::vector<inject::CampaignSpec> specs;
  std::uint32_t ff_count = 0;
  engine::Job engine_job;

  ~Batch() {
    // Dropped uncommitted (or commit threw): the engine job may still be
    // simulating with pointers into `jobs` -- stop it and wait before the
    // storage goes away.
    if (engine_job.valid()) {
      engine_job.cancel();
      engine_job.wait();
    }
  }
};

PrefetchTicket::PrefetchTicket(PrefetchTicket&& other) noexcept
    : batch_(std::move(other.batch_)), session_(other.session_) {
  other.session_ = nullptr;
}

PrefetchTicket& PrefetchTicket::operator=(PrefetchTicket&& other) noexcept {
  if (this != &other) {
    if (batch_ && session_ != nullptr) --session_->pending_prefetches_;
    // Releasing a still-pending batch cancels + joins its engine job
    // (Batch destructor) before the replacement lands.
    batch_ = std::move(other.batch_);
    session_ = other.session_;
    other.session_ = nullptr;
  }
  return *this;
}

PrefetchTicket::~PrefetchTicket() {
  if (batch_ && session_ != nullptr) --session_->pending_prefetches_;
}

bool PrefetchTicket::pending() const noexcept { return batch_ != nullptr; }

engine::Job PrefetchTicket::job() const {
  return batch_ ? batch_->engine_job : engine::Job();
}

void PrefetchTicket::commit() {
  if (!batch_) return;
  // Consume the ticket first: whatever happens below, this batch is no
  // longer outstanding (a failed commit is not retryable -- resubmit).
  std::shared_ptr<Batch> batch = std::move(batch_);
  Session* session = session_;
  --session->pending_prefetches_;
  std::vector<inject::CampaignResult> campaigns =
      batch->engine_job.take_results();
  session->install(*batch, std::move(campaigns));
}

void Session::set_benchmarks(std::vector<std::string> names) {
  if (!cache_.empty() || pending_prefetches_ != 0) {
    throw std::logic_error(
        "Session::set_benchmarks: profiles were already collected (or a "
        "prefetch is in flight) for the current suite; the ProfileSet "
        "references profiles() handed out would dangle.  Use a fresh "
        "Session for a different benchmark suite.");
  }
  benchmarks_ = std::move(names);
}

void Session::set_confidence(double half_width, util::IntervalMethod method) {
  if (!cache_.empty() || pending_prefetches_ != 0) {
    throw std::logic_error(
        "Session::set_confidence: profiles were already collected (or a "
        "prefetch is in flight) under the current campaign schedule; "
        "adaptive and fixed-budget profiles must not mix.  Use a fresh "
        "Session for a different confidence target.");
  }
  if (half_width < 0.0 || half_width > 0.5 || half_width != half_width) {
    throw std::invalid_argument(
        "Session::set_confidence: half-width must be in (0, 0.5], or 0 "
        "to restore the fixed budget");
  }
  confidence_ = half_width;
  confidence_method_ = method;
}

const ProfileSet& Session::profiles(const Variant& v) {
  const auto it = cache_.find(v.key());
  if (it != cache_.end()) return *it->second;
  prefetch({v});
  return *cache_.at(v.key());
}

const ProfileSet& Session::resident(const Variant& v) const {
  const auto it = cache_.find(v.key());
  if (it == cache_.end()) {
    throw std::logic_error("Session::resident: profiles for variant " +
                           v.key() + " on core " + core_ +
                           " were not collected");
  }
  return *it->second;
}

void Session::prefetch(const std::vector<Variant>& variants) {
  // The blocking path is the async path committed immediately, on the
  // interactive lane so it overtakes any queued bulk backfill.
  prefetch_async(variants, engine::JobPriority::kInteractive).commit();
}

PrefetchTicket Session::prefetch_async(const std::vector<Variant>& variants,
                                       engine::JobPriority priority) {
  auto batch = std::make_shared<PrefetchTicket::Batch>();
  {
    auto proto = arch::make_core(core_);
    batch->ff_count = proto->registry().ff_count();
  }

  // Build every benchmark program of every uncached variant first, then
  // submit the whole list as ONE engine job: the campaign executor
  // overlaps golden-run recording with faulty runs across all (variant,
  // benchmark) campaigns on the shared worker pool.
  for (const Variant& v : variants) {
    const std::string vkey = v.key();
    if (cache_.count(vkey)) continue;
    bool queued = false;
    for (const auto& j : batch->jobs) queued |= (j.vkey == vkey);
    if (queued) continue;

    PrefetchTicket::Batch::VariantJob job;
    job.variant = v;
    job.vkey = vkey;
    job.cfg.dfc = v.dfc;
    job.cfg.monitor = v.monitor;
    job.cfg.recovery =
        v.monitor ? arch::RecoveryKind::kRob : arch::RecoveryKind::kNone;
    job.needs_cfg = v.dfc || v.monitor;
    for (const auto& bench : benchmarks_) {
      // Only benchmarks amenable to the requested ABFT kind (Sec. 3.2).
      if (!workloads::supports_abft(bench, v.abft)) continue;
      job.pending.push_back({bench, build_variant_program(bench, v, 0)});
    }
    if (job.pending.empty()) {
      throw std::runtime_error("no benchmarks support variant " + vkey +
                               " on core " + core_);
    }
    batch->jobs.push_back(std::move(job));
  }
  if (batch->jobs.empty()) return PrefetchTicket();  // all memoized

  // `batch->jobs` is final: spec pointers into it stay valid until the
  // Batch is released, which the ticket delays past job completion.
  for (const auto& job : batch->jobs) {
    for (const auto& p : job.pending) {
      inject::CampaignSpec spec;
      spec.core_name = core_;
      spec.program = &p.prog;
      spec.key = core_ + "/" + p.bench + "/" + job.vkey;
      spec.injections = per_ff_samples_ * batch->ff_count;
      spec.seed = seed_;
      spec.confidence_half_width = confidence_;
      spec.confidence_method = confidence_method_;
      spec.cfg = job.needs_cfg ? &job.cfg : nullptr;
      batch->specs.push_back(spec);
    }
  }
  batch->engine_job = engine::Engine::instance().submit(batch->specs, priority);

  PrefetchTicket ticket;
  ticket.batch_ = std::move(batch);
  ticket.session_ = this;
  ++pending_prefetches_;
  return ticket;
}

void Session::install(const PrefetchTicket::Batch& batch,
                      std::vector<inject::CampaignResult> campaigns) {
  std::size_t next = 0;
  for (const auto& job : batch.jobs) {
    if (cache_.count(job.vkey)) {
      // Another (overlapping) batch installed this variant first; the
      // recomputed campaigns are identical, so keep the first install.
      next += job.pending.size();
      continue;
    }
    auto set = std::make_unique<ProfileSet>();
    set->core = core_;
    set->variant_key = job.vkey;
    set->ff_count = batch.ff_count;
    for (const auto& p : job.pending) {
      BenchProfile bp;
      bp.benchmark = p.bench;
      bp.campaign = std::move(campaigns[next++]);
      bp.base_cycles = job.vkey == "base" ? bp.campaign.nominal_cycles
                                          : base_cycles(bp.benchmark);
      set->benches.push_back(std::move(bp));
    }
    aggregate(*set);
    cache_[job.vkey] = std::move(set);
  }
}

std::uint64_t Session::base_cycles(const std::string& bench) {
  // A resident base profile ran every benchmark's base program: its
  // golden run is that program's clean run.
  const auto base = cache_.find(Variant::base().key());
  if (base != cache_.end()) {
    for (const BenchProfile& bp : base->second->benches) {
      if (bp.benchmark == bench) return bp.campaign.nominal_cycles;
    }
  }
  auto it = base_cycles_.find(bench);
  if (it == base_cycles_.end()) {
    const isa::Program base_prog =
        build_variant_program(bench, Variant::base(), 0);
    const std::uint64_t cycles =
        arch::make_core(core_)->run_clean(base_prog).cycles;
    it = base_cycles_.emplace(bench, cycles).first;
  }
  return it->second;
}

ProfileSet Session::subset(const ProfileSet& full,
                           const std::vector<std::string>& names) const {
  for (const auto& n : names) {
    bool known = false;
    for (const auto& bp : full.benches) known |= (n == bp.benchmark);
    if (!known) {
      throw std::invalid_argument("Session::subset: benchmark '" + n +
                                  "' is not profiled in this ProfileSet");
    }
  }
  ProfileSet out;
  out.core = full.core;
  out.variant_key = full.variant_key + "#subset";
  out.ff_count = full.ff_count;
  for (const auto& bp : full.benches) {
    bool keep = false;
    for (const auto& n : names) keep |= (n == bp.benchmark);
    if (keep) out.benches.push_back(bp);
  }
  aggregate(out);
  return out;
}

ErrorMass mass_over(const ProfileSet& set,
                    const std::vector<std::string>& names) {
  inject::OutcomeCounts totals;
  for (const auto& n : names) {
    const auto it =
        std::find_if(set.benches.begin(), set.benches.end(),
                     [&n](const BenchProfile& bp) { return bp.benchmark == n; });
    if (it == set.benches.end()) {
      throw std::invalid_argument("mass_over: benchmark '" + n +
                                  "' is not profiled in this ProfileSet");
    }
    totals.merge(it->campaign.totals);
  }
  return mass_of(totals);
}

std::vector<std::string> bench_names(const std::vector<BenchProfile>& benches) {
  std::vector<std::string> names;
  names.reserve(benches.size());
  for (const BenchProfile& bp : benches) names.push_back(bp.benchmark);
  return names;
}

}  // namespace clear::core
