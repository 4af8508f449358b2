// Ablation (infrastructure, supporting Sec. 2.1's campaign methodology):
// what the checkpoint/fork execution engine buys over re-simulating every
// faulty run from cycle 0, and what the flat-arena COW snapshots buy over
// naive deep-copy checkpointing.  The golden run is snapshotted at
// intervals; each faulty run forks from the snapshot nearest below its
// injection cycle and terminates early once its full state re-converges to
// the golden trajectory.  Results are bit-identical to the from-cycle-0
// reference engine (tests/reference_campaign.h) -- this binary exits
// non-zero on any per-FF counter hash mismatch, which is what the CI
// perf-smoke job keys on.
//
// Knobs: CLEAR_BENCH_INJECTIONS scales the campaign sample count (0 =
// default, one injection per flip-flop) so CI can run a tiny-but-real
// configuration.  Emits BENCH_checkpoint.json next to the binary with the
// machine-readable measurements.
#include "bench/common.h"

#include <chrono>
#include <fstream>

#include "engine/engine.h"
#include "inject/campaign.h"
#include "obs/metrics.h"
#include "tests/reference_campaign.h"
#include "util/env.h"
#include "util/hash.h"

namespace {

using namespace clear;

bool g_mismatch = false;
bool g_metrics_over_budget = false;

std::size_t bench_injections() {
  return static_cast<std::size_t>(
      std::max(0L, util::env_long("CLEAR_BENCH_INJECTIONS", 0)));
}

// Order-stable FNV-1a over every per-FF outcome counter: any divergence
// between the reference and forked engines lands in this hash.
std::uint64_t result_hash(const inject::CampaignResult& r) {
  std::vector<std::uint64_t> words;
  words.reserve(r.per_ff.size() * 6 + 2);
  words.push_back(r.ff_count);
  words.push_back(r.nominal_cycles);
  for (const auto& c : r.per_ff) {
    words.push_back(c.vanished);
    words.push_back(c.omm);
    words.push_back(c.ut);
    words.push_back(c.hang);
    words.push_back(c.ed);
    words.push_back(c.recovered);
  }
  return util::fnv1a64(words.data(), words.size() * sizeof(std::uint64_t));
}

// Wall clock of one uncached campaign on the from-cycle-0 reference
// engine (legacy) or the production forked engine.
double time_campaign(inject::CampaignSpec spec, bool legacy,
                     inject::CampaignResult* out) {
  spec.key = "";  // no caching: measure execution, not the cache
  const auto t0 = std::chrono::steady_clock::now();
  *out = legacy ? testref::reference_campaign(spec)
                : engine::run_campaign(spec);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

struct CampaignRow {
  std::string core, config, benchname;
  std::uint64_t injections = 0;
  double t_legacy = 0, t_forked = 0, speedup = 0;
  bool identical = false;
};

std::vector<CampaignRow> run_campaign_ablation() {
  bench::TextTable t({"Core", "Config", "Benchmark", "Injections",
                      "Nominal cycles", "Legacy (s)", "Forked (s)", "Speedup",
                      "Results"});
  std::vector<CampaignRow> rows;
  double worst = 1e9;
  // The OoO monitor + RoB row checks the liveness-masked convergence
  // compare on the second core model, next to its shadow-checker compare.
  arch::ResilienceConfig monitor_rob;
  monitor_rob.monitor = true;
  monitor_rob.recovery = arch::RecoveryKind::kRob;
  const struct {
    const char* core;
    const char* config;
    const char* benchname;
    const arch::ResilienceConfig* cfg;
  } cases[] = {{"InO", "base", "mcf", nullptr},
               {"InO", "base", "gcc", nullptr},
               {"InO", "base", "parser", nullptr},
               {"OoO", "monitor+rob", "mcf", &monitor_rob}};
  for (const auto& c : cases) {
    const auto prog =
        core::build_variant_program(c.benchname, core::Variant::base());
    inject::CampaignSpec spec;
    spec.core_name = c.core;
    spec.program = &prog;
    spec.cfg = c.cfg;
    spec.injections = bench_injections();
    inject::CampaignResult legacy, forked;
    const double t_legacy = time_campaign(spec, true, &legacy);
    const double t_forked = time_campaign(spec, false, &forked);
    const double speedup = t_forked > 0 ? t_legacy / t_forked : 0.0;
    worst = std::min(worst, speedup);
    // Bit-identical results are a hard invariant, not a statistics detail.
    const bool identical = result_hash(legacy) == result_hash(forked);
    if (!identical) {
      bench::note("!! MISMATCH between legacy and forked results");
      g_mismatch = true;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", t_legacy);
    std::string legacy_s = buf;
    std::snprintf(buf, sizeof(buf), "%.3f", t_forked);
    std::string forked_s = buf;
    t.add_row({c.core, c.config, c.benchname,
               std::to_string(legacy.totals.total()),
               std::to_string(legacy.nominal_cycles), legacy_s, forked_s,
               util::TextTable::factor(speedup),
               identical ? "identical" : "MISMATCH"});
    rows.push_back({c.core, c.config, c.benchname, legacy.totals.total(),
                    t_legacy, t_forked, speedup, identical});
  }
  t.print(std::cout);
  std::printf("worst-case campaign speedup: %.1fx (target: >= 3x)\n", worst);
  return rows;
}

struct AnatomyRow {
  std::string core, config;
  arch::CheckpointSizes sz;
};

// Per-component checkpoint byte accounting (satellite: size_bytes() and the
// breakdown it sums).  The OoO row with the monitor shows the shadow
// checker delta-encoded against the checkpointed memory image.
std::vector<AnatomyRow> print_checkpoint_anatomy() {
  bench::TextTable t({"Core", "Config", "FF", "Scalars", "Regs", "Mem",
                      "SRAM", "Output", "Aux", "Ring", "Shadow", "Total"});
  const auto prog = core::build_variant_program("mcf", core::Variant::base());
  std::vector<AnatomyRow> rows;
  arch::ResilienceConfig monitor_cfg;
  monitor_cfg.monitor = true;
  const struct {
    const char* core;
    const char* label;
    const arch::ResilienceConfig* cfg;
  } combos[] = {{"InO", "base", nullptr},
                {"OoO", "base", nullptr},
                {"OoO", "monitor", &monitor_cfg}};
  for (const auto& c : combos) {
    auto core = arch::make_core(c.core);
    core->begin(prog, c.cfg, nullptr);
    core->step_to(512, 1u << 20);
    arch::CoreCheckpoint cp;
    core->snapshot(&cp);
    t.add_row({c.core, c.label, std::to_string(cp.sizes.ff),
               std::to_string(cp.sizes.scalars), std::to_string(cp.sizes.regs),
               std::to_string(cp.sizes.mem), std::to_string(cp.sizes.sram),
               std::to_string(cp.sizes.output), std::to_string(cp.sizes.aux),
               std::to_string(cp.sizes.ring), std::to_string(cp.sizes.shadow),
               std::to_string(cp.size_bytes())});
    rows.push_back({c.core, c.label, cp.sizes});
  }
  t.print(std::cout);
  bench::note("(bytes per checkpoint; logical sizes -- COW-shared segments"
              " counted as if owned)");
  return rows;
}

struct SnapRow {
  std::string core, config;
  double arena_ops = 0, legacy_ops = 0, ratio = 0;
};

struct SnapPerf {
  std::vector<SnapRow> rows;
  double worst_ratio = 0;
  std::size_t segments = 0, shared = 0;
  std::size_t logical_bytes = 0, resident_bytes = 0;
};

// One snapshot+restore pair per iteration through the arena COW path.
double time_arena_pairs(arch::Core* core, int iters) {
  arch::CoreCheckpoint warm;
  core->snapshot(&warm);  // prime the COW reference
  arch::CoreCheckpoint cp;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    core->snapshot(&cp);
    core->restore(cp, nullptr);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double dt = std::chrono::duration<double>(t1 - t0).count();
  return dt > 0 ? iters / dt : 0;
}

// Cost model of the pre-arena checkpoint, reconstructed from the legacy
// implementation this PR replaced: every snapshot materialized a fresh heap
// vector per component (the FF registry's snapshot() returned its pool by
// value; mem/regs/output/SRAM were copied field by field into the
// checkpoint) and, with the monitor on, deep-copied the entire shadow
// isa::Machine; restore copied every component back and cloned the Machine
// a second time.  The model replays those allocations and copies against
// the live state image so both paths move identical state bytes.
double time_legacy_pairs(arch::Core* core, const isa::Machine* shadow_ref,
                         int iters) {
  arch::CoreCheckpoint cp;
  core->snapshot(&cp);
  const arch::Core::StateView v = core->state_view();
  auto* bytes = reinterpret_cast<std::uint8_t*>(v.arena);
  const std::size_t arena_bytes = v.arena_words * 8;
  // Component boundaries from the real per-checkpoint accounting.
  std::vector<std::size_t> cuts = {cp.sizes.scalars, cp.sizes.regs,
                                   cp.sizes.mem,     cp.sizes.sram,
                                   cp.sizes.output,  cp.sizes.aux};
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    // Snapshot: one fresh allocation + copy per component...
    std::vector<std::uint64_t> ff(v.ff, v.ff + v.ff_words);
    benchmark::DoNotOptimize(ff.data());
    std::size_t off = 0;
    for (const std::size_t c : cuts) {
      const std::size_t len = std::min(c, arena_bytes - off);
      std::vector<std::uint8_t> field(bytes + off, bytes + off + len);
      benchmark::DoNotOptimize(field.data());
      // ...restore: copy the component back.
      std::memcpy(bytes + off, field.data(), len);
      off += len;
    }
    std::copy(ff.begin(), ff.end(), v.ff);
    if (shadow_ref != nullptr) {
      // Monitor: full Machine clone at snapshot, another at restore.
      auto snap_clone = std::make_unique<isa::Machine>(*shadow_ref);
      benchmark::DoNotOptimize(snap_clone->memory().data());
      auto restore_clone = std::make_unique<isa::Machine>(*snap_clone);
      benchmark::DoNotOptimize(restore_clone->memory().data());
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double dt = std::chrono::duration<double>(t1 - t0).count();
  return dt > 0 ? iters / dt : 0;
}

// Snapshot+restore throughput: arena COW path vs the legacy deep-copy cost
// model, on the plain InO core and on the monitored OoO core (whose shadow
// Machine deep copy used to dominate).  Also reports COW sharing across
// consecutive golden checkpoints.
SnapPerf measure_snapshot_throughput() {
  SnapPerf p;
  const auto prog = core::build_variant_program("mcf", core::Variant::base());
  arch::ResilienceConfig monitor_cfg;
  monitor_cfg.monitor = true;
  const int iters = 3000;
  p.worst_ratio = 1e9;

  bench::TextTable t({"Core", "Config", "Arena COW (ops/s)",
                      "Legacy model (ops/s)", "Speedup"});
  const struct {
    const char* core;
    const char* label;
    const arch::ResilienceConfig* cfg;
  } combos[] = {{"InO", "base", nullptr}, {"OoO", "monitor", &monitor_cfg}};
  for (const auto& c : combos) {
    auto core = arch::make_core(c.core);
    core->begin(prog, c.cfg, nullptr);
    core->step_to(2048, 1u << 20);
    std::unique_ptr<isa::Machine> shadow_ref;
    if (c.cfg != nullptr && c.cfg->monitor) {
      // Stand-in for the legacy clone source: an architectural machine in
      // the same program phase as the core's shadow checker.
      shadow_ref = std::make_unique<isa::Machine>(prog);
      for (int s = 0; s < 2048; ++s) {
        if (!shadow_ref->step()) break;
      }
    }
    const double arena_ops = time_arena_pairs(core.get(), iters);
    const double legacy_ops =
        time_legacy_pairs(core.get(), shadow_ref.get(), iters);
    const double ratio = legacy_ops > 0 ? arena_ops / legacy_ops : 0;
    p.worst_ratio = std::min(p.worst_ratio, ratio);
    char a[32], l[32];
    std::snprintf(a, sizeof(a), "%.0f", arena_ops);
    std::snprintf(l, sizeof(l), "%.0f", legacy_ops);
    t.add_row({c.core, c.label, a, l, util::TextTable::factor(ratio)});
    p.rows.push_back({c.core, c.label, arena_ops, legacy_ops, ratio});
  }
  t.print(std::cout);
  std::printf("snapshot+restore throughput vs legacy deep-copy model,"
              " worst case: %.1fx\n",
              p.worst_ratio);

  // COW sharing across consecutive golden checkpoints.
  auto core = arch::make_core("InO");
  core->begin(prog, nullptr, nullptr);
  std::vector<arch::CoreCheckpoint> chks;
  chks.emplace_back();
  core->snapshot(&chks.back());
  while (core->step_to(core->cycle() + 512, 1u << 16)) {
    chks.emplace_back();
    core->snapshot(&chks.back());
  }
  for (std::size_t i = 1; i < chks.size(); ++i) {
    p.segments += chks[i].state.segment_count();
    p.shared += chks[i].state.segments_shared_with(chks[i - 1].state);
  }
  for (const auto& c : chks) p.logical_bytes += c.state.size_bytes();
  // Resident = segments not shared with the previous checkpoint (sharing
  // between non-adjacent checkpoints is rare enough to ignore here).
  const std::size_t total_segs =
      p.segments + (chks.empty() ? 0 : chks.front().state.segment_count());
  p.resident_bytes = (total_segs - p.shared) * arch::kSegWords * 8;
  if (p.segments > 0) {
    std::printf("COW sharing: %zu of %zu segments of consecutive golden"
                " checkpoints shared (%.1f%%); golden trajectory %.1f KiB"
                " logical -> %.1f KiB resident (%.1fx smaller)\n",
                p.shared, p.segments, 100.0 * p.shared / p.segments,
                p.logical_bytes / 1024.0, p.resident_bytes / 1024.0,
                p.resident_bytes > 0
                    ? static_cast<double>(p.logical_bytes) / p.resident_bytes
                    : 0.0);
  }
  return p;
}

struct MetricsOverhead {
  double t_off = 0, t_on = 0;      // best-of wall clock per mode
  double frac = 0;                 // (t_on - t_off) / t_off
  bool identical = false;          // result hashes across the gate
};

// The observability budget: campaign wall clock with metric collection on
// must stay within 2% of collection off (docs/OBSERVABILITY.md).  Runs
// A/B pairs through one process via set_enabled() so both modes see the
// same cache, thermal and allocator state; best-of-3 per mode cancels
// scheduler noise.  At CI scale the absolute delta guard keeps a few
// milliseconds of jitter on a tiny campaign from failing the gate.
MetricsOverhead measure_metrics_overhead() {
  MetricsOverhead m;
  const auto prog = core::build_variant_program("mcf", core::Variant::base());
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = bench_injections();
  m.t_off = m.t_on = 1e9;
  inject::CampaignResult off_result, on_result;
  for (int rep = 0; rep < 3; ++rep) {
    inject::CampaignResult r;
    obs::set_enabled(false);
    m.t_off = std::min(m.t_off, time_campaign(spec, false, &r));
    off_result = r;
    obs::set_enabled(true);
    m.t_on = std::min(m.t_on, time_campaign(spec, false, &r));
    on_result = r;
  }
  obs::set_enabled(true);
  m.frac = m.t_off > 0 ? (m.t_on - m.t_off) / m.t_off : 0.0;
  m.identical = result_hash(off_result) == result_hash(on_result);
  if (!m.identical) {
    bench::note("!! MISMATCH between metrics-off and metrics-on results");
    g_mismatch = true;
  }
  // Only a delta that is both relatively (>2%) and absolutely (>50ms)
  // significant trips the gate.
  if (m.frac > 0.02 && (m.t_on - m.t_off) > 0.05) {
    bench::note("!! metrics collection overhead exceeds the 2% budget");
    g_metrics_over_budget = true;
  }
  bench::TextTable t({"Campaign", "Metrics off (s)", "Metrics on (s)",
                      "Overhead", "Results"});
  char off_s[32], on_s[32], pct[32];
  std::snprintf(off_s, sizeof(off_s), "%.3f", m.t_off);
  std::snprintf(on_s, sizeof(on_s), "%.3f", m.t_on);
  std::snprintf(pct, sizeof(pct), "%+.2f%%", m.frac * 100.0);
  t.add_row({"InO/mcf", off_s, on_s, pct,
             m.identical ? "identical" : "MISMATCH"});
  t.print(std::cout);
  std::printf("metrics collection overhead: %+.2f%% (budget: <= 2%%)\n",
              m.frac * 100.0);
  return m;
}

void write_json(const std::vector<CampaignRow>& campaigns,
                const std::vector<AnatomyRow>& anatomy, const SnapPerf& perf,
                const MetricsOverhead& obs_cost) {
  std::ofstream out("BENCH_checkpoint.json");
  out << "{\n  \"schema\": \"clear-bench-checkpoint-v1\",\n";
  out << "  \"results_identical\": " << (g_mismatch ? "false" : "true")
      << ",\n";
  out << "  \"campaigns\": [\n";
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    const auto& r = campaigns[i];
    out << "    {\"core\": \"" << r.core << "\", \"config\": \"" << r.config
        << "\", \"benchmark\": \"" << r.benchname
        << "\", \"injections\": " << r.injections
        << ", \"legacy_s\": " << r.t_legacy
        << ", \"forked_s\": " << r.t_forked << ", \"speedup\": " << r.speedup
        << ", \"identical\": " << (r.identical ? "true" : "false") << "}"
        << (i + 1 < campaigns.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"checkpoint_bytes\": [\n";
  for (std::size_t i = 0; i < anatomy.size(); ++i) {
    const auto& a = anatomy[i];
    out << "    {\"core\": \"" << a.core << "\", \"config\": \"" << a.config
        << "\", \"ff\": " << a.sz.ff << ", \"scalars\": " << a.sz.scalars
        << ", \"regs\": " << a.sz.regs << ", \"mem\": " << a.sz.mem
        << ", \"sram\": " << a.sz.sram << ", \"output\": " << a.sz.output
        << ", \"aux\": " << a.sz.aux << ", \"ring\": " << a.sz.ring
        << ", \"shadow\": " << a.sz.shadow << ", \"dets\": " << a.sz.dets
        << ", \"total\": " << a.sz.total() << "}"
        << (i + 1 < anatomy.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"snapshot_restore\": [\n";
  for (std::size_t i = 0; i < perf.rows.size(); ++i) {
    const auto& r = perf.rows[i];
    out << "    {\"core\": \"" << r.core << "\", \"config\": \"" << r.config
        << "\", \"arena_ops_per_s\": " << r.arena_ops
        << ", \"legacy_model_ops_per_s\": " << r.legacy_ops
        << ", \"ratio\": " << r.ratio << "}"
        << (i + 1 < perf.rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"cow\": {\"segments\": " << perf.segments
      << ", \"shared\": " << perf.shared
      << ", \"logical_bytes\": " << perf.logical_bytes
      << ", \"resident_bytes\": " << perf.resident_bytes << "},\n";
  out << "  \"metrics_overhead\": {\"off_s\": " << obs_cost.t_off
      << ", \"on_s\": " << obs_cost.t_on
      << ", \"fraction\": " << obs_cost.frac
      << ", \"budget_fraction\": 0.02, \"within_budget\": "
      << (g_metrics_over_budget ? "false" : "true")
      << ", \"identical\": " << (obs_cost.identical ? "true" : "false")
      << "}\n}\n";
}

void print_tables() {
  bench::header("Ablation",
                "checkpoint/fork injection engine vs from-cycle-0 runs");
  const auto campaigns = run_campaign_ablation();
  const auto anatomy = print_checkpoint_anatomy();
  const auto perf = measure_snapshot_throughput();
  const auto obs_cost = measure_metrics_overhead();
  write_json(campaigns, anatomy, perf, obs_cost);
  bench::note("(the forked engine skips the golden prefix of every faulty"
              " run and early-terminates once the corrupted state provably"
              " re-converges to the golden trajectory; the legacy column is"
              " the from-cycle-0 reference engine, CLEAR_BENCH_INJECTIONS"
              " scales the sample count; measurements written to"
              " BENCH_checkpoint.json)");
}

// Kernel: one faulty run, forked vs from cycle 0.  The campaign-level
// speedup above compounds this with early termination.
void BM_LegacyFaultyRun(benchmark::State& state) {
  const auto prog = core::build_variant_program("mcf", core::Variant::base());
  auto proto = arch::make_core("InO");
  const auto clean = proto->run_clean(prog);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto plan = arch::InjectionPlan::single(
        1 + (i * 131) % (clean.cycles - 1),
        static_cast<std::uint32_t>((i * 7) % proto->registry().ff_count()));
    ++i;
    benchmark::DoNotOptimize(
        proto->run(prog, nullptr, &plan, clean.cycles * 2).cycles);
  }
}
BENCHMARK(BM_LegacyFaultyRun);

void BM_ForkedFaultyRun(benchmark::State& state) {
  const auto prog = core::build_variant_program("mcf", core::Variant::base());
  auto proto = arch::make_core("InO");
  const auto clean = proto->run_clean(prog);
  // Record golden checkpoints once (amortized across the whole campaign).
  const std::uint64_t interval =
      std::max<std::uint64_t>(64, clean.cycles / 96);
  std::vector<arch::CoreCheckpoint> chks;
  proto->begin(prog, nullptr, nullptr);
  chks.emplace_back();
  proto->snapshot(&chks.back());
  while (proto->step_to(proto->cycle() + interval, clean.cycles * 2)) {
    chks.emplace_back();
    proto->snapshot(&chks.back());
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::uint64_t cycle = 1 + (i * 131) % (clean.cycles - 1);
    const auto plan = arch::InjectionPlan::single(
        cycle,
        static_cast<std::uint32_t>((i * 7) % proto->registry().ff_count()));
    ++i;
    const std::size_t ci = std::min<std::size_t>(
        static_cast<std::size_t>(cycle / interval), chks.size() - 1);
    proto->restore(chks[ci], &plan);
    for (;;) {
      const std::uint64_t boundary =
          (proto->cycle() / interval + 1) * interval;
      if (!proto->step_to(boundary, clean.cycles * 2)) break;
      const std::uint64_t cyc = proto->cycle();
      if (cyc % interval != 0) continue;
      const std::size_t bi = static_cast<std::size_t>(cyc / interval);
      if (bi < chks.size() && proto->quiescent() &&
          proto->state_matches(chks[bi])) {
        break;  // re-converged to golden
      }
    }
    benchmark::DoNotOptimize(proto->cycle());
  }
}
BENCHMARK(BM_ForkedFaultyRun);

}  // namespace

// Hand-rolled main (vs CLEAR_BENCH_MAIN): the CI perf-smoke job relies on
// the exit code -- 2 flags a reference/forked result divergence, 3 flags
// metric collection blowing its 2% wall-clock budget.
int main(int argc, char** argv) {
  print_tables();
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  if (g_mismatch) return 2;
  return g_metrics_over_budget ? 3 : 0;
}
