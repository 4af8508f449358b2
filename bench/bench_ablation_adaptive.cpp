// Ablation (infrastructure, supporting Sec. 2.1's campaign methodology):
// what confidence-driven adaptive sampling buys over the paper's flat
// per-FF sample counts.  A fixed-budget campaign that must certify every
// flip-flop's SDC/DUE rate to a 1% half-width at 95% confidence has to be
// provisioned for the NOISIEST flip-flop; the adaptive sampler
// (inject/adaptive.h) sizes each flip-flop by its own observed noise, so
// the quiet majority stops at the first milestone and only the noisy tail
// runs long.  The samples-to-verdict study below quantifies that on a
// synthetic vulnerability profile shaped like the measured ones (most FFs
// near-zero rate, a small noisy tail), where the truth is known and the
// run is deterministic; a real-simulation smoke then shows the same
// mechanism on live gcc/mcf campaigns.
//
// This binary exits non-zero when the samples-to-verdict reduction at the
// 1% target falls below the 3x acceptance floor, which is what the CI
// perf-smoke job keys on.  Knobs: CLEAR_BENCH_INJECTIONS scales the
// real-simulation smoke (0 = default 40 samples/FF); the oracle study is
// cheap and always runs at full scale.  Emits BENCH_adaptive.json next to
// the binary with the machine-readable measurements.
#include "bench/common.h"

#include <chrono>
#include <fstream>
#include <vector>

#include "engine/engine.h"
#include "inject/adaptive.h"
#include "inject/campaign.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace clear;
using util::IntervalMethod;

bool g_failed = false;

// ---- samples-to-verdict: synthetic oracle at known rates -------------------

constexpr std::uint32_t kFfs = 256;
constexpr double kTarget = 0.01;  // the acceptance criterion's 1% half-width

struct FfLaw {
  double sdc = 0, due = 0;
};

// A vulnerability profile shaped like the measured ones (Table 2): ~80%
// of flip-flops nearly quiet, ~15% moderately vulnerable, ~5% noisy.
std::vector<FfLaw> synthetic_profile() {
  std::vector<FfLaw> laws(kFfs);
  util::Rng rng(2016);
  for (auto& law : laws) {
    const auto draw = [&rng] {
      const double u = rng.uniform();
      const double v = rng.uniform();
      if (u < 0.80) return 0.0005 + 0.0095 * v;
      if (u < 0.95) return 0.01 + 0.09 * v;
      return 0.10 + 0.40 * v;
    };
    law.sdc = draw();
    law.due = draw();
  }
  return laws;
}

inject::Outcome oracle_outcome(std::uint64_t g, const FfLaw& law) {
  util::Rng rng(0x5EEDULL ^ (0x9E3779B97F4A7C15ULL * (g + 1)));
  const double u = rng.uniform();
  if (u < law.sdc) return inject::Outcome::kOmm;
  if (u < law.sdc + law.due) return inject::Outcome::kUt;
  return inject::Outcome::kVanished;
}

// Samples per FF a fixed campaign needs so that THIS flip-flop's rates
// meet the target (sized from the true rate; the fixed campaign must use
// the maximum over all FFs since it cannot look at outcomes).
std::uint64_t need_at_rate(IntervalMethod method, double rate) {
  // Small probe count: trials_for_half_width_95 never projects BELOW its
  // `trials` argument, and only the maximum over FFs matters here (the
  // noisy tail needs thousands of samples, far above the probe).
  const std::size_t probe = 1000;
  const auto x = static_cast<std::size_t>(rate * probe + 0.5);
  return util::trials_for_half_width_95(method, x, probe, kTarget);
}

struct VerdictRow {
  const char* method_name;
  std::uint64_t fixed_per_ff = 0;    // worst-case per-FF provisioning
  std::uint64_t fixed_total = 0;     // fixed campaign samples to verdict
  std::uint64_t adaptive_total = 0;  // sum of the adaptive plan
  double reduction = 0;
};

VerdictRow samples_to_verdict(IntervalMethod method, const char* name,
                              const std::vector<FfLaw>& laws) {
  VerdictRow row;
  row.method_name = name;
  for (const auto& law : laws) {
    row.fixed_per_ff =
        std::max({row.fixed_per_ff, need_at_rate(method, law.sdc),
                  need_at_rate(method, law.due)});
  }
  row.fixed_total = row.fixed_per_ff * kFfs;
  const auto plan = inject::adaptive::plan_with_oracle(
      row.fixed_total, kFfs, kTarget, method, [&](std::uint64_t g) {
        return oracle_outcome(g, laws[g % kFfs]);
      });
  for (const std::uint64_t n : plan.planned) row.adaptive_total += n;
  row.reduction = row.adaptive_total
                      ? static_cast<double>(row.fixed_total) /
                            static_cast<double>(row.adaptive_total)
                      : 0.0;
  return row;
}

std::vector<VerdictRow> run_verdict_study() {
  const auto laws = synthetic_profile();
  bench::TextTable t({"Method", "FFs", "Fixed/FF", "Fixed total",
                      "Adaptive total", "Reduction"});
  std::vector<VerdictRow> rows;
  for (const auto& m :
       {std::pair{IntervalMethod::kWilson, "wilson"},
        std::pair{IntervalMethod::kClopperPearson, "clopper-pearson"}}) {
    const auto row = samples_to_verdict(m.first, m.second, laws);
    t.add_row({row.method_name, std::to_string(kFfs),
               std::to_string(row.fixed_per_ff),
               std::to_string(row.fixed_total),
               std::to_string(row.adaptive_total),
               util::TextTable::factor(row.reduction)});
    if (row.reduction < 3.0) {
      bench::note("!! samples-to-verdict reduction below the 3x floor");
      g_failed = true;
    }
    rows.push_back(row);
  }
  t.print(std::cout);
  std::printf("samples to a 1%%-half-width verdict on every FF, synthetic"
              " profile; floor: >= 3x\n");
  return rows;
}

// ---- real-simulation smoke -------------------------------------------------

struct SmokeRow {
  std::string benchname;
  std::uint64_t budget = 0, executed = 0;
  double saved_pct = 0, t_fixed = 0, t_adaptive = 0;
};

std::vector<SmokeRow> run_simulation_smoke() {
  const long env = util::env_long("CLEAR_BENCH_INJECTIONS", 0);
  const std::uint32_t ffs = arch::make_core("InO")->registry().ff_count();
  const std::size_t per_ff =
      env > 0 ? std::max<std::size_t>(8, static_cast<std::size_t>(env) / ffs)
              : 40;
  bench::TextTable t({"Core", "Benchmark", "Budget", "Executed", "Saved",
                      "Fixed (s)", "Adaptive (s)"});
  std::vector<SmokeRow> rows;
  for (const char* benchname : {"gcc", "mcf"}) {
    const auto prog =
        core::build_variant_program(benchname, core::Variant::base());
    inject::CampaignSpec spec;
    spec.core_name = "InO";
    spec.program = &prog;
    spec.key = "";  // no caching: measure execution, not the cache
    spec.injections = per_ff * ffs;
    const auto t0 = std::chrono::steady_clock::now();
    const auto fixed = engine::run_campaign(spec);
    const auto t1 = std::chrono::steady_clock::now();
    spec.confidence_half_width = 0.12;
    const auto adaptive = engine::run_campaign(spec);
    const auto t2 = std::chrono::steady_clock::now();

    SmokeRow row;
    row.benchname = benchname;
    row.budget = fixed.totals.total();
    row.executed = adaptive.samples_executed();
    row.saved_pct =
        100.0 * (1.0 - static_cast<double>(row.executed) /
                           static_cast<double>(row.budget));
    row.t_fixed = std::chrono::duration<double>(t1 - t0).count();
    row.t_adaptive = std::chrono::duration<double>(t2 - t1).count();
    if (row.executed > row.budget) {
      bench::note("!! adaptive campaign exceeded its budget ceiling");
      g_failed = true;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f%%", row.saved_pct);
    std::string saved = buf;
    std::snprintf(buf, sizeof(buf), "%.3f", row.t_fixed);
    std::string tf = buf;
    std::snprintf(buf, sizeof(buf), "%.3f", row.t_adaptive);
    std::string ta = buf;
    t.add_row({"InO", benchname, std::to_string(row.budget),
               std::to_string(row.executed), saved, tf, ta});
    rows.push_back(row);
  }
  t.print(std::cout);
  bench::note("(live campaigns at +/-0.12 target: the quiet majority of"
              " FFs stops at the 32-sample milestone, the noisy tail gets"
              " the freed budget)");
  return rows;
}

void write_json(const std::vector<VerdictRow>& verdicts,
                const std::vector<SmokeRow>& smoke) {
  std::ofstream out("BENCH_adaptive.json");
  out << "{\n  \"schema\": \"clear-bench-adaptive-v1\",\n";
  out << "  \"target_half_width\": " << kTarget << ",\n";
  out << "  \"passed\": " << (g_failed ? "false" : "true") << ",\n";
  out << "  \"samples_to_verdict\": [\n";
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    const auto& r = verdicts[i];
    out << "    {\"method\": \"" << r.method_name << "\", \"ffs\": " << kFfs
        << ", \"fixed_per_ff\": " << r.fixed_per_ff
        << ", \"fixed_total\": " << r.fixed_total
        << ", \"adaptive_total\": " << r.adaptive_total
        << ", \"reduction\": " << r.reduction << "}"
        << (i + 1 < verdicts.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"simulation_smoke\": [\n";
  for (std::size_t i = 0; i < smoke.size(); ++i) {
    const auto& r = smoke[i];
    out << "    {\"core\": \"InO\", \"benchmark\": \"" << r.benchname
        << "\", \"budget\": " << r.budget << ", \"executed\": " << r.executed
        << ", \"saved_pct\": " << r.saved_pct
        << ", \"fixed_s\": " << r.t_fixed
        << ", \"adaptive_s\": " << r.t_adaptive << "}"
        << (i + 1 < smoke.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

void print_tables() {
  bench::header("Ablation",
                "confidence-driven adaptive campaigns vs flat sample counts");
  const auto verdicts = run_verdict_study();
  const auto smoke = run_simulation_smoke();
  write_json(verdicts, smoke);
  bench::note("(CLEAR_BENCH_INJECTIONS scales the live smoke; measurements"
              " written to BENCH_adaptive.json)");
}

// Kernels: the two interval constructions and the full decision procedure
// the executor runs at every milestone.
void BM_WilsonInterval(benchmark::State& state) {
  std::size_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::wilson_interval_95(x % 32, 32));
    ++x;
  }
}
BENCHMARK(BM_WilsonInterval);

void BM_ClopperPearsonInterval(benchmark::State& state) {
  std::size_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::clopper_pearson_interval_95(x % 32, 32));
    ++x;
  }
}
BENCHMARK(BM_ClopperPearsonInterval);

void BM_PlanWithOracle(benchmark::State& state) {
  const auto laws = synthetic_profile();
  for (auto _ : state) {
    const auto plan = inject::adaptive::plan_with_oracle(
        64 * kFfs, kFfs, 0.08, IntervalMethod::kWilson, [&](std::uint64_t g) {
          return oracle_outcome(g, laws[g % kFfs]);
        });
    benchmark::DoNotOptimize(plan.planned.data());
  }
}
BENCHMARK(BM_PlanWithOracle);

}  // namespace

// Hand-rolled main (vs CLEAR_BENCH_MAIN): the CI perf-smoke job relies on
// the exit code to flag a reduction below the acceptance floor.
int main(int argc, char** argv) {
  print_tables();
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return g_failed ? 2 : 0;
}
