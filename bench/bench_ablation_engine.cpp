// Ablation (infrastructure, supporting the paper's cluster-scale
// methodology): what the asynchronous job engine buys the design-space
// exploration.
//
//  * blocking exploration: each combo batch profiles synchronously
//    (prefetch), then evaluates on the caller thread while the worker
//    pool sits idle;
//  * pipelined exploration: batch N+1's profiling campaigns run on the
//    engine's bulk lane while the caller evaluates batch N
//    (Session::prefetch_async double-buffering) -- the ledger records
//    are bit-identical, only the schedule changes.
//
// Reported per mode: wall-clock, engine busy time (dispatcher time spent
// inside the campaign executor) and the worker-idle fraction
// 1 - busy/wall.  Pipelining shrinks the idle fraction; the wall-clock
// win tracks how much evaluation time the blocking schedule wasted
// (prominent with >= 2 hardware threads; on a 1-CPU container the two
// phases time-slice one core and the win compresses toward zero).
#include "bench/common.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "engine/engine.h"
#include "explore/explore.h"
#include "isa/assembler.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace {

using namespace clear;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct ModeRun {
  double wall = 0.0;
  double busy = 0.0;
  std::size_t records = 0;
  std::uint64_t record_hash = 0;
};

ModeRun run_mode(bool pipeline, const std::string& cache_dir) {
  // A fresh cache per mode: both modes pay the same cold campaigns, so
  // the comparison is schedule vs schedule, not cache hit vs miss.
  std::filesystem::remove_all(cache_dir);
  ::setenv("CLEAR_CACHE_DIR", cache_dir.c_str(), 1);

  explore::ExploreSpec spec;
  spec.core = "InO";
  spec.target = 50.0;
  spec.seed = 9;
  spec.per_ff_samples = 1;
  spec.benchmarks = {"mcf", "gcc", "inner_product", "fft1d"};
  spec.batch = 24;  // several seams, so the overlap actually engages
  spec.pipeline = pipeline ? 1 : 0;

  const engine::Engine::Stats before = engine::Engine::instance().stats();
  const auto t0 = std::chrono::steady_clock::now();
  const explore::Ledger ledger = explore::run_exploration(spec, "");
  ModeRun out;
  out.wall = seconds_since(t0);
  const engine::Engine::Stats after = engine::Engine::instance().stats();
  out.busy = static_cast<double>(after.busy_ns - before.busy_ns) * 1e-9;
  out.records = ledger.records.size();
  // Order-sensitive fingerprint over the records: pipelining must not
  // perturb a single byte of what gets written.
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  for (const auto& r : ledger.records) {
    h = util::hash_combine(h, r.combo_index);
    h = util::hash_combine(h, static_cast<std::uint64_t>(r.kind));
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(r.energy), "f64");
    std::memcpy(&bits, &r.energy, sizeof(bits));
    h = util::hash_combine(h, bits);
  }
  out.record_hash = h;
  return out;
}

void print_tables() {
  bench::header("Ablation", "async engine: blocking vs pipelined exploration");

  const ModeRun blocking = run_mode(false, ".clear_cache_ablation_eng_block");
  const ModeRun pipelined = run_mode(true, ".clear_cache_ablation_eng_pipe");

  bench::TextTable t({"Mode", "Records", "Wall s", "Engine busy s",
                      "Worker idle"});
  const auto idle = [](const ModeRun& m) {
    const double frac = m.wall > 0 ? 1.0 - m.busy / m.wall : 0.0;
    return util::TextTable::num(frac < 0 ? 0.0 : frac, 3);
  };
  t.add_row({"blocking prefetch", std::to_string(blocking.records),
             util::TextTable::num(blocking.wall, 3),
             util::TextTable::num(blocking.busy, 3), idle(blocking)});
  t.add_row({"pipelined (batch overlap)", std::to_string(pipelined.records),
             util::TextTable::num(pipelined.wall, 3),
             util::TextTable::num(pipelined.busy, 3), idle(pipelined)});
  t.print(std::cout);

  if (blocking.records != pipelined.records ||
      blocking.record_hash != pipelined.record_hash) {
    bench::note("!! MISMATCH: pipelining changed the exploration records");
  } else {
    bench::note("records bit-identical across modes (order-sensitive hash)");
  }
  std::printf("speedup: %.2fx wall-clock, idle fraction %.3f -> %.3f\n",
              pipelined.wall > 0 ? blocking.wall / pipelined.wall : 0.0,
              blocking.wall > 0 ? 1.0 - blocking.busy / blocking.wall : 0.0,
              pipelined.wall > 0 ? 1.0 - pipelined.busy / pipelined.wall
                                 : 0.0);
}

// Kernel: submit/wait round trip for a fully cached job -- the engine's
// fixed overhead per submission (queue, dispatch, retire).
void BM_EngineSubmitCached(benchmark::State& state) {
  const std::string dir = ".clear_cache_ablation_eng_kernel";
  std::filesystem::remove_all(dir);
  ::setenv("CLEAR_CACHE_DIR", dir.c_str(), 1);
  const isa::Program prog =
      isa::assemble(workloads::build_benchmark("inner_product"));
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = 32;
  spec.key = "ablation/engine/kernel";
  (void)engine::run_campaign(spec);  // fill the pack
  for (auto _ : state) {
    engine::Job job = engine::Engine::instance().submit({spec});
    benchmark::DoNotOptimize(job.take_results());
  }
}
BENCHMARK(BM_EngineSubmitCached);

}  // namespace

CLEAR_BENCH_MAIN(print_tables)
