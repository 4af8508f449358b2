// Ablation (infrastructure, supporting Sec. 2.1's campaign methodology):
// what the single-file cache pack and batched campaign submission buy.
//
//  * cache shape: however many campaigns a bench-suite run memoizes, the
//    pack keeps exactly one pack + one index per cache directory, with
//    checksummed records and LRU eviction (CLEAR_CACHE_MAX_BYTES).
//  * batched submission: engine::run_campaigns() records golden trajectories on
//    the worker pool so they overlap the faulty runs of other campaigns,
//    instead of serializing on the caller thread.
#include "bench/common.h"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iterator>

#include "engine/engine.h"
#include "inject/cachepack.h"
#include "inject/campaign.h"
#include "isa/assembler.h"
#include "workloads/workloads.h"

namespace {

using namespace clear;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void print_tables() {
  bench::header("Ablation", "campaign cache pack + batched submission");

  // Isolated cache dir so cold/warm numbers are real, not suite leftovers.
  const std::string dir = ".clear_cache_ablation_pack";
  std::filesystem::remove_all(dir);
  ::setenv("CLEAR_CACHE_DIR", dir.c_str(), 1);

  const char* names[] = {"mcf", "gcc", "parser"};
  std::vector<isa::Program> progs;
  for (const char* n : names) {
    progs.push_back(isa::assemble(workloads::build_benchmark(n)));
  }
  std::vector<inject::CampaignSpec> specs(progs.size());
  for (std::size_t i = 0; i < progs.size(); ++i) {
    specs[i].core_name = "InO";
    specs[i].program = &progs[i];
    specs[i].injections = 0;  // default scale: one injection per flip-flop
    specs[i].key = std::string("ablation/") + names[i];
  }

  // Sequential cold run (fresh processes would see the same work).
  auto t0 = std::chrono::steady_clock::now();
  std::vector<inject::CampaignResult> seq;
  for (auto spec : specs) {
    spec.key += "/seq";  // distinct cache identity from the batched run
    seq.push_back(engine::run_campaign(spec));
  }
  const double t_seq = seconds_since(t0);

  // Batched cold run: golden recording overlaps faulty runs.
  t0 = std::chrono::steady_clock::now();
  const auto batched = engine::run_campaigns(specs);
  const double t_batch = seconds_since(t0);

  // Warm reload: everything served from the pack.
  t0 = std::chrono::steady_clock::now();
  const auto warm = engine::run_campaigns(specs);
  const double t_warm = seconds_since(t0);

  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (batched[i].totals.omm != seq[i].totals.omm ||
        batched[i].totals.total() != warm[i].totals.total()) {
      bench::note("!! MISMATCH between sequential/batched/warm results");
    }
  }

  const auto files = static_cast<std::size_t>(
      std::distance(std::filesystem::directory_iterator(dir),
                    std::filesystem::directory_iterator()));

  bench::TextTable t({"Phase", "Campaigns", "Seconds"});
  t.add_row({"cold, sequential submission", std::to_string(specs.size()),
             util::TextTable::num(t_seq, 3)});
  t.add_row({"cold, batched submission", std::to_string(specs.size()),
             util::TextTable::num(t_batch, 3)});
  t.add_row({"warm reload from pack", std::to_string(specs.size()),
             util::TextTable::num(t_warm, 3)});
  t.print(std::cout);
  std::printf("cache dir after the run: %zu files\n", files);
  if (files != 2) {
    bench::note("!! expected exactly one pack + one index");
  }
  bench::note("(sharding the same campaigns across machines: see"
              " example_shard_and_merge; CLEAR_CACHE_MAX_BYTES bounds the"
              " pack with LRU eviction)");
}

// Kernel: pack put+get round-trip for a typical campaign payload.
void BM_PackPutGet(benchmark::State& state) {
  const std::string dir = ".clear_cache_ablation_pack_kernel";
  std::filesystem::remove_all(dir);
  inject::CachePack pack(dir);
  const std::string payload(24 * 1024, 'x');  // ~an InO campaign record
  std::uint64_t fp = 1;
  std::string out;
  for (auto _ : state) {
    pack.put(fp, "kernel", payload);
    benchmark::DoNotOptimize(pack.get(fp, &out));
    ++fp;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()) * 2);
}
BENCHMARK(BM_PackPutGet);

// Kernel: reopening a pack (scan + verify every record), the warm-load
// path every bench binary pays once per process.
void BM_PackReopenScan(benchmark::State& state) {
  const std::string dir = ".clear_cache_ablation_pack_scan";
  std::filesystem::remove_all(dir);
  {
    inject::CachePack pack(dir);
    const std::string payload(24 * 1024, 'y');
    for (std::uint64_t fp = 1; fp <= 64; ++fp) pack.put(fp, "scan", payload);
  }
  for (auto _ : state) {
    inject::CachePack pack(dir);
    benchmark::DoNotOptimize(pack.stats().records);
  }
}
BENCHMARK(BM_PackReopenScan);

}  // namespace

CLEAR_BENCH_MAIN(print_tables)
