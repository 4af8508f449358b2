// Shared infrastructure for the per-table/per-figure bench binaries.
//
// Each binary reproduces one table or figure from the paper's evaluation:
// it prints the measured reproduction next to the paper-reported reference
// values, then runs a google-benchmark measurement of the underlying
// computational kernel.  All binaries share the on-disk campaign cache
// pack (CLEAR_CACHE_DIR, default .clear_cache -- exactly one pack + one
// index per directory, LRU-bounded by CLEAR_CACHE_MAX_BYTES), so the
// expensive injection campaigns run once across the whole bench suite.
// Sessions submit each variant's campaigns as one batch
// (engine::run_campaigns), overlapping golden-run recording with faulty
// runs on the shared worker pool; campaigns too big for one machine shard
// across processes via CampaignSpec::shard_index/shard_count and merge
// with inject::merge_campaign_results (see example_shard_and_merge).
#ifndef CLEAR_BENCH_COMMON_H
#define CLEAR_BENCH_COMMON_H

#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "core/benchdep.h"
#include "isa/assembler.h"
#include "core/combos.h"
#include "core/selection.h"
#include "util/table.h"

namespace clear::bench {

inline core::Session& session(const std::string& core) {
  static std::map<std::string, std::unique_ptr<core::Session>> sessions;
  auto& slot = sessions[core];
  if (!slot) slot = std::make_unique<core::Session>(core);
  return *slot;
}

inline core::Selector& selector(const std::string& core) {
  static std::map<std::string, std::unique_ptr<core::Selector>> selectors;
  auto& slot = selectors[core];
  if (!slot) slot = std::make_unique<core::Selector>(session(core));
  return *slot;
}

inline void header(const char* id, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("CLEAR reproduction — %s: %s\n", id, title);
  std::printf("================================================================\n");
}

inline void note(const char* text) { std::printf("%s\n", text); }

using util::TextTable;

}  // namespace clear::bench

// Prints the reproduction table(s), then runs registered benchmarks.
#define CLEAR_BENCH_MAIN(print_fn)                    \
  int main(int argc, char** argv) {                   \
    print_fn();                                       \
    ::benchmark::Initialize(&argc, argv);             \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();            \
    ::benchmark::Shutdown();                          \
    return 0;                                         \
  }

#endif  // CLEAR_BENCH_COMMON_H
