// Shared infrastructure for the paper-table printer (bench/paper_tables.cpp).
//
// Each bench/*.cpp file reproduces one table or figure from the paper's
// evaluation as one function: it prints the measured reproduction next to
// the paper-reported reference values.  All tables share the on-disk
// campaign cache pack (CLEAR_CACHE_DIR, default .clear_cache -- exactly one
// pack + one index per directory, LRU-bounded by CLEAR_CACHE_MAX_BYTES)
// and, within one process, the per-core sessions below, so the expensive
// injection campaigns run once across the whole printer.  Sessions submit
// each variant's campaigns as one batch (engine::run_campaigns),
// overlapping golden-run recording with faulty runs on the shared worker
// pool; campaigns too big for one machine shard across processes via
// CampaignSpec::shard_index/shard_count and merge with `clear merge`
// (see example_shard_and_merge).
#ifndef CLEAR_BENCH_COMMON_H
#define CLEAR_BENCH_COMMON_H

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

// One function per table/figure file; paper_tables.cpp calls them in paper
// order.
void fig01d_pareto();
void table01_designs();
void table02_ff_vulnerability();
void table03_standalone();
void table04_cell_library();
void table05_06_spacing();
void table07_parity_heuristics();
void table08_dfc_coverage();
void table09_monitor_ipc();
void table10_assertions();
void table11_14_injection_levels();
void table12_cfcss();
void table13_eddi_readback();
void table15_recovery();
void table16_selective_eddi();
void table17_tunable();
void table18_combinations();
void table19_crosslayer();
void table20_joint();
void fig08_abft_scatter();
void table21_22_abft();
void fig09_10_bounds();
void table23_26_benchdep();
void table27_similarity();

}  // namespace clear::bench

#endif  // CLEAR_BENCH_COMMON_H
