// Campaign run-plan resolution shared by `clear run` and the `clear
// serve` daemon.
//
// A "plan" is one fully-resolved campaign: flags (command line, a --spec
// stanza, or a manifest frame received over a serve socket) resolved to
// the program, resilience config, cache key and CampaignSpec the
// execution engine consumes, plus the identity fields its `.csr` shard
// file is stamped with.  Keeping this in one translation unit is what
// makes the daemon's results byte-identical to an in-process `clear run`:
// both paths resolve through exactly this code.
#ifndef CLEAR_PLAN_RUNPLAN_H
#define CLEAR_PLAN_RUNPLAN_H

#include <string>
#include <vector>

#include "arch/core.h"
#include "core/variants.h"
#include "inject/campaign.h"
#include "inject/wire.h"
#include "isa/program.h"
#include "util/args.h"

namespace clear::plan {

// Parses a variant key of '+'-joined technique tokens into the technique
// set it denotes: "base", "abftc", "abftd", "eddi" (no store-readback),
// "eddi_rb", "assert", "cfcss", "dfc", "monitor".  The output's key()
// round-trips to a canonical ordering of the same tokens.  Throws
// std::invalid_argument on an unknown token.
core::Variant parse_variant(const std::string& key);

// Parses "k/K" shard syntax (e.g. "2/8") into *index, *count.  Returns
// false on malformed input or index >= count.
bool parse_shard(const std::string& text, std::uint32_t* index,
                 std::uint32_t* count);

// Everything one campaign needs, with stable storage for the pointers a
// CampaignSpec holds.  After any reallocation of a container of plans,
// re-patch spec.program/spec.cfg (see patch_spec_pointers).
struct RunPlan {
  std::string core_name;
  std::string bench;
  core::Variant variant;
  std::uint32_t input_seed = 0;
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  std::uint32_t ff_count = 0;
  std::uint64_t global = 0;  // global sample count (all shards)
  arch::ResilienceConfig cfg;
  bool needs_cfg = false;
  isa::Program prog;
  std::string out;  // empty: print only (cache-warming manifests)
  inject::CampaignSpec spec;  // program/cfg pointers patched by the caller

  // Points spec.program/spec.cfg at this plan's own storage.  Call once
  // the plan's final address is known (after vector growth finished).
  void patch_spec_pointers() {
    spec.program = &prog;
    spec.cfg = needs_cfg ? &cfg : nullptr;
  }
};

// The `clear run` flag set (also the per-stanza manifest grammar).
[[nodiscard]] util::ArgParser make_run_parser();

// Splits spec text into per-campaign flag-token stanzas: the same
// `--flag value` grammar as the command line, whitespace-separated
// across any number of lines, `#` to end-of-line is a comment.  A line
// whose first token is `---` starts the next campaign stanza, turning
// the input into a multi-campaign manifest (`clear explore run
// --emit-manifest` writes these).
void split_spec_stanzas(const std::string& text,
                        std::vector<std::vector<std::string>>* stanzas);

// File wrapper around split_spec_stanzas; false when `path` is
// unreadable.
bool read_spec_stanzas(const std::string& path,
                       std::vector<std::vector<std::string>>* stanzas);

// Resolves parsed flags into one campaign plan (spec pointers NOT yet
// patched).  On failure fills *error -- prefixed with `ctx`, e.g.
// "clear run" or "clear run: in spec 'x' campaign #2" -- and returns
// false (a usage error, exit code 2 at the CLI).  `show_usage`, when
// non-null, is set when the failure warrants printing the full flag
// table (a bare invocation missing --bench) rather than the one-line
// error alone.
bool resolve_plan(const util::ArgParser& args, const std::string& ctx,
                  RunPlan* plan, std::string* error,
                  bool* show_usage = nullptr);

// The `.csr` shard file for one finished plan: identity stamped from the
// plan (core, key, program hash, global samples, seed, shard selection),
// payload from `result`.  Byte-identity contract: for equal flags this
// is the exact ShardFile `clear run --out` writes, wherever the campaign
// executed (in-process, manifest batch, or a serve daemon).
[[nodiscard]] inject::ShardFile plan_shard_file(
    const RunPlan& plan, const inject::CampaignResult& result);

// Resolves manifest text into a batch of plans, one per stanza, with no
// command-line overrides -- the serve daemon's path.  Stanzas carrying
// --spec (nested manifests), --dry-run, --list-benches or --out are
// refused: they direct a local CLI, not a remote worker.  Spec pointers
// ARE patched into the returned vector; do not reallocate it.  Returns
// false and fills *error on any resolution failure (nothing simulated).
bool resolve_manifest_text(const std::string& text, const std::string& ctx,
                           std::vector<RunPlan>* plans, std::string* error);

}  // namespace clear::plan

#endif  // CLEAR_PLAN_RUNPLAN_H
