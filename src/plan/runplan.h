// Campaign run-plan resolution shared by `clear run`, the `clear serve`
// daemon and the `clear fleet run` driver.
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

// Parses "k/K" shard syntax (e.g. "2/8"; both numbers digits only, as
// util::parse_u64) into *index, *count.  Returns false on malformed input
// or index >= count.
bool parse_shard(const std::string& text, std::uint32_t* index,
                 std::uint32_t* count);

// Where a manifest is resolved.  Each site refuses the stanza flags the
// refusal table (runplan.cpp, mirrored in docs/CONFIG.md) marks for it.
enum class Site {
  kLocal,   // `clear run`: the command line resolves on top of each stanza
  kWorker,  // a `clear serve` worker executing a fleet shard
  kFleet,   // `clear fleet run`, before it appends --shard k/K
};

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
  std::vector<std::string> tokens;  // the stanza's own flag tokens
  // Local `clear run` directives (refused on a worker and by the fleet).
  std::string out;  // empty: print only (cache-warming manifests)
  std::string metrics_out;
  bool dry_run = false;
  bool list_benches = false;  // only core_name is resolved
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

// The `.csr` shard file for one finished plan: identity stamped from the
// plan (core, key, program hash, global samples, seed, shard selection),
// payload from `result`.  Byte-identity contract: for equal flags this
// is the exact ShardFile `clear run --out` writes, wherever the campaign
// executed (in-process, manifest batch, or a serve daemon).
[[nodiscard]] inject::ShardFile plan_shard_file(
    const RunPlan& plan, const inject::CampaignResult& result);

// The one manifest resolver: splits `text` into stanzas, refuses any
// stanza flag the refusal table forbids at `site`, and resolves each
// stanza once into a plan.  At Site::kLocal the flags of `command_line`
// apply on top of every stanza (they win); empty text is then one empty
// stanza, so the command line alone is the campaign.  Errors are
// prefixed with `ctx` (and "campaign #i" in a multi-stanza manifest)
// and are usage errors (exit code 2 at the CLI, kBadRequest over serve).
// An unknown benchmark throws, as core::build_variant_program does.
// Spec pointers ARE patched into the returned vector; do not reallocate
// it.  Returns false and fills *error on any failure (nothing simulated).
bool resolve_manifest_text(const std::string& text, const std::string& ctx,
                           std::vector<RunPlan>* plans, std::string* error,
                           Site site = Site::kWorker,
                           const util::ArgParser* command_line = nullptr);

}  // namespace clear::plan

#endif  // CLEAR_PLAN_RUNPLAN_H
