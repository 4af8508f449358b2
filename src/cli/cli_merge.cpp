// `clear merge`: fold .csr shard files into one .csr.
//
// Any partition merges -- all K shards at once, or incrementally
// (merge 0+1, later merge that with 2+3): every .csr carries the set of
// shard indices it covers, and a merge is refused when identities
// mismatch or a shard index would be folded twice.  A complete merge is
// bit-identical to the unsharded campaign (inject/wire.h).
#include <cstdio>
#include <stdexcept>

#include "cli/cli.h"
#include "inject/wire.h"
#include "util/args.h"
#include "util/stats.h"

namespace clear::cli {

int cmd_merge(int argc, const char* const* argv) {
  util::ArgParser args(
      "clear merge --out <merged.csr> <shard.csr>...",
      "Folds shard result files into one.  Refuses files whose campaign\n"
      "identity (core, key, program, injections, seed, shard count)\n"
      "differs, whose wire version this binary does not understand, or\n"
      "whose coverage overlaps -- folding results of different campaigns\n"
      "silently corrupts a study, so every mismatch is a hard error.");
  args.add_option("out", "file.csr", "write the merged result here");
  args.add_flag("allow-partial",
                "succeed even when some shards of the partition are missing");
  args.add_option("metrics-out", "file",
                  "write the process metric snapshot after the merge "
                  "(clear-metrics-v1 JSON; '-' = stdout)");
  args.allow_positionals("shard.csr...", "shard result files to fold");

  int rc = 0;
  if (!parse_verb(args, argc, argv, "clear merge", &rc, "out")) return rc;
  if (args.positionals().empty()) {
    std::fprintf(stderr, "clear merge: no shard files given\n%s",
                 args.help().c_str());
    return 2;
  }

  inject::ShardFile merged;
  for (const std::string& path : args.positionals()) {
    inject::ShardFile s;
    const inject::WireStatus st = inject::load_shard_file(path, &s);
    if (st != inject::WireStatus::kOk) {
      std::fprintf(stderr, "clear merge: %s: %s\n", path.c_str(),
                   inject::wire_status_name(st));
      return 1;
    }
    try {
      inject::fold_shard(&merged, s);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "clear merge: %s\n", e.what());
      return 1;
    }
  }

  if (!merged.complete() && !args.has("allow-partial")) {
    std::fprintf(stderr,
                 "clear merge: only %zu of %u shards covered; pass "
                 "--allow-partial to write a partial result\n",
                 merged.covered.size(), merged.shard_count);
    return 1;
  }

  inject::write_shard_file(args.get("out"), merged);
  std::printf("merged %zu files -> %s: %zu/%u shards, %llu samples, "
              "SDC %llu, DUE %llu%s\n",
              args.positionals().size(), args.get("out").c_str(),
              merged.covered.size(), merged.shard_count,
              static_cast<unsigned long long>(merged.result.totals.total()),
              static_cast<unsigned long long>(merged.result.totals.sdc()),
              static_cast<unsigned long long>(merged.result.totals.due()),
              merged.complete() ? " (complete campaign)" : " (partial)");
  if (merged.result.adaptive()) {
    // Achieved intervals over the MERGED counters -- tighter than any
    // single shard's, and for a complete merge exactly the unsharded
    // campaign's intervals.
    const util::Interval sdc = merged.result.sdc_interval();
    const util::Interval due = merged.result.due_interval();
    std::printf("confidence +/-%g (%s): executed %llu of %llu budget; "
                "achieved SDC [%.6g, %.6g] +/-%.4g, DUE [%.6g, %.6g] "
                "+/-%.4g\n",
                merged.result.confidence_target,
                util::interval_method_name(merged.result.confidence_method),
                static_cast<unsigned long long>(
                    merged.result.samples_executed()),
                static_cast<unsigned long long>(merged.injections), sdc.lo,
                sdc.hi, util::interval_half_width(sdc), due.lo, due.hi,
                util::interval_half_width(due));
  }
  write_metrics_out(args.get("metrics-out"), "clear merge");
  return 0;
}

}  // namespace clear::cli
