// `clear explore`: distributed design-space exploration.
//
//   clear explore run       run (or resume) one shard of an exploration,
//                           appending every outcome to a .cxl ledger
//   clear explore merge     fold disjoint shard ledgers into one .cxl
//   clear explore frontier  Pareto frontier + target-meeting set
//   clear explore report    ledger identity, coverage and point dump
//
// The sharded workflow mirrors `clear run`/`merge`/`report`: K cluster
// jobs each run `clear explore run --shard k/K`, ship their .cxl home,
// the frontend folds them with `clear explore merge` -- bit-identical to
// the unsharded exploration -- and renders them with `frontier`/`report`.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli.h"
#include "explore/explore.h"
#include "explore/ledger.h"
#include "plan/runplan.h"
#include "util/args.h"
#include "util/fs.h"
#include "util/table.h"

namespace clear::cli {

namespace {

const char* metric_name(std::uint32_t m) {
  return m <= 2 ? core::metric_token(static_cast<core::Metric>(m)) : "?";
}

void add_point_row(util::TextTable* t, const explore::LedgerRecord& r) {
  t->add_row({r.combo, explore::record_kind_name(r.kind),
              util::TextTable::num(r.energy * 100, 2),
              util::TextTable::num(r.sdc_protected_pct, 2),
              util::TextTable::num(r.imp_sdc, 1),
              util::TextTable::num(r.imp_due, 1),
              r.target_met ? "yes" : "no"});
}

util::TextTable point_table() {
  return util::TextTable({"combination", "kind", "energy %", "SDC prot %",
                          "SDC imp", "DUE imp", "met"});
}

void emit_point_json(std::ostringstream* out, const explore::LedgerRecord& r) {
  *out << "{\"combo\": \"" << json_escape(r.combo) << "\", \"index\": "
       << r.combo_index << ", \"kind\": \""
       << explore::record_kind_name(r.kind) << "\", \"target\": " << r.target
       << ", \"target_met\": " << (r.target_met ? "true" : "false")
       << ", \"energy\": " << r.energy << ", \"area\": " << r.area
       << ", \"power\": " << r.power << ", \"exec\": " << r.exec
       << ", \"sdc_protected_pct\": " << r.sdc_protected_pct
       << ", \"imp_sdc\": " << r.imp_sdc << ", \"imp_due\": " << r.imp_due
       << "}";
}

void emit_identity_json(std::ostringstream* out, const explore::Ledger& l) {
  *out << "{\"core\": \"" << json_escape(l.core) << "\", \"target\": "
       << l.target << ", \"metric\": \"" << metric_name(l.metric)
       << "\", \"seed\": " << l.seed << ", \"per_ff_samples\": "
       << l.per_ff_samples << ", \"confidence\": " << l.confidence
       << ", \"confidence_method\": \""
       << util::interval_method_name(
              static_cast<util::IntervalMethod>(l.confidence_method))
       << "\", \"combo_count\": " << l.combo_count
       << ", \"pruning\": " << (l.pruning ? "true" : "false")
       << ", \"shard_count\": " << l.shard_count << ", \"covered\": [";
  for (std::size_t i = 0; i < l.covered.size(); ++i) {
    *out << (i ? ", " : "") << l.covered[i];
  }
  *out << "], \"complete\": " << (l.complete() ? "true" : "false")
       << ", \"benchmarks\": [";
  for (std::size_t i = 0; i < l.benchmarks.size(); ++i) {
    *out << (i ? ", " : "") << "\"" << json_escape(l.benchmarks[i]) << "\"";
  }
  *out << "]}";
}

int load_or_complain(const char* cmd, const std::string& path,
                     explore::Ledger* out) {
  explore::LedgerLoadInfo info;
  const explore::LedgerStatus st = explore::load_ledger_file(path, out, &info);
  if (st != explore::LedgerStatus::kOk) {
    std::fprintf(stderr, "clear explore %s: %s: %s\n", cmd, path.c_str(),
                 explore::ledger_status_name(st));
    return 1;
  }
  if (info.tail_dropped_bytes > 0) {
    std::fprintf(stderr,
                 "clear explore %s: %s: dropped %zu damaged trailing bytes "
                 "(%zu clean records kept)\n",
                 cmd, path.c_str(), info.tail_dropped_bytes,
                 info.records_loaded);
  }
  return 0;
}

int explore_run(int argc, const char* const* argv) {
  util::ArgParser args(
      "clear explore run --ledger <out.cxl> [options]",
      "Runs (or resumes) one shard of a cross-layer design-space\n"
      "exploration: every valid combination owned by this shard (combo\n"
      "index i with i mod K == k) is evaluated at the improvement target\n"
      "and appended to the ledger.  Killed runs resume from the ledger\n"
      "without re-running completed combos; K shard ledgers fold with\n"
      "'clear explore merge' bit-identically to the unsharded run.");
  explore::add_spec_flags(&args);
  args.add_option("shard", "k/K", "own combo indices i with i mod K == k",
                  "0/1");
  args.add_option("ledger", "file.cxl", "exploration ledger to append to");
  args.add_option("emit-manifest", "file",
                  "write the profiling campaigns as a multi-campaign spec "
                  "for 'clear run --spec' and exit");
  args.add_flag("dry-run", "resolve and print the plan, simulate nothing");
  args.add_flag("quiet", "suppress per-batch progress lines");
  args.add_option("metrics-out", "file",
                  "write the process metric snapshot after the run "
                  "(clear-metrics-v1 JSON; '-' = stdout)");

  int rc = 0;
  if (!parse_verb(args, argc, argv, "clear explore run", &rc)) return rc;

  std::string error;
  explore::ExploreSpec spec;
  if (!explore::read_spec_flags(args, &spec, &error)) {
    std::fprintf(stderr, "clear explore run: %s\n", error.c_str());
    return 2;
  }
  if (!plan::parse_shard(args.get("shard"), &spec.shard_index,
                         &spec.shard_count)) {
    std::fprintf(stderr,
                 "clear explore run: bad --shard '%s' (want k/K with k < K)\n",
                 args.get("shard").c_str());
    return 2;
  }

  explore::Ledger identity;
  try {
    identity = explore::resolve_identity(spec);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "clear explore run: %s\n", e.what());
    return 2;
  }

  const std::string ledger_path = args.get("ledger");
  std::printf("exploration %s: %u combos, target %gx %s, seed %" PRIu64
              ", %" PRIu64 " per-FF samples\n",
              identity.core.c_str(), identity.combo_count, identity.target,
              metric_name(identity.metric), identity.seed,
              identity.per_ff_samples);
  const std::uint32_t owned =
      identity.combo_count > spec.shard_index
          ? (identity.combo_count - spec.shard_index + spec.shard_count - 1) /
                spec.shard_count
          : 0;
  std::printf("suite      %zu benchmarks; shard %u/%u owns %u combos; "
              "pruning %s\n",
              identity.benchmarks.size(), spec.shard_index, spec.shard_count,
              owned, identity.pruning ? "on" : "off");
  if (identity.confidence > 0.0) {
    std::printf("confidence +/-%g (%s), per-FF budget ceiling %" PRIu64 "\n",
                identity.confidence,
                util::interval_method_name(static_cast<util::IntervalMethod>(
                    identity.confidence_method)),
                identity.per_ff_samples);
  }

  if (args.has("emit-manifest")) {
    explore::write_profile_manifest(spec, args.get("emit-manifest"));
    std::printf("wrote profiling manifest %s\n",
                args.get("emit-manifest").c_str());
    return 0;
  }

  if (args.has("dry-run")) {
    if (!ledger_path.empty()) {
      explore::Ledger on_disk;
      explore::LedgerLoadInfo info;
      const explore::LedgerStatus st =
          explore::load_ledger_file(ledger_path, &on_disk, &info);
      if (st == explore::LedgerStatus::kOk) {
        if (!on_disk.same_identity(identity) ||
            on_disk.covered != identity.covered) {
          std::fprintf(stderr,
                       "clear explore run: %s belongs to a different "
                       "exploration\n",
                       ledger_path.c_str());
          return 1;
        }
        std::printf("ledger     %s: %zu records, %zu combos pending\n",
                    ledger_path.c_str(), on_disk.records.size(),
                    on_disk.missing_indices().size());
      } else {
        std::printf("ledger     %s: %s (a run would start fresh)\n",
                    ledger_path.c_str(), explore::ledger_status_name(st));
      }
    }
    std::printf("dry run: nothing simulated\n");
    return 0;
  }
  if (ledger_path.empty()) {
    std::fprintf(stderr, "clear explore run: --ledger is required\n%s",
                 args.help().c_str());
    return 2;
  }

  const bool quiet = args.has("quiet");
  explore::Ledger result;
  try {
    result = explore::run_exploration(
        spec, ledger_path, [&](const explore::Progress& p) {
          if (quiet) return;
          if (p.done % 50 != 0 && p.done != p.pending) return;
          std::printf("progress   %zu/%zu (evaluated %zu, pruned %zu, "
                      "skipped %zu)\n",
                      p.done, p.pending, p.evaluated, p.pruned, p.skipped);
          std::fflush(stdout);
        });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "clear explore run: %s\n", e.what());
    return 1;
  }

  std::size_t points = 0, pruned = 0, skipped = 0, anchors = 0;
  for (const auto& r : result.records) {
    switch (r.kind) {
      case explore::RecordKind::kPoint: ++points; break;
      case explore::RecordKind::kAnchor: ++anchors; break;
      case explore::RecordKind::kPruned: ++pruned; break;
      case explore::RecordKind::kSkipped: ++skipped; break;
    }
  }
  std::printf("ledger     %s: %zu evaluated + %zu anchors, %zu pruned, "
              "%zu skipped%s\n",
              ledger_path.c_str(), points, anchors, pruned, skipped,
              result.complete() ? " (exploration complete)" : "");
  const auto meeting = explore::target_meeting_points(result);
  if (!meeting.empty()) {
    std::printf("cheapest combination meeting the target: %s "
                "(energy %.2f%%, SDC %.1fx)\n",
                meeting.front()->combo.c_str(),
                meeting.front()->energy * 100, meeting.front()->imp_sdc);
  }
  write_metrics_out(args.get("metrics-out"), "clear explore run");
  return 0;
}

int explore_merge(int argc, const char* const* argv) {
  util::ArgParser args(
      "clear explore merge --out <merged.cxl> <shard.cxl>...",
      "Folds shard exploration ledgers into one.  Refuses ledgers whose\n"
      "experiment identity (core, target, metric, seed, scale, suite,\n"
      "combination space, pruning, shard count) differs or whose shard\n"
      "coverage overlaps.  A complete merge carries exactly the records\n"
      "the unsharded exploration would have written.");
  args.add_option("out", "file.cxl", "write the merged ledger here");
  args.add_flag("allow-partial",
                "succeed even when some shards or combos are missing");
  args.allow_positionals("shard.cxl...", "shard ledgers to fold");

  int rc = 0;
  if (!parse_verb(args, argc, argv, "clear explore merge", &rc, "out")) {
    return rc;
  }
  if (args.positionals().empty()) {
    std::fprintf(stderr, "clear explore merge: no ledgers given\n%s",
                 args.help().c_str());
    return 2;
  }

  explore::Ledger merged;
  for (const std::string& path : args.positionals()) {
    explore::Ledger l;
    if (load_or_complain("merge", path, &l) != 0) return 1;
    try {
      explore::fold_ledger(&merged, l);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "clear explore merge: %s\n", e.what());
      return 1;
    }
  }
  if (!merged.complete() && !args.has("allow-partial")) {
    std::fprintf(stderr,
                 "clear explore merge: %zu of %u shards covered, %zu combos "
                 "missing; pass --allow-partial to write a partial ledger\n",
                 merged.covered.size(), merged.shard_count,
                 merged.missing_indices().size());
    return 1;
  }
  explore::write_ledger_file(args.get("out"), merged);
  std::printf("merged %zu ledgers -> %s: %zu/%u shards, %zu records%s\n",
              args.positionals().size(), args.get("out").c_str(),
              merged.covered.size(), merged.shard_count,
              merged.records.size(),
              merged.complete() ? " (complete exploration)" : " (partial)");
  return 0;
}

int explore_frontier(int argc, const char* const* argv) {
  util::ArgParser args(
      "clear explore frontier [--format human|csv|json] <ledger.cxl>",
      "Renders the Pareto frontier (minimal energy for each protection\n"
      "level) and the cheapest target-meeting combinations of an\n"
      "exploration ledger.");
  args.add_option("format", "human|csv|json", "output format", "human");
  args.add_option("limit", "N", "cap the target-meeting list (0 = all)",
                  "10");
  args.allow_positionals("ledger.cxl", "exploration ledger to render");

  int rc = 0;
  if (!parse_verb(args, argc, argv, "clear explore frontier", &rc)) return rc;
  const std::string format = args.get("format");
  if (format != "human" && format != "csv" && format != "json") {
    std::fprintf(stderr, "clear explore frontier: bad --format '%s'\n",
                 format.c_str());
    return 2;
  }
  std::uint64_t limit = 10;
  if (!args.get_u64("limit", 10, &limit)) {
    std::fprintf(stderr, "clear explore frontier: bad --limit\n");
    return 2;
  }
  if (args.positionals().size() != 1) {
    std::fprintf(stderr, "clear explore frontier: exactly one ledger\n%s",
                 args.help().c_str());
    return 2;
  }

  explore::Ledger l;
  if (load_or_complain("frontier", args.positionals()[0], &l) != 0) return 1;
  const auto frontier = explore::pareto_frontier(l);
  auto meeting = explore::target_meeting_points(l);
  if (limit != 0 && meeting.size() > limit) meeting.resize(limit);

  if (format == "json") {
    std::ostringstream out;
    out << "{\"identity\": ";
    emit_identity_json(&out, l);
    out << ",\n \"frontier\": [";
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      out << (i ? ",\n   " : "");
      emit_point_json(&out, *frontier[i]);
    }
    out << "],\n \"target_meeting\": [";
    for (std::size_t i = 0; i < meeting.size(); ++i) {
      out << (i ? ",\n   " : "");
      emit_point_json(&out, *meeting[i]);
    }
    out << "]}\n";
    std::fputs(out.str().c_str(), stdout);
    return 0;
  }

  util::TextTable ft = point_table();
  for (const auto* r : frontier) add_point_row(&ft, *r);
  util::TextTable mt = point_table();
  for (const auto* r : meeting) add_point_row(&mt, *r);
  if (format == "csv") {
    std::fputs(ft.csv().c_str(), stdout);
    std::fputs("\n", stdout);
    std::fputs(mt.csv().c_str(), stdout);
    return 0;
  }
  std::size_t evaluated = 0;
  for (const auto& r : l.records) {
    evaluated += (r.kind == explore::RecordKind::kPoint ||
                  r.kind == explore::RecordKind::kAnchor);
  }
  std::printf("Pareto frontier (%zu of %zu evaluated points; target %gx "
              "%s):\n",
              frontier.size(), evaluated, l.target, metric_name(l.metric));
  ft.print(std::cout);
  std::printf("\ncheapest combinations meeting the target:\n");
  mt.print(std::cout);
  return 0;
}

int explore_report(int argc, const char* const* argv) {
  util::ArgParser args(
      "clear explore report [--format human|csv|json] [--all] "
      "<ledger.cxl>...",
      "Ledger identity, shard coverage and record statistics; --all adds\n"
      "every record (the full design-space cloud).");
  args.add_option("format", "human|csv|json", "output format", "human");
  args.add_flag("all", "dump every record, not just the summary");
  args.allow_positionals("ledger.cxl...", "exploration ledgers");

  int rc = 0;
  if (!parse_verb(args, argc, argv, "clear explore report", &rc)) return rc;
  const std::string format = args.get("format");
  if (format != "human" && format != "csv" && format != "json") {
    std::fprintf(stderr, "clear explore report: bad --format '%s'\n",
                 format.c_str());
    return 2;
  }
  if (args.positionals().empty()) {
    std::fprintf(stderr, "clear explore report: no ledgers given\n%s",
                 args.help().c_str());
    return 2;
  }

  std::vector<std::pair<std::string, explore::Ledger>> files;
  for (const std::string& path : args.positionals()) {
    explore::Ledger l;
    if (load_or_complain("report", path, &l) != 0) return 1;
    files.emplace_back(path, std::move(l));
  }

  if (format == "json") {
    std::ostringstream out;
    out << "[\n";
    for (std::size_t i = 0; i < files.size(); ++i) {
      const auto& [path, l] = files[i];
      out << " {\"file\": \"" << json_escape(path) << "\", \"identity\": ";
      emit_identity_json(&out, l);
      out << ", \"records\": " << l.records.size();
      if (args.has("all")) {
        out << ", \"points\": [";
        for (std::size_t r = 0; r < l.records.size(); ++r) {
          out << (r ? ",\n   " : "");
          emit_point_json(&out, l.records[r]);
        }
        out << "]";
      }
      out << "}" << (i + 1 < files.size() ? "," : "") << "\n";
    }
    out << "]\n";
    std::fputs(out.str().c_str(), stdout);
    return 0;
  }

  util::TextTable summary({"file", "core", "target", "metric", "seed",
                           "per-FF", "benches", "combos", "shards",
                           "evaluated", "pruned", "skipped", "missing"});
  for (const auto& [path, l] : files) {
    std::size_t points = 0, pruned = 0, skipped = 0;
    for (const auto& r : l.records) {
      if (r.kind == explore::RecordKind::kPruned) ++pruned;
      else if (r.kind == explore::RecordKind::kSkipped) ++skipped;
      else ++points;
    }
    summary.add_row(
        {path, l.core, util::TextTable::num(l.target, 1),
         metric_name(l.metric), std::to_string(l.seed),
         std::to_string(l.per_ff_samples), std::to_string(l.benchmarks.size()),
         std::to_string(l.combo_count),
         std::to_string(l.covered.size()) + "/" +
             std::to_string(l.shard_count) + (l.complete() ? " (full)" : ""),
         std::to_string(points), std::to_string(pruned),
         std::to_string(skipped), std::to_string(l.missing_indices().size())});
  }
  std::fputs(format == "csv" ? summary.csv().c_str() : summary.str().c_str(),
             stdout);

  if (args.has("all")) {
    util::TextTable pts = point_table();
    for (const auto& [path, l] : files) {
      (void)path;
      for (const auto& r : l.records) add_point_row(&pts, r);
    }
    std::fputs("\n", stdout);
    std::fputs(format == "csv" ? pts.csv().c_str() : pts.str().c_str(),
               stdout);
  }
  return 0;
}

int explore_watch(int argc, const char* const* argv) {
  util::ArgParser args(
      "clear explore watch --ledger <file> [options]",
      "Follows a ledger a fleet (or K sharded 'clear explore run' jobs)\n"
      "is merging into: polls the file, prints a line whenever coverage\n"
      "or the record count advances, and exits 0 once the exploration is\n"
      "complete.  The writer rewrites atomically (tmp + rename), so every\n"
      "poll sees a consistent ledger.");
  args.add_option("ledger", "file", "merged ledger to follow (required)");
  args.add_option("interval-ms", "N", "poll interval", "500");
  args.add_option("timeout-ms", "N",
                  "give up after N ms without completion (0 = never)", "0");
  args.add_flag("once", "print one snapshot and exit (0 even if incomplete)");
  args.add_option("status", "FILE",
                  "also follow a clear-fleet-status-v1 file (the fleet "
                  "driver's --status-out) and render its worker/cache/"
                  "latency tables whenever it changes");

  int rc = 0;
  if (!parse_verb(args, argc, argv, "clear explore watch", &rc, "ledger")) {
    return rc;
  }
  int interval_ms = 500, timeout_ms = 0;
  if (!args.get_ms("interval-ms", 500, &interval_ms) || interval_ms == 0 ||
      !args.get_ms("timeout-ms", 0, &timeout_ms)) {
    std::fprintf(stderr, "clear explore watch: bad numeric flag value\n");
    return 2;
  }
  const std::string path = args.get("ledger");
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);

  const std::string status_path = args.get("status");
  std::string last_status_doc;
  // Renders the fleet status file when its contents changed since the
  // last poll.  A missing or torn document is not an error: the driver
  // writes tmp + rename, so the next poll sees a whole one.
  const auto poll_status = [&] {
    std::string doc, status_error;
    fleet::FleetStatus status;
    if (status_path.empty() || !util::read_file(status_path, &doc) ||
        doc.empty() || doc == last_status_doc ||
        !fleet::status_from_json(doc, &status, &status_error)) {
      return;
    }
    last_status_doc = std::move(doc);
    std::printf("\n--- fleet status (%s) ---\n%s\n", status_path.c_str(),
                render_status(status, /*show_shards_done=*/true).c_str());
    std::fflush(stdout);
  };

  std::size_t last_records = static_cast<std::size_t>(-1);
  std::size_t last_covered = static_cast<std::size_t>(-1);
  for (;;) {
    poll_status();
    explore::Ledger l;
    const explore::LedgerStatus st = explore::load_ledger_file(path, &l);
    if (st == explore::LedgerStatus::kOk) {
      if (l.records.size() != last_records ||
          l.covered.size() != last_covered) {
        last_records = l.records.size();
        last_covered = l.covered.size();
        std::printf("watch      %s: shards %zu/%u, records %zu, missing "
                    "%zu%s\n",
                    path.c_str(), l.covered.size(), l.shard_count,
                    l.records.size(), l.missing_indices().size(),
                    l.complete() ? " -- complete" : "");
        std::fflush(stdout);
      }
      if (l.complete()) return 0;
    } else if (last_records == static_cast<std::size_t>(-1)) {
      // Not written yet (fleet still waiting on its first shard): report
      // once, keep polling.
      std::printf("watch      %s: waiting (%s)\n", path.c_str(),
                  explore::ledger_status_name(st));
      std::fflush(stdout);
      last_records = static_cast<std::size_t>(-2);
    }
    if (args.has("once")) return 0;
    if (timeout_ms != 0 && std::chrono::steady_clock::now() >= deadline) {
      std::fprintf(stderr,
                   "clear explore watch: timed out after %d ms\n",
                   timeout_ms);
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

constexpr const char* kExploreHelp =
    "usage: clear explore <command> [options]\n"
    "\n"
    "Distributed cross-layer design-space exploration (the paper's 586\n"
    "combinations).  Shard the combination space across machines, merge\n"
    "the ledgers bit-exactly, render the Pareto frontier (docs/FORMATS.md\n"
    "specifies the .cxl ledger format).\n"
    "\n"
    "commands:\n"
    "  run       run/resume one shard, appending to a .cxl ledger\n"
    "  merge     fold shard ledgers into one .cxl (refuses mismatches)\n"
    "  frontier  Pareto frontier + cheapest target-meeting combinations\n"
    "  report    ledger identity, coverage and record statistics\n"
    "  watch     follow a merging ledger until the exploration completes\n"
    "\n"
    "run 'clear explore <command> --help' for per-command flags.\n";

}  // namespace

int cmd_explore(int argc, const char* const* argv) {
  if (argc < 1) {
    std::fputs(kExploreHelp, stderr);
    return 2;
  }
  const std::string sub = argv[0];
  if (sub == "run") return explore_run(argc - 1, argv + 1);
  if (sub == "merge") return explore_merge(argc - 1, argv + 1);
  if (sub == "frontier") return explore_frontier(argc - 1, argv + 1);
  if (sub == "report") return explore_report(argc - 1, argv + 1);
  if (sub == "watch") return explore_watch(argc - 1, argv + 1);
  if (sub == "--help" || sub == "-h" || sub == "help") {
    std::fputs(kExploreHelp, stdout);
    return 0;
  }
  std::fprintf(stderr, "clear explore: unknown command '%s'\n\n", sub.c_str());
  std::fputs(kExploreHelp, stderr);
  return 2;
}

}  // namespace clear::cli
