// The `clear` command-line tool (built from tools/clear_main.cpp).
//
// Turns the library's sharded-campaign API into a real multi-machine
// workflow: each cluster job runs `clear run` for one shard and ships the
// resulting `.csr` file home (inject/wire.h), the frontend folds them
// with `clear merge`, renders them with `clear report`, and maintains the
// on-disk campaign cache with `clear cache`.  docs/ARCHITECTURE.md shows
// the data flow; docs/CONFIG.md lists every flag next to its env-var
// equivalent.
//
// Subcommands:
//   clear run      simulate one shard (or the whole campaign), write a .csr;
//                  --spec accepts multi-campaign manifests batched through
//                  one engine::run_campaigns submission
//   clear merge    fold any partition of .csr shard files into one .csr
//   clear report   human/CSV/JSON tables from .csr files
//   clear cache    stats / compact / evict for the campaign cache pack
//   clear explore  distributed design-space exploration: run/resume one
//                  combo-space shard into a .cxl ledger, merge shard
//                  ledgers, render the Pareto frontier (explore/explore.h)
//   clear serve    shard-worker daemon: accept campaign manifests over a
//                  local socket, send heartbeats, return .csr payloads
//   clear fleet    driver of serve daemons: shard a manifest or an
//                  exploration across them, live-merge the results
//   clear status   live fleet/worker telemetry tables: per-worker cache,
//                  latency and shard columns from serve heartbeats or a
//                  fleet --status-out file (docs/OBSERVABILITY.md)
//   clear version  binary + wire/ledger/pack format versions (--json)
//
// Exit codes: 0 success, 1 operational failure (I/O, corrupt or
// mismatched inputs, failed simulation), 2 usage error.
#ifndef CLEAR_CLI_CLI_H
#define CLEAR_CLI_CLI_H

#include <cstdint>
#include <string>

#include "fleet/status.h"
#include "obs/metrics.h"
#include "util/args.h"
#include "util/table.h"

namespace clear::cli {

// Binary version (independent of the on-disk format versions: those only
// move when bytes change shape, this moves every release).
constexpr const char* kClearVersion = "0.5.0";

// Entry point for tools/clear_main.cpp: dispatches argv[1] to the
// subcommands below, handles `--help`/`--version`/unknown commands.
int run(int argc, char** argv);

// Subcommand entry points (argc/argv exclude the program name and the
// subcommand word).  Each is independently testable.
int cmd_run(int argc, const char* const* argv);
int cmd_merge(int argc, const char* const* argv);
int cmd_report(int argc, const char* const* argv);
int cmd_cache(int argc, const char* const* argv);
// `clear explore <run|merge|frontier|report>`: argv[0] is the explore
// subcommand word.
int cmd_explore(int argc, const char* const* argv);
// `clear serve`: the shard-worker daemon (fleet/worker.h).
int cmd_serve(int argc, const char* const* argv);
// `clear fleet <run|explore>`: multi-worker orchestration over serve
// daemons (fleet/fleet.h), folding arriving results into live merges.
int cmd_fleet(int argc, const char* const* argv);
// `clear status [--file FILE | ENDPOINT...]`: renders worker telemetry
// (inflight work, cache hit rates, latency quantiles) from live serve
// heartbeats or a clear-fleet-status-v1 file a fleet driver maintains.
int cmd_status(int argc, const char* const* argv);
// `clear version [--json]`.
int cmd_version(int argc, const char* const* argv);

// The parse preamble of every verb.  A parse failure, or a missing
// `required` option, prints "<verb>: <error>" and the help on stderr
// (exit 2); --help prints the help on stdout (exit 0).  Returns true when
// the verb goes on, else false with its exit code in *exit_code.
bool parse_verb(util::ArgParser& args, int argc, const char* const* argv,
                const char* verb, int* exit_code,
                const char* required = nullptr);

// Writes a metric snapshot (clear-metrics-v1 JSON; by default the
// process-wide one) at the end of a CLI verb.  `path` is the verb's
// --metrics-out value ("-" = stdout, "" = off).  A write failure prints a
// warning under `ctx` but never fails the verb: telemetry must not fail
// the work it observes.
void write_metrics_out(const std::string& path, const char* ctx,
                       const obs::Snapshot& snap = obs::snapshot());

// Draws the `clear status` tables from a clear-fleet-status-v1 document
// (fleet/status.h); `clear explore watch --status` shares them.
// `show_shards_done` adds the per-worker shard column a fleet driver
// tallies.
[[nodiscard]] std::string render_status(const fleet::FleetStatus& status,
                                        bool show_shards_done);

// JSON string escaping for `clear report` / `clear explore` output.
using util::json_escape;

}  // namespace clear::cli

#endif  // CLEAR_CLI_CLI_H
