// `clear fleet`: the multi-worker campaign/exploration orchestrator.
//
//   clear fleet run      shard a multi-campaign manifest across `clear
//                        serve` workers and live-merge the returned .csr
//                        payloads into watchable output files.
//   clear fleet explore  shard an exploration's combination space across
//                        workers and live-merge the returned .cxl shard
//                        ledgers into one ledger file -- `clear explore
//                        watch` (or frontier/report) reads it while the
//                        fleet is still running.
//
// Worker endpoints are positional operands: a UNIX socket path,
// `tcp:PORT` for 127.0.0.1 TCP, and either form with `@N` appended to
// address the N children of `clear serve --workers N` (path.0..path.N-1 /
// PORT..PORT+N-1).  Scheduling (pull dispatch, dead-worker redispatch)
// lives in fleet/fleet.h; every redispatch is
// bit-identical to a single-worker run because shard results derive from
// the global sample/combo index alone.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "explore/explore.h"
#include "explore/ledger.h"
#include "fleet/fleet.h"
#include "inject/wire.h"
#include "obs/metrics.h"
#include "util/args.h"
#include "util/fs.h"

namespace clear::cli {

namespace {

void add_driver_flags(util::ArgParser* args) {
  args->add_option("shards", "K", "shard count (default: worker count)", "0");
  args->add_option("connect-retry-ms", "N",
                   "per-worker connect retry budget", "5000");
  args->add_option("hello-timeout-ms", "N",
                   "give up on a silent worker's hello after N ms", "10000");
  args->add_option("dead-after-ms", "N",
                   "declare a worker dead after N ms without a frame",
                   "5000");
  args->add_flag("shutdown", "ask workers to exit when the fleet completes");
  args->add_flag("quiet", "suppress scheduling log lines");
  args->add_option("status-out", "FILE",
                   "maintain a live clear-fleet-status-v1 JSON file (read "
                   "by 'clear status --file' / 'clear explore watch "
                   "--status')");
  args->add_option("metrics-out", "FILE",
                   "write the final metric snapshot (driver + workers "
                   "merged, clear-metrics-v1 JSON; '-' = stdout)");
}

bool parse_driver_flags(const util::ArgParser& args, const char* ctx,
                        fleet::FleetOptions* opts, std::uint64_t* shards) {
  std::uint64_t connect_ms = 0, hello_ms = 0, dead_ms = 0;
  if (!args.get_u64("shards", 0, shards) || *shards > 65536 ||
      !args.get_u64("connect-retry-ms", 5000, &connect_ms) ||
      !args.get_u64("hello-timeout-ms", 10000, &hello_ms) || hello_ms == 0 ||
      !args.get_u64("dead-after-ms", 5000, &dead_ms) || dead_ms == 0) {
    std::fprintf(stderr, "%s: bad numeric flag value\n", ctx);
    return false;
  }
  opts->connect_retry_ms = static_cast<int>(connect_ms);
  opts->hello_timeout_ms = static_cast<int>(hello_ms);
  opts->dead_after_ms = static_cast<int>(dead_ms);
  opts->shutdown_workers = args.has("shutdown");
  opts->status_out = args.get("status-out");
  return true;
}

// Final metric dump for a fleet verb: the driver's own snapshot merged
// with every worker's last heartbeat snapshot (counters add, gauges keep
// the fleet-wide high-water mark).
void write_fleet_metrics(const std::string& flag, const char* ctx,
                         const fleet::FleetReport& report) {
  obs::Snapshot merged = obs::snapshot();
  for (const fleet::WorkerStatus& w : report.workers) {
    if (w.has_metrics) obs::merge(&merged, w.metrics);
  }
  write_metrics_out(flag, ctx, merged);
}

fleet::EventFn make_event_logger(bool quiet) {
  if (quiet) return {};
  return [](const fleet::FleetEvent& e) {
    using Kind = fleet::FleetEvent::Kind;
    switch (e.kind) {
      case Kind::kWorkerUp:
        std::printf("fleet      worker #%zu up: %s\n", e.worker,
                    e.worker_name.c_str());
        break;
      case Kind::kWorkerDead:
        if (e.shard_id != 0) {
          std::printf(
              "fleet      worker #%zu (%s) DEAD (%s) -- "
              "redispatching shard #%llu\n",
              e.worker, e.worker_name.c_str(), e.detail.c_str(),
              static_cast<unsigned long long>(e.shard_id));
        } else {
          std::printf("fleet      worker #%zu (%s) DEAD (%s), no shard in "
                      "flight\n",
                      e.worker, e.worker_name.c_str(), e.detail.c_str());
        }
        break;
      case Kind::kAssign:
        std::printf("fleet      shard #%llu -> worker #%zu (%s)\n",
                    static_cast<unsigned long long>(e.shard_id), e.worker,
                    e.worker_name.c_str());
        break;
      case Kind::kShardDone:
        std::printf("fleet      shard #%llu done (worker #%zu, %s)\n",
                    static_cast<unsigned long long>(e.shard_id), e.worker,
                    e.worker_name.c_str());
        break;
      case Kind::kRequeue:
        std::printf("fleet      shard #%llu requeued (from worker #%zu, "
                    "%s)\n",
                    static_cast<unsigned long long>(e.shard_id), e.worker,
                    e.worker_name.c_str());
        break;
      case Kind::kAck:
      case Kind::kProgress:
        break;  // per-frame noise
    }
    std::fflush(stdout);
  };
}

void print_registry(const fleet::FleetReport& report) {
  std::printf("\nworker registry:\n");
  std::printf("  %-4s %-20s %-24s %-9s %-6s %-7s %-9s %-10s %s\n", "#",
              "endpoint", "name", "capacity", "state", "shards", "inflight",
              "samples", "cache h/m");
  for (const fleet::WorkerStatus& w : report.workers) {
    // Telemetry cells come from the worker's last heartbeat snapshot; a
    // worker that never sent one (v2 bare heartbeats, or died before the
    // first interval) shows "-".
    std::string samples = "-", cache = "-";
    if (w.has_metrics) {
      samples = std::to_string(w.metrics.counter_value("campaign.samples"));
      cache = std::to_string(w.metrics.counter_value("cache.hit")) + "/" +
              std::to_string(w.metrics.counter_value("cache.miss"));
    }
    std::printf("  %-4zu %-20s %-24s %-9u %-6s %-7zu %-9u %-10s %s\n",
                w.index, w.endpoint.c_str(), w.name.c_str(), w.capacity,
                fleet::worker_state_name(w.state), w.shards_done, w.inflight,
                samples.c_str(), cache.c_str());
  }
  std::printf("  redispatched shards: %zu, workers lost: %zu\n",
              report.redispatched, report.workers_lost);
  std::fflush(stdout);
}

int fleet_run(int argc, const char* const* argv) {
  util::ArgParser args(
      "clear fleet run --spec <file> [options] <worker>...",
      "Shards a multi-campaign manifest (the 'clear run --spec' grammar)\n"
      "across 'clear serve' workers -- every campaign stanza gains\n"
      "--shard k/K -- and live-merges the returned .csr payloads into\n"
      "out-dir/campaign<i>.csr, rewritten atomically as shards arrive.\n"
      "The merged files are bit-identical to an unsharded local run,\n"
      "whichever workers executed (or re-executed) each shard.");
  args.add_option("spec", "file", "manifest to shard (required)");
  args.add_option("out-dir", "dir", "write merged campaign<i>.csr here",
                  ".");
  add_driver_flags(&args);
  args.allow_positionals("worker",
                         "endpoints: socket path | tcp:PORT (append @N for "
                         "--workers children)");

  int rc = 0;
  if (!parse_verb(args, argc, argv, "clear fleet run", &rc)) return rc;
  if (!args.has("spec")) {
    std::fprintf(stderr, "clear fleet run: --spec is required\n%s",
                 args.help().c_str());
    return 2;
  }
  fleet::FleetOptions opts;
  std::uint64_t shard_count = 0;
  if (!parse_driver_flags(args, "clear fleet run", &opts, &shard_count)) {
    return 2;
  }
  std::string error;
  std::vector<fleet::Endpoint> workers;
  if (!fleet::expand_endpoints(args.positionals(), &workers, &error)) {
    std::fprintf(stderr, "clear fleet run: %s\n", error.c_str());
    return 2;
  }
  if (shard_count == 0) shard_count = workers.size();

  std::string manifest;
  if (!util::read_file(args.get("spec"), &manifest)) {
    std::fprintf(stderr, "clear fleet run: cannot read spec file '%s'\n",
                 args.get("spec").c_str());
    return 1;
  }

  std::vector<fleet::ShardWork> shards;
  if (!fleet::build_campaign_shards(manifest,
                                    static_cast<std::uint32_t>(shard_count),
                                    &shards, &error)) {
    std::fprintf(stderr, "clear fleet run: %s\n", error.c_str());
    return 2;
  }
  const std::string out_dir = args.get("out-dir");
  if (!util::ensure_dir(out_dir)) {
    std::fprintf(stderr, "clear fleet run: cannot create out dir '%s'\n",
                 out_dir.c_str());
    return 1;
  }

  // Live re-merge: per campaign stanza, fold each arriving shard's .csr
  // into one running merge in place (inject::fold_shard; empty coverage =
  // nothing arrived yet, and the first arrival goes through a one-input
  // merge) and rewrite out_dir/campaign<i>.csr from it atomically --
  // watchable while the fleet runs, complete when it returns.  An arrival
  // costs one decode, one in-place counter fold and one encode: a few
  // passes over its bytes, no copy of the running merge.
  std::vector<inject::ShardFile> running;
  const bool quiet = args.has("quiet");
  const auto on_shard = [&](const fleet::ShardResult& res) {
    running.resize(std::max(running.size(), res.payloads.size()));
    for (std::size_t i = 0; i < res.payloads.size(); ++i) {
      inject::ShardFile shard;
      if (inject::decode_shard(res.payloads[i], &shard) !=
          inject::WireStatus::kOk) {
        throw std::runtime_error(
            "fleet: shard " + std::to_string(res.shard_id) + " campaign #" +
            std::to_string(i) + " failed .csr decode");
      }
      if (running[i].covered.empty()) {
        running[i] = inject::merge_shard_files({shard});
      } else {
        inject::fold_shard(&running[i], shard);
      }
      inject::write_shard_file(
          out_dir + "/campaign" + std::to_string(i) + ".csr", running[i]);
    }
  };

  try {
    const fleet::FleetReport report = fleet::run_fleet(
        workers, shards, opts, make_event_logger(quiet), on_shard);
    if (!quiet) print_registry(report);
    write_fleet_metrics(args.get("metrics-out"), "clear fleet run", report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "clear fleet run: %s\n", e.what());
    return 1;
  }
  if (!quiet) {
    std::printf("fleet      %zu campaign file(s) merged into %s\n",
                running.size(), out_dir.c_str());
  }
  return 0;
}

int fleet_explore(int argc, const char* const* argv) {
  util::ArgParser args(
      "clear fleet explore --ledger <file> [options] <worker>...",
      "Shards an exploration's combination space across 'clear serve'\n"
      "workers (combo i belongs to shard i % K) and live-merges the\n"
      "returned .cxl shard ledgers into --ledger, rewritten atomically\n"
      "as shards arrive -- 'clear explore watch' follows it live, and\n"
      "frontier/report read it any time.  Bit-identical to 'clear\n"
      "explore run' on one machine.");
  args.add_option("ledger", "file", "merged output ledger (required)");
  explore::add_spec_flags(&args);
  add_driver_flags(&args);
  args.allow_positionals("worker",
                         "endpoints: socket path | tcp:PORT (append @N for "
                         "--workers children)");

  int rc = 0;
  if (!parse_verb(args, argc, argv, "clear fleet explore", &rc)) return rc;
  if (!args.has("ledger")) {
    std::fprintf(stderr, "clear fleet explore: --ledger is required\n%s",
                 args.help().c_str());
    return 2;
  }
  fleet::FleetOptions opts;
  std::uint64_t shard_count = 0;
  if (!parse_driver_flags(args, "clear fleet explore", &opts, &shard_count)) {
    return 2;
  }
  std::string error;
  std::vector<fleet::Endpoint> workers;
  if (!fleet::expand_endpoints(args.positionals(), &workers, &error)) {
    std::fprintf(stderr, "clear fleet explore: %s\n", error.c_str());
    return 2;
  }
  if (shard_count == 0) shard_count = workers.size();

  // The grammar the workers parse their shard stanzas with.
  explore::ExploreSpec spec;
  if (!explore::read_spec_flags(args, &spec, &error)) {
    std::fprintf(stderr, "clear fleet explore: %s\n", error.c_str());
    return 2;
  }
  try {
    (void)explore::resolve_identity(spec);  // fail fast on bad names
  } catch (const std::exception& e) {
    std::fprintf(stderr, "clear fleet explore: %s\n", e.what());
    return 2;
  }
  const std::vector<fleet::ShardWork> shards = fleet::build_explore_shards(
      spec, static_cast<std::uint32_t>(shard_count));

  // Live re-merge into one running ledger, as fleet_run does.
  const std::string ledger_path = args.get("ledger");
  explore::Ledger running;
  const bool quiet = args.has("quiet");
  const auto on_shard = [&](const fleet::ShardResult& res) {
    if (res.payloads.size() != 1) {
      throw std::runtime_error("fleet: explore shard " +
                               std::to_string(res.shard_id) +
                               " returned no ledger payload");
    }
    explore::Ledger ledger;
    if (explore::decode_ledger(res.payloads[0], &ledger) !=
        explore::LedgerStatus::kOk) {
      throw std::runtime_error("fleet: explore shard " +
                               std::to_string(res.shard_id) +
                               " failed .cxl decode");
    }
    running = running.covered.empty()
                  ? explore::merge_ledger_files({ledger})
                  : explore::merge_ledger_files({running, ledger});
    explore::write_ledger_file(ledger_path, running);
  };

  try {
    const fleet::FleetReport report = fleet::run_fleet(
        workers, shards, opts, make_event_logger(quiet), on_shard);
    if (!quiet) print_registry(report);
    write_fleet_metrics(args.get("metrics-out"), "clear fleet explore",
                        report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "clear fleet explore: %s\n", e.what());
    return 1;
  }
  if (!quiet) {
    std::printf("fleet      merged ledger written to %s\n",
                ledger_path.c_str());
  }
  return 0;
}

constexpr const char* kFleetHelp =
    "usage: clear fleet <command> [options] <worker>...\n"
    "\n"
    "Multi-worker orchestration over 'clear serve' daemons: a worker\n"
    "registry fed by hello/heartbeat frames, pull shard dispatch,\n"
    "dead-worker redispatch, and live re-merge of arriving results\n"
    "(docs/ARCHITECTURE.md shows the data flow).\n"
    "\n"
    "commands:\n"
    "  run       shard a campaign manifest, live-merge .csr results\n"
    "  explore   shard a combination-space exploration, live-merge the\n"
    "            .cxl ledger ('clear explore watch' follows it)\n"
    "\n"
    "worker endpoints are positional: a UNIX socket path, tcp:PORT, or\n"
    "either with @N appended for the children of 'clear serve --workers\n"
    "N'.  run 'clear fleet <command> --help' for per-command flags.\n";

}  // namespace

int cmd_fleet(int argc, const char* const* argv) {
  if (argc < 1) {
    std::fputs(kFleetHelp, stderr);
    return 2;
  }
  const std::string sub = argv[0];
  if (sub == "run") return fleet_run(argc - 1, argv + 1);
  if (sub == "explore") return fleet_explore(argc - 1, argv + 1);
  if (sub == "--help" || sub == "-h" || sub == "help") {
    std::fputs(kFleetHelp, stdout);
    return 0;
  }
  std::fprintf(stderr, "clear fleet: unknown command '%s'\n\n", sub.c_str());
  std::fputs(kFleetHelp, stderr);
  return 2;
}

}  // namespace clear::cli
