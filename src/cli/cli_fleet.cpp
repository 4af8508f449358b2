// `clear fleet`: the driver of `clear serve` workers.
//
//   clear fleet run      shard a campaign manifest across workers, fold
//                        the .csr results into out-dir/campaign<i>.csr.
//   clear fleet explore  shard an exploration's combination space, fold
//                        the .cxl shard ledgers into one watchable ledger.
//
// How an arriving result joins a merge is inject::fold_shard (.csr) and
// explore::fold_ledger (.cxl); this file only parses flags and writes
// the merges out: CampaignSink for `clear fleet run`, the ledger sink for
// `clear fleet explore`.  Worker endpoints are positional operands
// (fleet::expand_endpoints); scheduling lives in fleet/fleet.h.
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "explore/explore.h"
#include "explore/ledger.h"
#include "fleet/fleet.h"
#include "inject/wire.h"
#include "obs/metrics.h"
#include "plan/runplan.h"
#include "util/args.h"
#include "util/fs.h"

namespace clear::cli {

namespace {

// How to reach a worker and whether to stop it afterwards (parsed into
// FleetOptions), and --quiet.
void add_connection_flags(util::ArgParser* args) {
  args->add_option("connect-retry-ms", "N",
                   "retry a refused connection this long (daemon startup)",
                   "5000");
  args->add_option("hello-timeout-ms", "N",
                   "give up on a silent worker's hello after N ms", "10000");
  args->add_flag("shutdown", "ask the workers to exit when the run ends");
  args->add_flag("quiet", "suppress progress and log lines");
}

// False on a bad numeric value; the caller names its verb.
bool parse_connection_flags(const util::ArgParser& args,
                            fleet::FleetOptions* opts) {
  if (!args.get_ms("connect-retry-ms", 5000, &opts->connect_retry_ms) ||
      !args.get_ms("hello-timeout-ms", 10000, &opts->hello_timeout_ms) ||
      opts->hello_timeout_ms == 0) {
    return false;
  }
  opts->shutdown_workers = args.has("shutdown");
  return true;
}

// The campaign sink of `clear fleet run`: one running merge per manifest
// stanza.  Each arriving .csr is decoded, folded into its stanza's merge
// in place (inject::fold_shard) and out_dir/campaign<i>.csr is rewritten
// from it atomically -- watchable while the fleet runs, complete when it
// returns.  An arrival costs one
// decode, one in-place counter fold and one encode per stanza.
class CampaignSink {
 public:
  CampaignSink(std::string out_dir, const std::string& manifest)
      : out_dir_(std::move(out_dir)) {
    std::vector<std::vector<std::string>> stanzas;
    plan::split_spec_stanzas(manifest, &stanzas);
    running_.resize(stanzas.size());
  }

  void operator()(const fleet::ShardResult& res) {
    const std::string shard = "shard " + std::to_string(res.shard_id);
    if (res.payloads.size() > running_.size()) {
      throw std::runtime_error(
          shard + " returned " + std::to_string(res.payloads.size()) +
          " results for " + std::to_string(running_.size()) + " stanzas");
    }
    if (!util::ensure_dir(out_dir_)) {
      throw std::runtime_error("cannot create out dir '" + out_dir_ + "'");
    }
    for (std::size_t i = 0; i < res.payloads.size(); ++i) {
      inject::ShardFile arrived;
      if (inject::decode_shard(res.payloads[i], &arrived) !=
          inject::WireStatus::kOk) {
        throw std::runtime_error(shard + " campaign #" + std::to_string(i) +
                                 " failed .csr decode");
      }
      inject::fold_shard(&running_[i], arrived);
      inject::write_shard_file(path(i), running_[i]);
    }
  }

  // "" when every stanza's merge is complete, else names the first one
  // that is not.
  [[nodiscard]] std::string first_incomplete() const {
    for (std::size_t i = 0; i < running_.size(); ++i) {
      if (!running_[i].complete()) return path(i) + " is absent or partial";
    }
    return "";
  }
  [[nodiscard]] std::size_t stanzas() const { return running_.size(); }

 private:
  [[nodiscard]] std::string path(std::size_t i) const {
    return out_dir_ + "/campaign" + std::to_string(i) + ".csr";
  }

  std::string out_dir_;
  std::vector<inject::ShardFile> running_;
};

// Logs the fleet's scheduling to stdout.  A worker's death and its
// reason go to stderr whatever `quiet` says: they explain a failed run.
fleet::EventFn make_event_logger(bool quiet) {
  return [quiet](const fleet::FleetEvent& e) {
    using Kind = fleet::FleetEvent::Kind;
    if (e.kind == Kind::kWorkerDead) {
      if (e.shard_id != 0) {
        std::fprintf(stderr,
                     "fleet      worker #%zu (%s) DEAD (%s) -- "
                     "redispatching shard #%llu\n",
                     e.worker, e.worker_name.c_str(), e.detail.c_str(),
                     static_cast<unsigned long long>(e.shard_id));
      } else {
        std::fprintf(stderr,
                     "fleet      worker #%zu (%s) DEAD (%s), no shard in "
                     "flight\n",
                     e.worker, e.worker_name.c_str(), e.detail.c_str());
      }
      return;
    }
    if (quiet) return;
    switch (e.kind) {
      case Kind::kWorkerUp:
        std::printf("fleet      worker #%zu up: %s\n", e.worker,
                    e.worker_name.c_str());
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
      case Kind::kWorkerDead:  // logged above
      case Kind::kAck:
        break;  // per-frame noise
    }
    std::fflush(stdout);
  };
}

// The end-of-run registry: the `clear status` tables of the fleet's final
// state (every shard completed), then the workers it lost on the way.
void print_registry(const fleet::FleetReport& report, std::size_t shards) {
  fleet::FleetStatus status;
  status.shards = fleet::ShardTally{shards, shards, 0, report.redispatched};
  for (const fleet::WorkerStatus& w : report.workers) {
    status.workers.push_back(fleet::status_row(w));
  }
  std::printf("\nworker registry:\n%s\nworkers lost: %zu\n",
              render_status(status, /*show_shards_done=*/true).c_str(),
              report.workers_lost);
  std::fflush(stdout);
}

// What a fleet verb has parsed when it builds its shards.
struct FleetArgs {
  fleet::FleetOptions opts;
  std::vector<fleet::Endpoint> workers;
  std::uint32_t shard_count = 0;  // --shards, else one per worker
  bool quiet = false;
};

// Keeps --shutdown's promise when a fleet verb exits -- by a return or a
// throw -- before fleet::run_fleet runs, as when the driver refuses the
// manifest itself: the named workers are told to exit with an empty run.
// Disarmed once the run starts, since run_fleet shuts them down itself.
class ShutdownUnlessRun {
 public:
  explicit ShutdownUnlessRun(const FleetArgs& fa) : fa_(fa) {}
  ShutdownUnlessRun(const ShutdownUnlessRun&) = delete;
  ShutdownUnlessRun& operator=(const ShutdownUnlessRun&) = delete;
  ~ShutdownUnlessRun() {
    if (!armed_ || !fa_.opts.shutdown_workers) return;
    fleet::FleetOptions opts = fa_.opts;
    opts.status_out.clear();  // the refused run has no status to show
    try {
      (void)fleet::run_fleet(fa_.workers, {}, opts);
    } catch (...) {
      // Best effort: the refusal is what the caller reports.
    }
  }
  void disarm() { armed_ = false; }

 private:
  const FleetArgs& fa_;
  bool armed_ = true;
};

void add_fleet_flags(util::ArgParser* args) {
  args->add_option("shards", "K", "shard count (default: worker count)", "0");
  add_connection_flags(args);
  args->add_option("dead-after-ms", "N",
                   "declare a worker dead after N ms without a frame",
                   "5000");
  args->add_option("status-out", "FILE",
                   "maintain a live clear-fleet-status-v1 JSON file (read "
                   "by 'clear status --file' / 'clear explore watch "
                   "--status')");
  args->add_option("metrics-out", "FILE",
                   "write the final metric snapshot (driver + workers "
                   "merged, clear-metrics-v1 JSON; '-' = stdout)");
  args->allow_positionals("worker",
                          "endpoints: socket path | tcp:PORT (append @N for "
                          "--workers children)");
}

// The parse preamble of both fleet verbs: argv, the verb's required
// option, the driver flags and the worker endpoints.  Returns false with
// the exit code in *exit_code when the verb stops here.
bool parse_fleet_verb(util::ArgParser& args, int argc,
                      const char* const* argv, const char* verb,
                      const char* required, FleetArgs* out, int* exit_code) {
  if (!parse_verb(args, argc, argv, verb, exit_code, required)) return false;
  *exit_code = 2;
  std::uint64_t shards = 0;
  if (!args.get_u64("shards", 0, &shards) || shards > 65536 ||
      !args.get_ms("dead-after-ms", 5000, &out->opts.dead_after_ms) ||
      out->opts.dead_after_ms == 0 ||
      !parse_connection_flags(args, &out->opts)) {
    std::fprintf(stderr, "%s: bad numeric flag value\n", verb);
    return false;
  }
  out->opts.status_out = args.get("status-out");
  out->quiet = args.has("quiet");
  std::string error;
  if (!fleet::expand_endpoints(args.positionals(), &out->workers, &error)) {
    std::fprintf(stderr, "%s: %s\n", verb, error.c_str());
    return false;
  }
  out->shard_count = static_cast<std::uint32_t>(
      shards != 0 ? shards : out->workers.size());
  return true;
}

// The run both fleet verbs end in: the shards through the workers into
// `sink`, then the worker registry and the --metrics-out snapshot (the
// driver's own merged with every worker's last heartbeat snapshot).
// Returns the exit code.
int drive_fleet(const util::ArgParser& args, const char* verb,
                const FleetArgs& fa,
                const std::vector<fleet::ShardWork>& shards,
                const fleet::ShardDoneFn& sink) {
  try {
    const fleet::FleetReport report = fleet::run_fleet(
        fa.workers, shards, fa.opts, make_event_logger(fa.quiet), sink);
    if (!fa.quiet) print_registry(report, shards.size());
    obs::Snapshot merged = obs::snapshot();
    for (const fleet::WorkerStatus& w : report.workers) {
      if (w.has_metrics) obs::merge(&merged, w.metrics);
    }
    write_metrics_out(args.get("metrics-out"), verb, merged);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", verb, e.what());
    return 1;
  }
  return 0;
}

int fleet_run(int argc, const char* const* argv) {
  constexpr const char* kVerb = "clear fleet run";
  util::ArgParser args(
      "clear fleet run --spec <file> [options] <worker>...",
      "Shards a multi-campaign manifest (the 'clear run --spec' grammar)\n"
      "across 'clear serve' workers -- every campaign stanza gains\n"
      "--shard k/K -- and live-merges the returned .csr payloads into\n"
      "out-dir/campaign<i>.csr, rewritten atomically as shards arrive.\n"
      "The merged files are bit-identical to 'clear merge' of the same K\n"
      "shards run locally (to 'clear run' itself when K is 1), whichever\n"
      "workers executed (or re-executed) each shard.");
  args.add_option("spec", "file", "manifest to shard (required)");
  args.add_option("out-dir", "dir", "write merged campaign<i>.csr here",
                  ".");
  add_fleet_flags(&args);
  FleetArgs fa;
  int rc = 0;
  if (!parse_fleet_verb(args, argc, argv, kVerb, "spec", &fa, &rc)) {
    return rc;
  }
  ShutdownUnlessRun guard(fa);
  std::string manifest;
  if (!util::read_file(args.get("spec"), &manifest)) {
    std::fprintf(stderr, "%s: cannot read spec file '%s'\n", kVerb,
                 args.get("spec").c_str());
    return 1;
  }
  std::vector<fleet::ShardWork> shards;
  std::string error;
  if (!fleet::build_campaign_shards(manifest, fa.shard_count, &shards,
                                    &error)) {
    std::fprintf(stderr, "%s: %s\n", kVerb, error.c_str());
    return 2;
  }
  const std::string out_dir = args.get("out-dir");
  if (!util::ensure_dir(out_dir)) {
    std::fprintf(stderr, "%s: cannot create out dir '%s'\n", kVerb,
                 out_dir.c_str());
    return 1;
  }
  CampaignSink sink(out_dir, manifest);
  guard.disarm();
  if ((rc = drive_fleet(args, kVerb, fa, shards, std::ref(sink))) != 0) {
    return rc;
  }
  // Every shard said done, but a worker may have returned fewer results
  // than the manifest has stanzas: a missing or partial merge fails.
  const std::string incomplete = sink.first_incomplete();
  if (!incomplete.empty()) {
    std::fprintf(stderr, "%s: %s\n", kVerb, incomplete.c_str());
    return 1;
  }
  if (!fa.quiet) {
    std::printf("fleet      %zu campaign file(s) merged into %s\n",
                sink.stanzas(), out_dir.c_str());
  }
  return 0;
}

int fleet_explore(int argc, const char* const* argv) {
  constexpr const char* kVerb = "clear fleet explore";
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
  add_fleet_flags(&args);
  FleetArgs fa;
  int rc = 0;
  if (!parse_fleet_verb(args, argc, argv, kVerb, "ledger", &fa, &rc)) {
    return rc;
  }
  ShutdownUnlessRun guard(fa);
  // The grammar the workers parse their shard stanzas with.
  explore::ExploreSpec spec;
  std::string error;
  if (!explore::read_spec_flags(args, &spec, &error)) {
    std::fprintf(stderr, "%s: %s\n", kVerb, error.c_str());
    return 2;
  }
  try {
    (void)explore::resolve_identity(spec);  // fail fast on bad names
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", kVerb, e.what());
    return 2;
  }
  const std::vector<fleet::ShardWork> shards =
      fleet::build_explore_shards(spec, fa.shard_count);

  // The one ledger sink: each arriving .cxl is folded into the running
  // ledger in place (explore::fold_ledger) and --ledger is rewritten from
  // it atomically.
  const std::string ledger_path = args.get("ledger");
  explore::Ledger running;
  const auto sink = [&](const fleet::ShardResult& res) {
    explore::Ledger arrived;
    if (res.payloads.size() != 1 ||
        explore::decode_ledger(res.payloads[0], &arrived) !=
            explore::LedgerStatus::kOk) {
      throw std::runtime_error("explore shard " +
                               std::to_string(res.shard_id) +
                               " returned no decodable .cxl ledger");
    }
    explore::fold_ledger(&running, arrived);
    explore::write_ledger_file(ledger_path, running);
  };
  guard.disarm();
  if ((rc = drive_fleet(args, kVerb, fa, shards, sink)) != 0) return rc;
  if (!fa.quiet) {
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
