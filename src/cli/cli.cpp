#include "cli/cli.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.h"

namespace clear::cli {

namespace {

constexpr const char* kTopHelp =
    "usage: clear <command> [options]\n"
    "\n"
    "Distributed soft-error injection campaigns for the CLEAR simulator.\n"
    "Run shards anywhere, merge the results bit-exactly (docs/FORMATS.md\n"
    "specifies the .csr wire format; docs/CONFIG.md every knob).\n"
    "\n"
    "commands:\n"
    "  run      simulate one shard of a campaign, write a .csr result file\n"
    "           (--spec also takes multi-campaign manifests)\n"
    "  merge    fold .csr shard files into one .csr (refuses mismatches)\n"
    "  report   render .csr files as human/CSV/JSON tables\n"
    "  cache    campaign cache pack maintenance (stats/compact/evict)\n"
    "  explore  distributed design-space exploration over the 586\n"
    "           combinations (run/merge/frontier/report on .cxl ledgers)\n"
    "  serve    shard-worker daemon: manifests in over a local socket,\n"
    "           heartbeats and .csr payloads streamed back\n"
    "  fleet    orchestrate many serve workers: pull shard dispatch,\n"
    "           dead-worker redispatch, live result merge\n"
    "  status   live fleet/worker/cache telemetry tables from serve\n"
    "           workers' heartbeats or a fleet --status-out file\n"
    "  version  binary + wire/ledger/pack format versions (--json)\n"
    "\n"
    "run 'clear <command> --help' for per-command flags.\n";

}  // namespace

bool parse_verb(util::ArgParser& args, int argc, const char* const* argv,
                const char* verb, int* exit_code, const char* required) {
  std::string error;
  if (!args.parse(argc, argv, &error)) {
    std::fprintf(stderr, "%s: %s\n%s", verb, error.c_str(),
                 args.help().c_str());
    *exit_code = 2;
    return false;
  }
  if (args.help_requested()) {
    std::fputs(args.help().c_str(), stdout);
    *exit_code = 0;
    return false;
  }
  if (required != nullptr && !args.has(required)) {
    std::fprintf(stderr, "%s: --%s is required\n%s", verb, required,
                 args.help().c_str());
    *exit_code = 2;
    return false;
  }
  return true;
}

void write_metrics_out(const std::string& path, const char* ctx,
                       const obs::Snapshot& snap) {
  if (path.empty()) return;
  if (!obs::write_json_file(snap, path)) {
    std::fprintf(stderr, "%s: warning: cannot write metrics to %s\n", ctx,
                 path.c_str());
  }
}

int run(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(kTopHelp, stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  const int sub_argc = argc - 2;
  const char* const* sub_argv = argv + 2;
  try {
    if (cmd == "run") return cmd_run(sub_argc, sub_argv);
    if (cmd == "merge") return cmd_merge(sub_argc, sub_argv);
    if (cmd == "report") return cmd_report(sub_argc, sub_argv);
    if (cmd == "cache") return cmd_cache(sub_argc, sub_argv);
    if (cmd == "explore") return cmd_explore(sub_argc, sub_argv);
    if (cmd == "serve") return cmd_serve(sub_argc, sub_argv);
    if (cmd == "fleet") return cmd_fleet(sub_argc, sub_argv);
    if (cmd == "status") return cmd_status(sub_argc, sub_argv);
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
      std::fputs(kTopHelp, stdout);
      return 0;
    }
    if (cmd == "--version" || cmd == "version") {
      return cmd_version(sub_argc, sub_argv);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "clear %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "clear: unknown command '%s'\n\n", cmd.c_str());
  std::fputs(kTopHelp, stderr);
  return 2;
}

}  // namespace clear::cli
