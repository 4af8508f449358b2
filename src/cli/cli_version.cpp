// `clear version`: binary version plus every wire/ledger/cache format
// version this build understands, so multi-machine operators can diagnose
// format skew before a merge (or a serve handshake) fails.
#include <cstdio>

#include "cli/cli.h"
#include "engine/protocol.h"
#include "explore/ledger.h"
#include "inject/cachepack.h"
#include "inject/wire.h"
#include "util/args.h"

namespace clear::cli {

namespace {

// Version of the static-analysis checker set (tools/lint/clear_lint.py)
// that vets this tree.  The lint selftest asserts the two stay in sync,
// so CI artifacts record which invariant set approved the build.
constexpr unsigned kLintCheckerSetVersion = 3;

}  // namespace

int cmd_version(int argc, const char* const* argv) {
  util::ArgParser args(
      "clear version [--json]",
      "Prints the binary version and the supported format versions:\n"
      "  CSR1  .csr campaign shard results (clear run/merge/report)\n"
      "  CPK1  campaign cache pack records (clear cache)\n"
      "  CXL1  .cxl exploration ledgers (clear explore)\n"
      "  CSV1  the clear serve socket protocol (clear serve/fleet)\n"
      "Two binaries interoperate on a format iff they report the same\n"
      "version for it; mismatched .csr/.cxl files are refused as\n"
      "version-unsupported rather than misparsed.");
  args.add_flag("json", "machine-readable output");

  int rc = 0;
  if (!parse_verb(args, argc, argv, "clear version", &rc)) return rc;

  if (args.has("json")) {
    std::printf("{\"version\": \"%s\", \"formats\": {"
                "\"csr\": %u, \"cpk\": %u, \"cxl\": %u, \"serve\": %u}, "
                "\"lint_checker_set\": %u}\n",
                kClearVersion, inject::kWireVersion, inject::kCachePackVersion,
                explore::kLedgerVersion, serve::kProtoVersion,
                kLintCheckerSetVersion);
    return 0;
  }
  std::printf("clear %s\n", kClearVersion);
  std::printf("formats:\n");
  std::printf("  CSR1 shard results     v%u\n", inject::kWireVersion);
  std::printf("  CPK1 cache pack        v%u\n", inject::kCachePackVersion);
  std::printf("  CXL1 exploration ledger v%u\n", explore::kLedgerVersion);
  std::printf("  CSV1 serve protocol    v%u\n", serve::kProtoVersion);
  std::printf("lint checker set       v%u\n", kLintCheckerSetVersion);
  return 0;
}

}  // namespace clear::cli
