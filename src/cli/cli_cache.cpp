// `clear cache`: operator maintenance for the campaign cache pack
// (inject/cachepack.h; byte-level format in docs/FORMATS.md).
#include <cstdio>
#include <iostream>

#include "cli/cli.h"
#include "inject/cachepack.h"
#include "inject/campaign.h"
#include "util/args.h"
#include "util/env.h"
#include "util/table.h"

namespace clear::cli {

namespace {

void print_stats(inject::CachePack& pack) {
  const inject::CachePackStats st = pack.stats();
  util::TextTable table({"dir", "records", "pack bytes", "quarantined",
                         "evictions"});
  table.add_row({pack.dir(), std::to_string(st.records),
                 std::to_string(st.pack_bytes), std::to_string(st.quarantined),
                 std::to_string(st.evictions)});
  table.print(std::cout);
}

}  // namespace

int cmd_cache(int argc, const char* const* argv) {
  util::ArgParser args(
      "clear cache <stats|compact|evict> [options]",
      "Campaign cache pack maintenance.\n"
      "  stats    open the pack (recovering as usual), print\n"
      "           record/byte/quarantine counters\n"
      "  compact  rewrite the pack, reclaiming superseded and quarantined\n"
      "           bytes; with --max-bytes also evict LRU records\n"
      "  evict    compact down to --max-bytes (required)");
  args.add_option("dir", "path",
                  "cache directory (default: CLEAR_CACHE_DIR or "
                  ".clear_cache)");
  args.add_option("max-bytes", "N[K|M|G]",
                  "byte budget for compact/evict (same grammar as "
                  "CLEAR_CACHE_MAX_BYTES)");
  args.allow_positionals("action", "stats, compact or evict");

  int rc = 0;
  if (!parse_verb(args, argc, argv, "clear cache", &rc)) return rc;
  if (args.positionals().size() != 1) {
    std::fprintf(stderr, "clear cache: exactly one action expected\n%s",
                 args.help().c_str());
    return 2;
  }
  const std::string action = args.positionals().front();
  const std::string dir =
      args.has("dir") ? args.get("dir") : inject::campaign_cache_dir();
  if (dir.empty()) {
    std::fprintf(stderr,
                 "clear cache: no cache directory (CLEAR_CACHE_DIR is "
                 "empty; pass --dir)\n");
    return 2;
  }
  std::uint64_t max_bytes = 0;
  if (args.has("max-bytes") &&
      !util::parse_bytes(args.get("max-bytes"), &max_bytes)) {
    std::fprintf(stderr, "clear cache: bad --max-bytes '%s'\n",
                 args.get("max-bytes").c_str());
    return 2;
  }

  inject::CachePack& pack = inject::CachePack::instance(dir);
  if (action == "stats") {
    print_stats(pack);
    return 0;
  }
  if (action == "compact" || action == "evict") {
    if (action == "evict" && max_bytes == 0) {
      std::fprintf(stderr, "clear cache evict: --max-bytes is required\n");
      return 2;
    }
    const inject::CachePackStats before = pack.stats();
    const inject::CachePackStats after = pack.compact(max_bytes);
    std::printf("%s: %zu -> %zu records, %llu -> %llu bytes\n",
                action.c_str(), before.records, after.records,
                static_cast<unsigned long long>(before.pack_bytes),
                static_cast<unsigned long long>(after.pack_bytes));
    return 0;
  }
  std::fprintf(stderr, "clear cache: unknown action '%s'\n%s", action.c_str(),
               args.help().c_str());
  return 2;
}

}  // namespace clear::cli
