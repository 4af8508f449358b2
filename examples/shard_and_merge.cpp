// Multi-process sharded campaign workflow: split one injection campaign
// across K `clear run` processes and fold their .csr result files back
// into the unsharded answer with `clear merge`.
//
//   $ ./example_shard_and_merge [shards] [path-to-clear]
//
// The paper ran ~9M-injection campaigns on a BEE3 FPGA cluster plus the
// Stampede supercomputer; the software engine reaches the same scale by
// partitioning the sample-index space.  Every injection derives its RNG
// from its global sample index alone, so ANY partition is bit-identical
// to the whole campaign.  On a real cluster each `clear run` below is a
// job on a different machine and the .csr files travel home over
// scp/object storage; the merge is the same either way:
//
//   machine k:  clear run --bench mcf --injections N --shard k/K \
//                         --out shard_k.csr
//   frontend:   clear merge --out merged.csr shard_*.csr
//
// This example spawns the shard runs as real child processes (the same
// binary the cluster jobs would use, found next to this executable or
// given as argv[2]), merges their files, and verifies the merge is
// bit-identical to an in-process unsharded run of the same campaign.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "inject/campaign.h"
#include "inject/wire.h"
#include "isa/assembler.h"
#include "workloads/workloads.h"

namespace {

// The `clear` binary ships next to the examples in the build tree.
std::string default_clear_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "./clear";
  buf[n] = '\0';
  std::string self(buf);
  const auto slash = self.rfind('/');
  return (slash == std::string::npos ? std::string(".")
                                     : self.substr(0, slash)) +
         "/clear";
}

int run_cmd(const std::string& cmd) {
  std::printf("$ %s\n", cmd.c_str());
  const int rc = std::system(cmd.c_str());
  return rc == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace clear;
  const std::uint32_t shards =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 3;
  const std::string clear_bin = argc > 2 ? argv[2] : default_clear_path();
  const std::size_t injections = 1200;
  const std::uint64_t seed = 7;

  std::printf(
      "unsharded reference campaign (%zu injections, InO/mcf, in-process)"
      "...\n",
      injections);
  const auto prog = isa::assemble(workloads::build_benchmark("mcf"));
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = injections;
  spec.seed = seed;
  const auto whole = engine::run_campaign(spec);

  std::printf("\nrunning the same campaign as %u `clear run` processes...\n",
              shards);
  std::vector<std::string> files;
  for (std::uint32_t s = 0; s < shards; ++s) {
    const std::string out = "shard_" + std::to_string(s) + ".csr";
    files.push_back(out);
    const std::string cmd =
        clear_bin + " run --bench mcf --injections " +
        std::to_string(injections) + " --seed " + std::to_string(seed) +
        " --shard " + std::to_string(s) + "/" + std::to_string(shards) +
        " --no-cache --out " + out + " > /dev/null";
    if (run_cmd(cmd) != 0) {
      std::fprintf(stderr, "shard %u failed (is %s built?)\n", s,
                   clear_bin.c_str());
      return 1;
    }
  }

  std::string merge_cmd = clear_bin + " merge --out merged.csr";
  for (const auto& f : files) merge_cmd += " " + f;
  if (run_cmd(merge_cmd) != 0) return 1;

  inject::ShardFile merged;
  const auto st = inject::load_shard_file("merged.csr", &merged);
  if (st != inject::WireStatus::kOk) {
    std::fprintf(stderr, "merged.csr: %s\n", inject::wire_status_name(st));
    return 1;
  }

  std::printf("\n%-22s %12s %12s\n", "", "unsharded", "merged");
  std::printf("%-22s %12llu %12llu\n", "injections",
              static_cast<unsigned long long>(whole.totals.total()),
              static_cast<unsigned long long>(merged.result.totals.total()));
  std::printf("%-22s %12llu %12llu\n", "vanished",
              static_cast<unsigned long long>(whole.totals.vanished),
              static_cast<unsigned long long>(merged.result.totals.vanished));
  std::printf("%-22s %12llu %12llu\n", "SDC (OMM)",
              static_cast<unsigned long long>(whole.totals.sdc()),
              static_cast<unsigned long long>(merged.result.totals.sdc()));
  std::printf("%-22s %12llu %12llu\n", "DUE (UT+Hang+ED)",
              static_cast<unsigned long long>(whole.totals.due()),
              static_cast<unsigned long long>(merged.result.totals.due()));
  std::printf("%-22s %12.5f %12.5f\n", "SDC margin of error",
              whole.sdc_margin_of_error(),
              merged.result.sdc_margin_of_error());

  bool identical =
      merged.complete() &&
      whole.totals.total() == merged.result.totals.total() &&
      whole.totals.vanished == merged.result.totals.vanished &&
      whole.totals.sdc() == merged.result.totals.sdc() &&
      whole.totals.due() == merged.result.totals.due();
  for (std::uint32_t f = 0; identical && f < whole.ff_count; ++f) {
    identical = whole.per_ff[f].omm == merged.result.per_ff[f].omm &&
                whole.per_ff[f].vanished == merged.result.per_ff[f].vanished;
  }
  std::printf("\nper-FF and total counts %s\n",
              identical
                  ? "BIT-IDENTICAL: shards can run on any machine"
                  : "MISMATCH (bug!)");
  return identical ? 0 : 1;
}
