// End-to-end tests of the `clear` CLI binary (CLEAR_CLI_BIN, injected by
// CMake): real child processes running `clear run` for each shard, a real
// `clear merge` over the .csr files they wrote, and the acceptance
// assertion of the workflow -- the merged result is bit-identical to the
// single-process unsharded campaign.  Flag parsing units live here too.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <iterator>

#include "arch/core.h"
#include "cli/cli.h"
#include "core/variants.h"
#include "engine/engine.h"
#include "explore/ledger.h"
#include "inject/campaign.h"
#include "inject/wire.h"
#include "isa/assembler.h"
#include "plan/runplan.h"
#include "util/args.h"
#include "util/env.h"
#include "util/json.h"
#include "workloads/workloads.h"

namespace {

using namespace clear;

class CliEnv : public ::testing::Environment {
 public:
  void SetUp() override {
    // Isolate from other test binaries (ctest runs them in parallel); the
    // spawned `clear` children inherit this.
    ::setenv("CLEAR_CACHE_DIR", ".clear_cache_test_cli", 1);
    std::filesystem::remove_all(".clear_cache_test_cli");
    std::filesystem::remove_all("cli_e2e");
    std::filesystem::create_directories("cli_e2e");
  }
};
const ::testing::Environment* const kEnv =
    ::testing::AddGlobalTestEnvironment(new CliEnv);

// Runs a shell command, returns its exit status (-1 if it died on a
// signal).  Child stdout is routed to /dev/null to keep ctest logs tidy;
// stderr stays visible for debugging.
int sh(const std::string& cmd) {
  const int rc = std::system((cmd + " > /dev/null").c_str());
  if (rc == -1) return -1;
  if (WIFEXITED(rc)) return WEXITSTATUS(rc);
  return -1;
}

const std::string kBin = CLEAR_CLI_BIN;

// ---- flag-parsing units ----------------------------------------------------

TEST(CliParse, ShardSyntax) {
  std::uint32_t k = 0, n = 0;
  EXPECT_TRUE(plan::parse_shard("2/8", &k, &n));
  EXPECT_EQ(k, 2u);
  EXPECT_EQ(n, 8u);
  EXPECT_TRUE(plan::parse_shard("0/1", &k, &n));
  EXPECT_FALSE(plan::parse_shard("8/8", &k, &n));  // index out of range
  EXPECT_FALSE(plan::parse_shard("1/0", &k, &n));
  EXPECT_FALSE(plan::parse_shard("1", &k, &n));
  EXPECT_FALSE(plan::parse_shard("1/2/3", &k, &n));
  EXPECT_FALSE(plan::parse_shard("a/b", &k, &n));
  // Digits only on both sides: no sign, no blank, no negated count.
  EXPECT_FALSE(plan::parse_shard("+0/2", &k, &n));
  EXPECT_FALSE(plan::parse_shard("0/ +2", &k, &n));
  EXPECT_FALSE(plan::parse_shard(" 0/2", &k, &n));
  EXPECT_FALSE(plan::parse_shard("0/-18446744073709551614", &k, &n));
}

TEST(CliParse, ByteSuffixes) {
  std::uint64_t b = 0;
  EXPECT_TRUE(util::parse_bytes("1024", &b));
  EXPECT_EQ(b, 1024u);
  EXPECT_TRUE(util::parse_bytes("4K", &b));
  EXPECT_EQ(b, 4096u);
  EXPECT_TRUE(util::parse_bytes("2m", &b));
  EXPECT_EQ(b, 2u << 20);
  EXPECT_TRUE(util::parse_bytes("1G", &b));
  EXPECT_EQ(b, 1u << 30);
  EXPECT_FALSE(util::parse_bytes("", &b));
  EXPECT_FALSE(util::parse_bytes("12Q", &b));
  EXPECT_FALSE(util::parse_bytes("K", &b));
  // Digits only: a sign or a blank is refused, so -1 cannot wrap to
  // 2^64 - 1, and neither may a value past 2^64 - 1 or a suffix multiply.
  EXPECT_FALSE(util::parse_bytes("-1", &b));
  EXPECT_FALSE(util::parse_bytes("+5", &b));
  EXPECT_FALSE(util::parse_bytes(" 5", &b));
  EXPECT_FALSE(util::parse_bytes("18446744073709551616", &b));
  EXPECT_FALSE(util::parse_bytes("17179869184G", &b));  // 2^64: wraps to 0
  EXPECT_TRUE(util::parse_bytes("17179869183G", &b));
  EXPECT_EQ(b, 18446744072635809792u);  // 2^64 - 2^30
}

TEST(CliParse, VariantTokensRoundTripThroughKey) {
  EXPECT_EQ(plan::parse_variant("base").key(), "base");
  EXPECT_EQ(plan::parse_variant("").key(), "base");
  EXPECT_EQ(plan::parse_variant("eddi_rb").key(), "eddi_rb");
  EXPECT_EQ(plan::parse_variant("eddi").key(), "eddi");
  EXPECT_EQ(plan::parse_variant("abftc+eddi_rb+cfcss").key(),
            "abftc+eddi_rb+cfcss");
  EXPECT_EQ(plan::parse_variant("assert+dfc+monitor").key(),
            "assert+dfc+monitor");
  EXPECT_THROW((void)plan::parse_variant("bogus"), std::invalid_argument);
  EXPECT_THROW((void)plan::parse_variant("eddi+bogus"), std::invalid_argument);
}

TEST(CliParse, ArgParserBasics) {
  util::ArgParser args("prog [options]", "test parser");
  args.add_flag("verbose", "chatty");
  args.add_option("out", "file", "output", "default.out");
  args.allow_positionals("inputs", "input files");
  const char* argv[] = {"--verbose", "--out=result.bin", "a.csr", "b.csr"};
  std::string error;
  ASSERT_TRUE(args.parse(4, argv, &error)) << error;
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get("out"), "result.bin");
  EXPECT_EQ(args.positionals(),
            (std::vector<std::string>{"a.csr", "b.csr"}));

  util::ArgParser defaults("prog", "d");
  defaults.add_option("out", "file", "output", "default.out");
  ASSERT_TRUE(defaults.parse(0, nullptr, &error));
  EXPECT_EQ(defaults.get("out"), "default.out");

  util::ArgParser nums("prog", "d");
  nums.add_option("n", "N", "count", "0");
  std::uint64_t n = 0;
  EXPECT_TRUE(nums.get_u64("n", 42, &n));  // absent -> default, ok
  EXPECT_EQ(n, 42u);
  const char* good[] = {"--n", "600"};
  ASSERT_TRUE(nums.parse(2, good, &error));
  EXPECT_TRUE(nums.get_u64("n", 42, &n));
  EXPECT_EQ(n, 600u);
  util::ArgParser bad_nums("prog", "d");
  bad_nums.add_option("n", "N", "count", "0");
  const char* bad[] = {"--n", "9,000,000"};
  ASSERT_TRUE(bad_nums.parse(2, bad, &error));
  EXPECT_FALSE(bad_nums.get_u64("n", 42, &n));  // malformed -> hard error
  EXPECT_EQ(n, 42u);                            // ...and *out is the default

  util::ArgParser strict("prog", "d");
  EXPECT_FALSE(strict.parse(1, argv, &error));  // unknown --verbose
  util::ArgParser missing("prog", "d");
  missing.add_option("out", "file", "output");
  const char* dangling[] = {"--out"};
  EXPECT_FALSE(missing.parse(1, dangling, &error));
}

// ---- process-level smoke ---------------------------------------------------

TEST(CliSmoke, HelpAndDryRunSucceed) {
  EXPECT_EQ(sh(kBin + " --help"), 0);
  EXPECT_EQ(sh(kBin + " version"), 0);
  EXPECT_EQ(sh(kBin + " run --help"), 0);
  EXPECT_EQ(sh(kBin + " merge --help"), 0);
  EXPECT_EQ(sh(kBin + " report --help"), 0);
  EXPECT_EQ(sh(kBin + " cache --help"), 0);
  EXPECT_EQ(sh(kBin + " run --bench mcf --dry-run"), 0);
  EXPECT_EQ(sh(kBin + " run --list-benches"), 0);
}

TEST(CliSmoke, UsageErrorsExitTwo) {
  EXPECT_EQ(sh(kBin + " 2>/dev/null"), 2);
  EXPECT_EQ(sh(kBin + " frobnicate 2>/dev/null"), 2);
  EXPECT_EQ(sh(kBin + " run --dry-run 2>/dev/null"), 2);  // missing --bench
  EXPECT_EQ(sh(kBin + " run --bench mcf --shard 3/3 --dry-run 2>/dev/null"),
            2);
  EXPECT_EQ(sh(kBin + " run --bench mcf --variant bogus --dry-run "
                      "2>/dev/null"),
            2);
  // Malformed numerics fail loudly instead of silently running with the
  // default sample count.
  EXPECT_EQ(sh(kBin + " run --bench mcf --injections 9,000,000 --dry-run "
                      "2>/dev/null"),
            2);
  EXPECT_EQ(sh(kBin + " run --bench mcf --seed seven --dry-run 2>/dev/null"),
            2);
  // A sign is not a digit: -1 must not wrap to 2^64 - 1 samples.
  EXPECT_EQ(sh(kBin + " run --bench gcc --injections -1 --dry-run "
                      "2>/dev/null"),
            2);
  // A millisecond count above INT_MAX is refused, not wrapped (2^32 ms
  // would probe with a 0 ms timeout).
  EXPECT_EQ(sh(kBin + " status --timeout 4294967296 --connect-retry 0 tcp:1 "
                      "2>/dev/null"),
            2);
  // Heartbeats are a worker's one liveness signal, so they cannot be off.
  // `timeout` turns a daemon that starts anyway into a failure, not a hang.
  EXPECT_EQ(sh("timeout 10 " + kBin +
               " serve --socket cli_e2e/hb0.sock --heartbeat-ms 0 "
               "2>/dev/null"),
            2);
  EXPECT_FALSE(std::filesystem::exists("cli_e2e/hb0.sock"));
  // --once is retired: a driver's --shutdown is the one way to stop a
  // worker after a run.
  EXPECT_EQ(sh("timeout 10 " + kBin +
               " serve --socket cli_e2e/once.sock --once 2>/dev/null"),
            2);
  EXPECT_FALSE(std::filesystem::exists("cli_e2e/once.sock"));
  EXPECT_EQ(sh(kBin + " merge shard.csr 2>/dev/null"), 2);  // missing --out
  EXPECT_EQ(sh(kBin + " report --format yaml x.csr 2>/dev/null"), 2);
  EXPECT_EQ(sh(kBin + " cache frobnicate 2>/dev/null"), 2);
  // Every verb shares one parse preamble: --help exits 0, an unknown flag
  // exits 2 with "clear <verb>: " leading its stderr.
  const std::string err_path = "cli_e2e/usage_stderr.txt";
  for (const std::string verb :
       {"explore run", "explore merge", "explore frontier", "explore report",
        "explore watch", "fleet run", "fleet explore", "serve", "status",
        "version", "cache", "merge", "report"}) {
    EXPECT_EQ(sh(kBin + " " + verb + " --help"), 0) << verb;
    EXPECT_EQ(sh(kBin + " " + verb + " --no-such-flag 2>" + err_path), 2)
        << verb;
    std::ifstream in(err_path);
    const std::string err((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    EXPECT_EQ(err.rfind("clear " + verb + ": ", 0), 0u) << err;
  }
  // `clear submit` is retired: `clear fleet run <endpoint>` sends a
  // manifest to a worker, and the old verb is an unknown command.
  EXPECT_EQ(sh(kBin + " submit --help 2>" + err_path), 2);
  std::ifstream in(err_path);
  const std::string err((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  EXPECT_EQ(err.rfind("clear: unknown command 'submit'", 0), 0u) << err;
}

// ---- the acceptance test: multi-process shard -> merge ---------------------

TEST(CliE2E, ShardedProcessesMergeBitIdenticalToUnsharded) {
  const std::uint32_t kShards = 3;
  const std::size_t kInjections = 600;
  const std::uint64_t kSeed = 7;

  // Reference: the unsharded campaign, in-process.
  const auto prog = isa::assemble(workloads::build_benchmark("mcf"));
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = kInjections;
  spec.seed = kSeed;
  const auto whole = engine::run_campaign(spec);
  ASSERT_EQ(whole.totals.total(), kInjections);

  // K real `clear run` processes, one per shard.
  std::string merge_cmd = kBin + " merge --out cli_e2e/merged.csr";
  for (std::uint32_t k = 0; k < kShards; ++k) {
    const std::string out =
        "cli_e2e/shard_" + std::to_string(k) + ".csr";
    const std::string cmd =
        kBin + " run --bench mcf --injections " +
        std::to_string(kInjections) + " --seed " + std::to_string(kSeed) +
        " --shard " + std::to_string(k) + "/" + std::to_string(kShards) +
        " --out " + out;
    ASSERT_EQ(sh(cmd), 0) << cmd;
    merge_cmd += " " + out;
  }
  ASSERT_EQ(sh(merge_cmd), 0) << merge_cmd;

  inject::ShardFile merged;
  ASSERT_EQ(inject::load_shard_file("cli_e2e/merged.csr", &merged),
            inject::WireStatus::kOk);
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(merged.shard_count, kShards);
  EXPECT_EQ(merged.injections, kInjections);

  // Bit-identity, totals and per-FF.
  const inject::CampaignResult& m = merged.result;
  EXPECT_EQ(m.nominal_cycles, whole.nominal_cycles);
  EXPECT_EQ(m.nominal_instrs, whole.nominal_instrs);
  EXPECT_EQ(m.totals.vanished, whole.totals.vanished);
  EXPECT_EQ(m.totals.omm, whole.totals.omm);
  EXPECT_EQ(m.totals.ut, whole.totals.ut);
  EXPECT_EQ(m.totals.hang, whole.totals.hang);
  EXPECT_EQ(m.totals.ed, whole.totals.ed);
  EXPECT_EQ(m.totals.recovered, whole.totals.recovered);
  ASSERT_EQ(m.per_ff.size(), whole.per_ff.size());
  for (std::size_t f = 0; f < whole.per_ff.size(); ++f) {
    EXPECT_EQ(m.per_ff[f].vanished, whole.per_ff[f].vanished) << f;
    EXPECT_EQ(m.per_ff[f].omm, whole.per_ff[f].omm) << f;
    EXPECT_EQ(m.per_ff[f].ut, whole.per_ff[f].ut) << f;
    EXPECT_EQ(m.per_ff[f].hang, whole.per_ff[f].hang) << f;
    EXPECT_EQ(m.per_ff[f].ed, whole.per_ff[f].ed) << f;
    EXPECT_EQ(m.per_ff[f].recovered, whole.per_ff[f].recovered) << f;
  }

  // The merged file renders in every format.
  EXPECT_EQ(sh(kBin + " report cli_e2e/merged.csr"), 0);
  EXPECT_EQ(sh(kBin + " report --format csv --per-ff cli_e2e/merged.csr"), 0);
  EXPECT_EQ(sh(kBin + " report --format json cli_e2e/merged.csr"), 0);
  // The shards memoized their campaigns: the cache pack has records.
  EXPECT_EQ(sh(kBin + " cache stats"), 0);
  EXPECT_EQ(sh(kBin + " cache compact"), 0);
}

// Runs a shell command and returns its combined stdout+stderr.
std::string sh_capture(const std::string& cmd) {
  const std::string path = "cli_e2e/capture.txt";
  (void)std::system((cmd + " > " + path + " 2>&1").c_str());
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

TEST(CliE2E, AdaptiveConfidenceFlagsAreValidatedAndPlanned) {
  // Range and syntax errors fail loudly before any simulation.
  EXPECT_EQ(sh(kBin + " run --bench gcc --confidence 0.7 --dry-run "
                      "2>/dev/null"),
            2);
  EXPECT_EQ(sh(kBin + " run --bench gcc --confidence abc --dry-run "
                      "2>/dev/null"),
            2);
  EXPECT_EQ(sh(kBin + " run --bench gcc --confidence 0.1 "
                      "--confidence-method bogus --dry-run 2>/dev/null"),
            2);
  // The dry-run plan announces the adaptive schedule.
  const std::string plan = sh_capture(
      kBin + " run --bench gcc --confidence 0.1 --confidence-method cp "
             "--dry-run");
  EXPECT_NE(plan.find("confidence +/-0.1"), std::string::npos) << plan;
  EXPECT_NE(plan.find("budget ceiling"), std::string::npos) << plan;
}

// The engine-selection flags are gone: old scripts that still pass them
// must fail loudly, naming the flag, instead of running something else.
TEST(CliE2E, RemovedEngineFlagsAreRejectedByName) {
  // Exit status of `clear <args> --dry-run`; its stderr lands in *err.
  const auto run = [](const std::string& args, std::string* err) {
    const std::string path = "cli_e2e/removed_flag.txt";
    const int rc = sh(kBin + " " + args + " --dry-run 2>" + path);
    std::ifstream in(path);
    err->assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
    return rc;
  };
  std::string err;
  EXPECT_EQ(run("run --bench mcf --checkpoint off", &err), 2);
  EXPECT_NE(err.find("unknown flag '--checkpoint'"), std::string::npos)
      << err;

  // A manifest stanza is resolved with the same strict grammar.
  {
    std::ofstream spec("cli_e2e/removed_flag.spec");
    spec << "--bench mcf --injections 10\n---\n"
            "--bench gcc --injections 10 --checkpoint-interval 97\n";
  }
  EXPECT_EQ(run("run --spec cli_e2e/removed_flag.spec", &err), 2);
  EXPECT_NE(err.find("unknown flag '--checkpoint-interval'"),
            std::string::npos)
      << err;
  // So is the per-campaign thread count: CLEAR_THREADS is the one
  // thread-count setting, on the command line and in a stanza alike.
  EXPECT_EQ(run("run --bench mcf --threads 2", &err), 2);
  EXPECT_NE(err.find("unknown flag '--threads'"), std::string::npos) << err;
  {
    std::ofstream spec("cli_e2e/removed_threads.spec");
    spec << "--bench mcf --injections 10\n---\n"
            "--bench gcc --injections 10 --threads 2\n";
  }
  EXPECT_EQ(run("run --spec cli_e2e/removed_threads.spec", &err), 2);
  EXPECT_NE(err.find("campaign #2: unknown flag '--threads'"),
            std::string::npos)
      << err;
}

TEST(CliE2E, AdaptiveShardedMergeMatchesInProcessAndReportsIntervals) {
  const auto prog = isa::assemble(workloads::build_benchmark("gcc"));
  const std::uint32_t ffs = arch::make_core("InO")->registry().ff_count();
  const std::size_t kInjections = static_cast<std::size_t>(ffs) * 8;
  const std::string inj = std::to_string(kInjections);

  // In-process reference: the unsharded adaptive campaign.
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = kInjections;
  spec.seed = 9;
  spec.confidence_half_width = 0.3;
  spec.confidence_method = util::IntervalMethod::kClopperPearson;
  const auto whole = engine::run_campaign(spec);
  ASSERT_TRUE(whole.adaptive());

  // Two real `clear run` shard processes plus a real merge.
  std::string merge_cmd = kBin + " merge --out cli_e2e/adaptive.csr";
  for (std::uint32_t k = 0; k < 2; ++k) {
    const std::string out = "cli_e2e/adaptive_" + std::to_string(k) + ".csr";
    const std::string text = sh_capture(
        kBin + " run --core InO --bench gcc --injections " + inj +
        " --seed 9 --confidence 0.3 --confidence-method cp --shard " +
        std::to_string(k) + "/2 --out " + out);
    // Every shard reports its confidence target and achieved intervals.
    EXPECT_NE(text.find("confidence target +/-0.3"), std::string::npos)
        << text;
    EXPECT_NE(text.find("achieved"), std::string::npos) << text;
    merge_cmd += " " + out;
  }
  const std::string merge_text = sh_capture(merge_cmd);
  EXPECT_NE(merge_text.find("confidence +/-0.3"), std::string::npos)
      << merge_text;

  inject::ShardFile merged;
  ASSERT_EQ(inject::load_shard_file("cli_e2e/adaptive.csr", &merged),
            inject::WireStatus::kOk);
  EXPECT_TRUE(merged.complete());
  ASSERT_TRUE(merged.result.adaptive());
  // The merged shards agree with the in-process run on the plan...
  EXPECT_EQ(merged.result.pilot, whole.pilot);
  EXPECT_EQ(merged.result.planned, whole.planned);
  // ...and on every counter (bit-identity across process boundaries).
  EXPECT_EQ(merged.result.totals.total(), whole.totals.total());
  ASSERT_EQ(merged.result.per_ff.size(), whole.per_ff.size());
  for (std::size_t f = 0; f < whole.per_ff.size(); f += 131) {
    EXPECT_EQ(merged.result.per_ff[f].omm, whole.per_ff[f].omm) << f;
    EXPECT_EQ(merged.result.per_ff[f].ut, whole.per_ff[f].ut) << f;
  }
  const auto mi = merged.result.sdc_interval(), wi = whole.sdc_interval();
  EXPECT_DOUBLE_EQ(mi.lo, wi.lo);
  EXPECT_DOUBLE_EQ(mi.hi, wi.hi);

  // The v2 file renders with the adaptive block in every format.
  const std::string json =
      sh_capture(kBin + " report --format json cli_e2e/adaptive.csr");
  EXPECT_NE(json.find("\"adaptive\""), std::string::npos);
  EXPECT_NE(json.find("\"sdc_interval_95\""), std::string::npos);
  EXPECT_NE(json.find("\"target_half_width\": 0.3"), std::string::npos)
      << json;
  const std::string human = sh_capture(kBin + " report cli_e2e/adaptive.csr");
  EXPECT_NE(human.find("SDC 95%"), std::string::npos) << human;
}

TEST(CliE2E, SpecFileDrivesRunAndCommandLineWins) {
  // Cluster workflow: one spec file templated per campaign, `--shard`
  // (and any override) supplied on the command line.
  {
    std::ofstream spec("cli_e2e/campaign.spec");
    spec << "# InO/gcc smoke campaign\n"
         << "--bench gcc --injections 60\n"
         << "--seed 3 --no-cache\n";
  }
  ASSERT_EQ(sh(kBin + " run --spec cli_e2e/campaign.spec --shard 0/2"
                      " --out cli_e2e/spec0.csr"),
            0);
  inject::ShardFile s;
  ASSERT_EQ(inject::load_shard_file("cli_e2e/spec0.csr", &s),
            inject::WireStatus::kOk);
  EXPECT_EQ(s.injections, 60u);
  EXPECT_EQ(s.seed, 3u);
  EXPECT_EQ(s.shard_count, 2u);
  EXPECT_EQ(s.covered, (std::vector<std::uint32_t>{0}));

  // The command line overrides the file.
  ASSERT_EQ(sh(kBin + " run --spec cli_e2e/campaign.spec --seed 9"
                      " --out cli_e2e/spec9.csr"),
            0);
  ASSERT_EQ(inject::load_shard_file("cli_e2e/spec9.csr", &s),
            inject::WireStatus::kOk);
  EXPECT_EQ(s.seed, 9u);
  EXPECT_EQ(s.injections, 60u);

  EXPECT_EQ(sh(kBin + " run --spec cli_e2e/nonexistent.spec 2>/dev/null"),
            1);
}

// Two campaigns without the `---` line between them are one stanza that
// sets --core and --bench twice: refused by name, not run as the second.
TEST(CliE2E, SpecStanzaRepeatingAFlagIsRefused) {
  {
    std::ofstream spec("cli_e2e/two.spec");
    spec << "--core InO --bench gcc --injections 60\n"
         << "--core OoO --bench mcf --injections 60\n";
  }
  EXPECT_EQ(sh(kBin + " run --spec cli_e2e/two.spec --dry-run"
                      " 2> cli_e2e/two.err"),
            2);
  std::ifstream in("cli_e2e/two.err");
  const std::string err((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  EXPECT_NE(err.find("'--core'"), std::string::npos) << err;
}

TEST(CliE2E, MultiCampaignManifestMatchesSingleRunsBitExactly) {
  // A manifest: several campaigns in one spec file, '---'-separated,
  // batched through ONE run_campaigns submission in one process.
  {
    std::ofstream spec("cli_e2e/manifest.spec");
    spec << "# two-campaign manifest\n"
         << "--bench mcf --injections 120 --seed 11 --no-cache"
         << " --out cli_e2e/m0.csr\n"
         << "---\n"
         << "--bench gcc --variant cfcss --injections 90 --seed 12"
         << " --no-cache --out cli_e2e/m1.csr\n";
  }
  ASSERT_EQ(sh(kBin + " run --spec cli_e2e/manifest.spec --dry-run"), 0);
  ASSERT_EQ(sh(kBin + " run --spec cli_e2e/manifest.spec"), 0);

  // Each manifest campaign is bit-identical to the standalone campaign.
  const auto check = [](const std::string& path, const std::string& bench,
                        const std::string& variant, std::size_t injections,
                        std::uint64_t seed) {
    inject::ShardFile s;
    ASSERT_EQ(inject::load_shard_file(path, &s), inject::WireStatus::kOk);
    const auto prog = core::build_variant_program(
        bench, plan::parse_variant(variant), 0);
    inject::CampaignSpec cs;
    cs.core_name = "InO";
    cs.program = &prog;
    cs.injections = injections;
    cs.seed = seed;
    const auto whole = engine::run_campaign(cs);
    ASSERT_EQ(s.result.per_ff.size(), whole.per_ff.size()) << path;
    EXPECT_EQ(s.result.nominal_cycles, whole.nominal_cycles) << path;
    for (std::size_t f = 0; f < whole.per_ff.size(); ++f) {
      EXPECT_EQ(s.result.per_ff[f].omm, whole.per_ff[f].omm) << path << f;
      EXPECT_EQ(s.result.per_ff[f].vanished, whole.per_ff[f].vanished)
          << path << f;
      EXPECT_EQ(s.result.per_ff[f].ed, whole.per_ff[f].ed) << path << f;
    }
  };
  check("cli_e2e/m0.csr", "mcf", "base", 120, 11);
  check("cli_e2e/m1.csr", "gcc", "cfcss", 90, 12);

  // --out on the command line would collide across the manifest's
  // campaigns; nested --spec would recurse.  Both are usage errors.
  EXPECT_EQ(sh(kBin + " run --spec cli_e2e/manifest.spec --out x.csr "
                      "2>/dev/null"),
            2);
  {
    std::ofstream spec("cli_e2e/nested.spec");
    spec << "--bench mcf\n---\n--spec cli_e2e/manifest.spec\n";
  }
  EXPECT_EQ(sh(kBin + " run --spec cli_e2e/nested.spec 2>/dev/null"), 2);
  // ...including in a single-stanza file, where the command-line re-parse
  // would otherwise silently discard it.
  {
    std::ofstream spec("cli_e2e/nested1.spec");
    spec << "--bench mcf --spec cli_e2e/manifest.spec\n";
  }
  EXPECT_EQ(sh(kBin + " run --spec cli_e2e/nested1.spec --dry-run "
                      "2>/dev/null"),
            2);
  // A bad stanza names the campaign in the error and fails loudly.
  {
    std::ofstream spec("cli_e2e/badstanza.spec");
    spec << "--bench mcf --injections 60\n---\n--bench mcf --seed seven\n";
  }
  EXPECT_EQ(sh(kBin + " run --spec cli_e2e/badstanza.spec 2>/dev/null"), 2);
  // --dry-run inside any stanza dry-runs the whole manifest, exactly as
  // it would in a one-stanza spec (nothing simulated, nothing written).
  {
    std::ofstream spec("cli_e2e/drymanifest.spec");
    spec << "--bench mcf --out cli_e2e/dry0.csr --dry-run\n---\n"
         << "--bench gcc --out cli_e2e/dry1.csr\n";
  }
  EXPECT_EQ(sh(kBin + " run --spec cli_e2e/drymanifest.spec"), 0);
  EXPECT_FALSE(std::filesystem::exists("cli_e2e/dry0.csr"));
  EXPECT_FALSE(std::filesystem::exists("cli_e2e/dry1.csr"));
}

// A stanza's --metrics-out names the process's one metric snapshot: a
// one-stanza spec extends the command line and writes it, a manifest of
// several refuses it by name (which stanza would own the process?), and
// the command line's applies to the whole manifest.
TEST(CliE2E, StanzaMetricsOutIsRefusedInAManifestAndHonouredAlone) {
  {
    std::ofstream spec("cli_e2e/metrics2.spec");
    spec << "--bench gcc --injections 40 --no-cache"
         << " --metrics-out cli_e2e/ma.json\n---\n"
         << "--bench mcf --injections 40 --no-cache"
         << " --metrics-out cli_e2e/mb.json\n";
  }
  EXPECT_EQ(sh(kBin + " run --spec cli_e2e/metrics2.spec"
                      " 2> cli_e2e/metrics2.err"),
            2);
  std::ifstream in("cli_e2e/metrics2.err");
  const std::string err((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  EXPECT_NE(err.find("--metrics-out"), std::string::npos) << err;
  EXPECT_FALSE(std::filesystem::exists("cli_e2e/ma.json"));
  EXPECT_FALSE(std::filesystem::exists("cli_e2e/mb.json"));

  {
    std::ofstream spec("cli_e2e/metrics1.spec");
    spec << "--bench gcc --injections 40 --no-cache"
         << " --metrics-out cli_e2e/m1.json\n";
  }
  ASSERT_EQ(sh(kBin + " run --spec cli_e2e/metrics1.spec"), 0);
  EXPECT_TRUE(std::filesystem::exists("cli_e2e/m1.json"));

  {
    std::ofstream spec("cli_e2e/metrics_cl.spec");
    spec << "--bench gcc --injections 40 --no-cache\n---\n"
         << "--bench mcf --injections 40 --no-cache\n";
  }
  ASSERT_EQ(sh(kBin + " run --spec cli_e2e/metrics_cl.spec"
                      " --metrics-out cli_e2e/mcl.json"),
            0);
  EXPECT_TRUE(std::filesystem::exists("cli_e2e/mcl.json"));
}

// The lines perfbench/run.py reads out of the CLI's stdout: the
// flip-flop count of a dry run, the per-FF sample count and the record
// summary of an exploration, and the sample totals of a JSON report.
TEST(CliE2E, BenchmarkParsedOutputLinesArePinned) {
  // The token before a marker, as run.py splits it.
  const auto number_before = [](const std::string& text,
                                const std::string& marker) {
    const std::size_t at = text.find(marker);
    if (at == std::string::npos) return 0ULL;
    std::size_t begin = text.find_last_of(" \n", at - 1);
    begin = begin == std::string::npos ? 0 : begin + 1;
    return std::stoull(text.substr(begin, at - begin));
  };
  for (const std::string core : {"InO", "OoO"}) {
    const std::string dry =
        sh_capture(kBin + " run --core " + core + " --bench gcc --dry-run");
    EXPECT_EQ(number_before(dry, " flip-flops"), arch::core_ff_count(core))
        << dry;
  }

  const std::string explore = sh_capture(
      kBin + " explore run --core InO --benches mcf,inner_product "
             "--per-ff 1 --seed 5 --ledger cli_e2e/pinned.cxl --quiet");
  EXPECT_EQ(number_before(explore, " per-FF samples"), 1u) << explore;
  const std::size_t at = explore.find(" evaluated + ");
  ASSERT_NE(at, std::string::npos) << explore;
  unsigned long long evaluated = 0, anchors = 0, pruned = 0, skipped = 0;
  ASSERT_EQ(std::sscanf(explore.c_str() + explore.rfind(' ', at - 1) + 1,
                        "%llu evaluated + %llu anchors, %llu pruned, "
                        "%llu skipped",
                        &evaluated, &anchors, &pruned, &skipped),
            4)
      << explore;
  explore::Ledger ledger;
  ASSERT_EQ(explore::load_ledger_file("cli_e2e/pinned.cxl", &ledger),
            explore::LedgerStatus::kOk);
  EXPECT_GT(evaluated, 0u);
  EXPECT_EQ(evaluated + anchors + pruned + skipped, ledger.records.size());

  ASSERT_EQ(sh(kBin + " run --bench gcc --injections 70 --seed 2"
                      " --out cli_e2e/pinned.csr"),
            0);
  const std::string report = sh_capture(
      kBin + " report --format json cli_e2e/pinned.csr");
  util::Json rows;
  ASSERT_TRUE(util::parse_json(report, &rows)) << report;
  ASSERT_EQ(rows.kind, util::Json::Kind::kArr) << report;
  ASSERT_EQ(rows.arr.size(), 1u) << report;
  const util::Json* totals = rows.arr[0].find("totals");
  ASSERT_NE(totals, nullptr) << report;
  EXPECT_EQ(totals->u64_at("samples"), 70u) << report;
}

TEST(CliE2E, ExploreEmitManifestRoundTripsThroughClearRun) {
  // The explore engine emits its profiling prelude as a manifest; running
  // it warms the campaign cache pack under the exact keys `clear explore
  // run` will look up.
  ASSERT_EQ(sh(kBin + " explore run --core InO --benches mcf,inner_product "
                      "--per-ff 1 --seed 5 --emit-manifest "
                      "cli_e2e/prof.spec"),
            0);
  std::ifstream in("cli_e2e/prof.spec");
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t stanzas = 1, keyed = 0;
  while (std::getline(in, line)) {
    if (line == "---") ++stanzas;
    if (line.find("--key InO/") != std::string::npos) ++keyed;
  }
  EXPECT_GT(stanzas, 4u);        // base + software layers, x2 benchmarks
  EXPECT_EQ(keyed, stanzas);     // every campaign cache-keyed
  EXPECT_EQ(sh(kBin + " run --spec cli_e2e/prof.spec --dry-run"), 0);
  EXPECT_EQ(sh(kBin + " run --spec cli_e2e/prof.spec"), 0);

  // The same exploration then finds every campaign it profiles in the
  // pack: no lookup misses and no sample is simulated.
  ASSERT_EQ(sh(kBin + " explore run --core InO --benches mcf,inner_product "
                      "--per-ff 1 --seed 5 --ledger cli_e2e/prof.cxl "
                      "--quiet --metrics-out cli_e2e/prof_metrics.json"),
            0);
  std::ifstream metrics("cli_e2e/prof_metrics.json");
  const std::string json((std::istreambuf_iterator<char>(metrics)),
                         std::istreambuf_iterator<char>());
  // A counter the run never touched is absent from the snapshot: 0.
  const auto counter = [&json](const std::string& name) {
    const std::string key = "\"" + name + "\": ";
    const std::size_t at = json.find(key);
    return at == std::string::npos
               ? 0
               : std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
  };
  ASSERT_NE(json.find("\"cache.miss\": "), std::string::npos) << json;
  EXPECT_GT(counter("cache.hit"), 0u) << json;
  EXPECT_EQ(counter("cache.miss"), 0u) << json;
  EXPECT_EQ(counter("campaign.samples"), 0u) << json;
}

TEST(CliE2E, RecoveryIsPartOfTheDerivedCacheKey) {
  // Two runs differing only in --recovery must not share cached results:
  // DFC detections end as DUEs without recovery but are repaired under
  // EIR, so a poisoned cache hit would report identical outcomes.
  const std::string base_cmd =
      kBin + " run --bench mcf --variant dfc --injections 600 --seed 3 ";
  ASSERT_EQ(sh(base_cmd + "--recovery none --out cli_e2e/rec_none.csr"), 0);
  ASSERT_EQ(sh(base_cmd + "--recovery eir --out cli_e2e/rec_eir.csr"), 0);
  inject::ShardFile none, eir;
  ASSERT_EQ(inject::load_shard_file("cli_e2e/rec_none.csr", &none),
            inject::WireStatus::kOk);
  ASSERT_EQ(inject::load_shard_file("cli_e2e/rec_eir.csr", &eir),
            inject::WireStatus::kOk);
  EXPECT_NE(none.key, eir.key);
  EXPECT_EQ(none.result.totals.recovered, 0u);
  EXPECT_GT(eir.result.totals.recovered, 0u);
}

TEST(CliE2E, MergeRefusesMismatchedSeeds) {
  // Same campaign shape, different seed: a different experiment.  The
  // merge must fail loudly instead of producing a silently wrong fold.
  const std::string a = "cli_e2e/seed7.csr";
  const std::string b = "cli_e2e/seed8.csr";
  ASSERT_EQ(sh(kBin + " run --bench gcc --injections 60 --seed 7 "
                      "--shard 0/2 --no-cache --out " + a),
            0);
  ASSERT_EQ(sh(kBin + " run --bench gcc --injections 60 --seed 8 "
                      "--shard 1/2 --no-cache --out " + b),
            0);
  EXPECT_EQ(sh(kBin + " merge --out cli_e2e/bad.csr " + a + " " + b +
               " 2>/dev/null"),
            1);
  EXPECT_FALSE(std::filesystem::exists("cli_e2e/bad.csr"));
}

TEST(CliE2E, PartialMergeNeedsOptIn) {
  const std::string a = "cli_e2e/part0.csr";
  ASSERT_EQ(sh(kBin + " run --bench gcc --injections 60 --seed 3 "
                      "--shard 0/2 --no-cache --out " + a),
            0);
  EXPECT_EQ(sh(kBin + " merge --out cli_e2e/part.csr " + a + " 2>/dev/null"),
            1);
  EXPECT_EQ(sh(kBin + " merge --allow-partial --out cli_e2e/part.csr " + a),
            0);
  inject::ShardFile part;
  ASSERT_EQ(inject::load_shard_file("cli_e2e/part.csr", &part),
            inject::WireStatus::kOk);
  EXPECT_FALSE(part.complete());
  EXPECT_EQ(part.covered, (std::vector<std::uint32_t>{0}));
}

TEST(CliE2E, MergeRejectsCorruptAndFutureVersionFiles) {
  const std::string good = "cli_e2e/vgood.csr";
  ASSERT_EQ(sh(kBin + " run --bench gcc --injections 60 --seed 3 "
                      "--shard 0/1 --no-cache --out " + good),
            0);

  // Corrupt copy: flip one payload byte.
  {
    std::ifstream in(good, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes[bytes.size() - 1] = static_cast<char>(bytes.back() ^ 0x40);
    std::ofstream out("cli_e2e/corrupt.csr", std::ios::binary);
    out << bytes;
  }
  EXPECT_EQ(sh(kBin + " merge --out cli_e2e/x.csr cli_e2e/corrupt.csr "
                      "2>/dev/null"),
            1);

  // Future-version copy: version bumped, header checksum re-stamped (what
  // a newer `clear` would write).  Today's binary must refuse it.
  {
    std::ifstream in(good, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes[4] = static_cast<char>(inject::kWireVersion + 1);
    const std::uint64_t sum = inject::fnv1a64(bytes.data(), 24);
    for (int i = 0; i < 8; ++i) {
      bytes[24 + i] = static_cast<char>(
          static_cast<unsigned char>(sum >> (8 * i)));
    }
    std::ofstream out("cli_e2e/future.csr", std::ios::binary);
    out << bytes;
  }
  EXPECT_EQ(sh(kBin + " merge --out cli_e2e/x.csr cli_e2e/future.csr "
                      "2>/dev/null"),
            1);
  EXPECT_EQ(sh(kBin + " report cli_e2e/future.csr 2>/dev/null"), 1);
}

}  // namespace
