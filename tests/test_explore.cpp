// Exploration subsystem tests: the combos golden pin, the .cxl ledger
// format (round trip + corruption fuzz mirroring test_wire.cpp), shard
// merge determinism (K in {2,3} vs unsharded, bit-identical), kill-and-
// resume, cost-lower-bound soundness, pruning honesty, and the
// multi-process `clear explore run` x3 -> `clear explore merge` e2e
// acceptance test (CLEAR_CLI_BIN, injected by CMake).
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/combos.h"
#include "core/selection.h"
#include "explore/explore.h"
#include "explore/ledger.h"
#include "combo_eval_oracle.h"

namespace {

using namespace clear;
using explore::Ledger;
using explore::LedgerRecord;
using explore::LedgerStatus;
using explore::RecordKind;

class ExploreEnv : public ::testing::Environment {
 public:
  void SetUp() override {
    // Unique per test binary: parallel ctest must not share a mutable
    // cache dir; the spawned `clear` children inherit this.
    ::setenv("CLEAR_CACHE_DIR", ".clear_cache_test_explore", 1);
    std::filesystem::remove_all("explore_e2e");
    std::filesystem::create_directories("explore_e2e");
  }
};
const ::testing::Environment* const kEnv =
    ::testing::AddGlobalTestEnvironment(new ExploreEnv);

int sh(const std::string& cmd) {
  const int rc = std::system((cmd + " > /dev/null").c_str());
  if (rc == -1) return -1;
  if (WIFEXITED(rc)) return WEXITSTATUS(rc);
  return -1;
}

const std::string kBin = CLEAR_CLI_BIN;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// The shared reduced-scale experiment: 4 benchmarks (including one ABFT
// correction + one ABFT detection kernel, so no combo is skipped), one
// sample per flip-flop.
explore::ExploreSpec test_spec() {
  explore::ExploreSpec spec;
  spec.core = "InO";
  spec.target = 50.0;
  spec.seed = 5;
  spec.per_ff_samples = 1;
  spec.benchmarks = {"mcf", "gcc", "inner_product", "fft1d"};
  return spec;
}

// Bit-exact record comparison via the on-disk encoding (doubles compare
// as their IEEE-754 bit patterns).
std::vector<std::string> sorted_record_bytes(const Ledger& l) {
  std::vector<LedgerRecord> recs = l.records;
  std::stable_sort(recs.begin(), recs.end(),
                   [](const LedgerRecord& a, const LedgerRecord& b) {
                     if (a.combo_index != b.combo_index) {
                       return a.combo_index < b.combo_index;
                     }
                     return static_cast<int>(a.kind) < static_cast<int>(b.kind);
                   });
  std::vector<std::string> out;
  out.reserve(recs.size());
  for (const auto& r : recs) out.push_back(explore::encode_record(r));
  return out;
}

// A small synthetic ledger for format tests (no campaigns involved).
Ledger synth_ledger() {
  Ledger l;
  l.core = "InO";
  l.target = 50.0;
  l.metric = 0;
  l.seed = 7;
  l.per_ff_samples = 1;
  l.benchmarks = {"mcf", "gcc"};
  l.combo_count = 417;
  l.combo_fingerprint = core::enumeration_fingerprint("InO");
  l.pruning = true;
  l.shard_count = 3;
  l.covered = {1};
  const RecordKind kinds[] = {RecordKind::kPoint, RecordKind::kPruned,
                              RecordKind::kSkipped, RecordKind::kPoint};
  for (std::uint32_t i = 0; i < 8; ++i) {
    LedgerRecord r;
    r.kind = kinds[i % 4];
    r.combo_index = 1 + 3 * i;  // owned by shard 1 of 3
    r.combo = "combo#" + std::to_string(r.combo_index);
    r.target = 50.0;
    r.target_met = (i % 2) == 0;
    r.energy = 0.1 + 0.01 * i;  // inexact in binary: catches re-rounding
    r.area = 0.2 + 0.001 * i;
    r.power = 0.3 / (i + 1);
    r.exec = 0.7 * i;
    r.sdc_protected_pct = 99.0 + 0.1 * i;
    r.imp_sdc = 51.3 + i;
    r.imp_due = 0.4 + i;
    l.records.push_back(r);
  }
  return l;
}

// ---- combos golden pin -----------------------------------------------------

TEST(CombosGolden, EnumerationMatchesGoldenFile) {
  std::ifstream in(std::string(CLEAR_TEST_DATA_DIR) + "/combos_golden.txt");
  ASSERT_TRUE(in.good()) << "missing tests/data/combos_golden.txt";

  std::string line;
  std::string core;
  std::size_t expected_count = 0;
  std::uint64_t expected_fp = 0;
  std::vector<std::string> names;
  const auto check_section = [&]() {
    if (core.empty()) return;
    const auto combos = core::enumerate_combos(core);
    ASSERT_EQ(combos.size(), expected_count) << core;
    ASSERT_EQ(names.size(), combos.size()) << core;
    for (std::size_t i = 0; i < combos.size(); ++i) {
      EXPECT_EQ(combos[i].name(), names[i])
          << core << " combo #" << i
          << ": the exploration space changed -- ledgers and shard "
             "assignments written by older binaries no longer line up; "
             "regenerate the golden file only for an intentional change";
    }
    EXPECT_EQ(core::enumeration_fingerprint(core), expected_fp) << core;
    names.clear();
  };
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.front() == '[') {
      check_section();
      char core_buf[16] = {0};
      unsigned long long count = 0, fp = 0;
      ASSERT_EQ(std::sscanf(line.c_str(), "[%15s %llu fingerprint=%llx]",
                            core_buf, &count, &fp),
                3)
          << line;
      core = core_buf;
      expected_count = count;
      expected_fp = fp;
    } else {
      names.push_back(line);
    }
  }
  check_section();
  // The golden file itself pins the paper's Table 18 counts.
  EXPECT_EQ(core::enumerate_combos("InO").size(), 417u);
  EXPECT_EQ(core::enumerate_combos("OoO").size(), 169u);
}

// ---- ledger format ---------------------------------------------------------

TEST(LedgerFormat, RoundTrip) {
  const Ledger l = synth_ledger();
  const std::string bytes = explore::encode_ledger(l);
  Ledger back;
  explore::LedgerLoadInfo info;
  ASSERT_EQ(explore::decode_ledger(bytes, &back, &info), LedgerStatus::kOk);
  EXPECT_EQ(info.records_loaded, l.records.size());
  EXPECT_EQ(info.tail_dropped_bytes, 0u);
  EXPECT_TRUE(back.same_identity(l));
  EXPECT_EQ(back.covered, l.covered);
  ASSERT_EQ(back.records.size(), l.records.size());
  for (std::size_t i = 0; i < l.records.size(); ++i) {
    EXPECT_EQ(explore::encode_record(back.records[i]),
              explore::encode_record(l.records[i]))
        << i;
  }
  // Encoding is deterministic (byte-identical re-encode).
  EXPECT_EQ(explore::encode_ledger(back), bytes);
}

TEST(LedgerFormat, TruncationAtEveryRecordBoundaryLoadsThePrefix) {
  const Ledger l = synth_ledger();
  const std::string bytes = explore::encode_ledger(l);
  std::size_t header_end = bytes.size();
  for (const auto& r : l.records) header_end -= explore::encode_record(r).size();

  std::size_t boundary = header_end;
  for (std::size_t n = 0; n <= l.records.size(); ++n) {
    Ledger back;
    explore::LedgerLoadInfo info;
    ASSERT_EQ(explore::decode_ledger(bytes.substr(0, boundary), &back, &info),
              LedgerStatus::kOk)
        << n;
    ASSERT_EQ(back.records.size(), n);
    EXPECT_EQ(info.tail_dropped_bytes, 0u) << n;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(explore::encode_record(back.records[i]),
                explore::encode_record(l.records[i]));
    }
    if (n < l.records.size()) {
      boundary += explore::encode_record(l.records[n]).size();
    }
  }
}

TEST(LedgerFormat, TruncationAtEveryByteNeverServesWrongData) {
  const Ledger l = synth_ledger();
  const std::string bytes = explore::encode_ledger(l);
  std::size_t header_end = bytes.size();
  for (const auto& r : l.records) header_end -= explore::encode_record(r).size();

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Ledger back;
    explore::LedgerLoadInfo info;
    const LedgerStatus st =
        explore::decode_ledger(bytes.substr(0, cut), &back, &info);
    if (cut < header_end) {
      EXPECT_NE(st, LedgerStatus::kOk) << cut;
      continue;
    }
    // Inside the record region: always loads, records always an exact
    // prefix, damage always accounted for.
    ASSERT_EQ(st, LedgerStatus::kOk) << cut;
    ASSERT_LE(back.records.size(), l.records.size());
    std::size_t clean = header_end;
    for (std::size_t i = 0; i < back.records.size(); ++i) {
      EXPECT_EQ(explore::encode_record(back.records[i]),
                explore::encode_record(l.records[i]));
      clean += explore::encode_record(l.records[i]).size();
    }
    EXPECT_EQ(info.tail_dropped_bytes, cut - clean) << cut;
  }
}

TEST(LedgerFormat, BitFlipAtEveryByteIsDetected) {
  const Ledger l = synth_ledger();
  const std::string bytes = explore::encode_ledger(l);
  std::size_t header_end = bytes.size();
  for (const auto& r : l.records) header_end -= explore::encode_record(r).size();

  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x20);
    Ledger back;
    explore::LedgerLoadInfo info;
    const LedgerStatus st = explore::decode_ledger(mutated, &back, &info);
    if (st != LedgerStatus::kOk) continue;  // refused outright: fine
    // Loaded: identity must be intact and every record an exact prefix
    // of the original -- a flip may cost records, never change one.
    EXPECT_TRUE(back.same_identity(l)) << i;
    EXPECT_EQ(back.covered, l.covered) << i;
    ASSERT_LE(back.records.size(), l.records.size()) << i;
    for (std::size_t r = 0; r < back.records.size(); ++r) {
      EXPECT_EQ(explore::encode_record(back.records[r]),
                explore::encode_record(l.records[r]))
          << "flip at " << i;
    }
    if (i >= header_end) {
      EXPECT_LT(back.records.size(), l.records.size()) << i;
      EXPECT_GT(info.tail_dropped_bytes, 0u) << i;
    }
  }
}

TEST(LedgerFormat, FutureVersionRefusedNotMisparsed) {
  std::string bytes = explore::encode_ledger(synth_ledger());
  bytes[4] = static_cast<char>(explore::kLedgerVersion + 1);
  const std::uint64_t sum = explore::fnv1a64(bytes.data(), 24);
  for (int i = 0; i < 8; ++i) {
    bytes[24 + i] =
        static_cast<char>(static_cast<unsigned char>(sum >> (8 * i)));
  }
  Ledger back;
  EXPECT_EQ(explore::decode_ledger(bytes, &back),
            LedgerStatus::kVersionUnsupported);
}

TEST(LedgerFormat, RandomGarbageNeverLoads) {
  std::mt19937_64 rng(20260729);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage(1 + static_cast<std::size_t>(rng() % 512), '\0');
    for (auto& c : garbage) c = static_cast<char>(rng());
    Ledger back;
    EXPECT_NE(explore::decode_ledger(garbage, &back), LedgerStatus::kOk);
  }
}

TEST(LedgerWriter, CreateAppendReloadAndIdentityGuard) {
  const std::string path = "explore_e2e/writer.cxl";
  std::filesystem::remove(path);
  Ledger identity = synth_ledger();
  const std::vector<LedgerRecord> recs = identity.records;
  identity.records.clear();

  explore::LedgerWriter w;
  w.open(path, identity);
  for (const auto& r : recs) w.append(r);
  EXPECT_EQ(w.state().records.size(), recs.size());

  Ledger back;
  ASSERT_EQ(explore::load_ledger_file(path, &back), LedgerStatus::kOk);
  EXPECT_EQ(sorted_record_bytes(back), sorted_record_bytes(w.state()));

  // Re-open with the same identity resumes; a different identity refuses.
  explore::LedgerWriter again;
  again.open(path, identity);
  EXPECT_EQ(again.state().records.size(), recs.size());
  Ledger other = identity;
  other.seed ^= 1;
  explore::LedgerWriter refuse;
  EXPECT_THROW(refuse.open(path, other), std::runtime_error);
}

TEST(LedgerMerge, RefusesMismatchOverlapAndMisownedRecords) {
  const Ledger a = synth_ledger();  // covers shard 1 of 3
  Ledger b = a;
  b.covered = {2};
  for (auto& r : b.records) {
    r.combo_index += 1;  // shard 2's combos
    r.kind = RecordKind::kPoint;
  }
  // Disjoint coverage merges.
  const Ledger ab = explore::merge_ledger_files({a, b});
  EXPECT_EQ(ab.covered, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(ab.records.size(), a.records.size() + b.records.size());
  EXPECT_FALSE(ab.complete());  // shard 0 (and most combos) still missing

  // Same ledger twice: coverage overlap.
  EXPECT_THROW((void)explore::merge_ledger_files({a, a}),
               std::invalid_argument);
  // Every identity field, changed alone, makes a different exploration:
  // the merge refuses and names the field, same_identity is false, and a
  // writer refuses to append to the other's file.
  const std::string path = "explore_e2e/identity_sweep.cxl";
  std::filesystem::remove(path);
  Ledger on_disk = a;
  on_disk.records.clear();
  explore::LedgerWriter w;
  w.open(path, on_disk);
  using Mutation = void (*)(Ledger&);
  const std::vector<std::pair<std::string, Mutation>> fields = {
      {"core", [](Ledger& l) { l.core = "OoO"; }},
      {"target", [](Ledger& l) { l.target = 51.0; }},
      {"metric", [](Ledger& l) { l.metric = 1; }},
      {"seed", [](Ledger& l) { l.seed ^= 1; }},
      {"per_ff_samples", [](Ledger& l) { l.per_ff_samples = 2; }},
      {"confidence target", [](Ledger& l) { l.confidence = 0.1; }},
      {"confidence target", [](Ledger& l) { l.confidence_method = 1; }},
      {"benchmarks", [](Ledger& l) { l.benchmarks.push_back("gzip"); }},
      {"combo_count", [](Ledger& l) { l.combo_count = 169; }},
      {"combo_fingerprint", [](Ledger& l) { l.combo_fingerprint ^= 1; }},
      {"pruning", [](Ledger& l) { l.pruning = false; }},
      {"shard_count", [](Ledger& l) { l.shard_count = 4; }},
  };
  for (const auto& [name, mutate] : fields) {
    Ledger c = b;
    mutate(c);
    EXPECT_FALSE(c.same_identity(a)) << name;
    try {
      (void)explore::merge_ledger_files({a, c});
      ADD_FAILURE() << "merge accepted a different " << name;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("disagree on " + name + " ("),
                std::string::npos)
          << e.what();
    }
    Ledger other = on_disk;
    mutate(other);
    explore::LedgerWriter refuse;
    EXPECT_THROW(refuse.open(path, other), std::runtime_error) << name;
  }
  // A record owned by a shard the ledger does not cover.
  Ledger d = b;
  d.records.front().combo_index = 3;  // shard 0's combo in shard 2's ledger
  EXPECT_THROW((void)explore::merge_ledger_files({a, d}),
               std::invalid_argument);
}

// ---- exploration determinism ----------------------------------------------

TEST(Explore, FailedManifestWriteLeavesNoFile) {
  // `clear explore run --emit-manifest` output is read back by `clear run
  // --spec`; a write that dies part-way must not leave a truncated
  // manifest at the path.  The child caps file size at 512 bytes (with
  // SIGXFSZ ignored the write fails with EFBIG instead of killing it).
  const std::string path = "failed_manifest_write.spec";
  std::filesystem::remove(path);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    const rlimit cap{512, 512};
    int code = 2;  // returned without throwing
    if (::setrlimit(RLIMIT_FSIZE, &cap) != 0) ::_exit(5);
    try {
      explore::write_profile_manifest(test_spec(), path);
    } catch (const std::runtime_error&) {
      code = std::filesystem::exists(path) ? 3
             : std::filesystem::exists(path + ".tmp") ? 4
                                                       : 0;
    }
    ::_exit(code);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "2: no throw, 3: file left at the path, 4: tmp file left";
  std::error_code ec;
  const auto left = std::filesystem::file_size(path, ec);
  EXPECT_TRUE(ec) << "a " << left << "-byte partial manifest was left";
  // Uncapped, the same manifest is written whole (and exceeds the cap).
  explore::write_profile_manifest(test_spec(), path);
  EXPECT_GT(std::filesystem::file_size(path), 512u);
  std::filesystem::remove(path);
}

TEST(Explore, AnchorsExistOnBothCores) {
  for (const char* core : {"InO", "OoO"}) {
    const auto anchors = explore::anchor_indices(core);
    ASSERT_EQ(anchors.size(), 2u) << core;
    const auto combos = core::enumerate_combos(core);
    for (const auto ai : anchors) {
      ASSERT_LT(ai, combos.size());
      EXPECT_TRUE(combos[ai].dice);
    }
  }
}

TEST(Explore, ShardMergeBitIdenticalToUnshardedK2K3) {
  explore::ExploreSpec spec = test_spec();
  const Ledger whole = explore::run_exploration(spec, "");
  EXPECT_TRUE(whole.complete());
  const auto whole_bytes = sorted_record_bytes(whole);
  const auto whole_frontier = explore::pareto_frontier(whole);
  ASSERT_FALSE(whole_frontier.empty());

  for (const std::uint32_t K : {2u, 3u}) {
    std::vector<Ledger> shards;
    for (std::uint32_t k = 0; k < K; ++k) {
      explore::ExploreSpec s = test_spec();
      s.shard_index = k;
      s.shard_count = K;
      shards.push_back(explore::run_exploration(s, ""));
    }
    const Ledger merged = explore::merge_ledger_files(shards);
    EXPECT_TRUE(merged.complete()) << K;
    // Identity fields differ only in shard_count -- the records must be
    // bit-identical to the unsharded exploration.
    EXPECT_EQ(sorted_record_bytes(merged), whole_bytes) << "K=" << K;
    const auto frontier = explore::pareto_frontier(merged);
    ASSERT_EQ(frontier.size(), whole_frontier.size()) << K;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      EXPECT_EQ(explore::encode_record(*frontier[i]),
                explore::encode_record(*whole_frontier[i]))
          << "K=" << K << " frontier point " << i;
    }
  }
}

TEST(Explore, NoPruneShardMergeBitIdentical) {
  explore::ExploreSpec spec = test_spec();
  spec.prune = false;
  const Ledger whole = explore::run_exploration(spec, "");
  std::size_t points = 0;
  for (const auto& r : whole.records) {
    points += (r.kind == RecordKind::kPoint);
  }
  EXPECT_EQ(points, 417u);  // every combination evaluated

  std::vector<Ledger> shards;
  for (std::uint32_t k = 0; k < 2; ++k) {
    explore::ExploreSpec s = spec;
    s.shard_index = k;
    s.shard_count = 2;
    shards.push_back(explore::run_exploration(s, ""));
  }
  EXPECT_EQ(sorted_record_bytes(explore::merge_ledger_files(shards)),
            sorted_record_bytes(whole));
}

TEST(Explore, SuiteWithoutAbftBenchesSkipsDeterministically) {
  explore::ExploreSpec spec = test_spec();
  spec.benchmarks = {"mcf", "gcc"};
  const Ledger whole = explore::run_exploration(spec, "");
  EXPECT_TRUE(whole.complete());
  std::size_t skipped = 0;
  for (const auto& r : whole.records) {
    skipped += (r.kind == RecordKind::kSkipped);
  }
  // All 273 ABFT combinations (2 standalone + 144 correction-composed +
  // 127 detection-composed) are unsupported on an ABFT-free suite.
  EXPECT_EQ(skipped, 273u);

  explore::ExploreSpec s0 = spec, s1 = spec;
  s0.shard_index = 0;
  s0.shard_count = 2;
  s1.shard_index = 1;
  s1.shard_count = 2;
  const Ledger merged = explore::merge_ledger_files(
      {explore::run_exploration(s0, ""), explore::run_exploration(s1, "")});
  EXPECT_EQ(sorted_record_bytes(merged), sorted_record_bytes(whole));
}

// ---- kill-and-resume -------------------------------------------------------

TEST(Explore, ResumeFromRecordBoundaryIsByteIdentical) {
  const std::string full_path = "explore_e2e/resume_full.cxl";
  const std::string cut_path = "explore_e2e/resume_cut.cxl";
  std::filesystem::remove(full_path);
  std::filesystem::remove(cut_path);

  explore::ExploreSpec spec = test_spec();
  (void)explore::run_exploration(spec, full_path);
  const std::string full_bytes = read_file(full_path);

  Ledger full;
  ASSERT_EQ(explore::load_ledger_file(full_path, &full), LedgerStatus::kOk);
  ASSERT_GT(full.records.size(), 20u);
  // "Kill" after 20 records: truncate at that record boundary.
  std::size_t cut = full_bytes.size();
  for (const auto& r : full.records) cut -= explore::encode_record(r).size();
  for (std::size_t i = 0; i < 20; ++i) {
    cut += explore::encode_record(full.records[i]).size();
  }
  write_file(cut_path, full_bytes.substr(0, cut));

  const Ledger resumed = explore::run_exploration(spec, cut_path);
  EXPECT_TRUE(resumed.complete());
  // The resumed file is byte-for-byte the uninterrupted one: same header,
  // same records, same order.
  EXPECT_EQ(read_file(cut_path), full_bytes);
}

// Sets an environment variable for one scope, restoring the old value.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) ::setenv(name_, old_.c_str(), 1);
    else ::unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  bool had_ = false;
  std::string old_;
};

// The sample scale of an exploration that does not set one is the
// per-core constant, whatever the environment of the process resolving
// it: fleet workers must agree on it without the stanza spelling it out.
TEST(Explore, DefaultPerFfIgnoresTheEnvironment) {
  const ScopedEnv env("CLEAR_INJECTIONS", "5");
  explore::ExploreSpec spec;
  ASSERT_EQ(spec.per_ff_samples, 0u);
  EXPECT_EQ(explore::resolve_identity(spec).per_ff_samples, 2u);
  spec.core = "OoO";
  EXPECT_EQ(explore::resolve_identity(spec).per_ff_samples, 1u);
}

// The ledger bytes of a fresh run of `spec` under CLEAR_THREADS=threads.
std::string ledger_bytes(const explore::ExploreSpec& spec,
                         const std::string& path, const char* threads) {
  const ScopedEnv env("CLEAR_THREADS", threads);
  std::filesystem::remove(path);
  (void)explore::run_exploration(spec, path);
  return read_file(path);
}

// Byte length of the ledger file holding only the first n records.
std::size_t prefix_bytes(const std::string& bytes, const Ledger& ledger,
                         std::size_t n) {
  std::size_t cut = bytes.size();
  for (const auto& r : ledger.records) cut -= explore::encode_record(r).size();
  for (std::size_t i = 0; i < n; ++i) {
    cut += explore::encode_record(ledger.records[i]).size();
  }
  return cut;
}

// Parallel evaluation is pure scheduling: one worker or four, the ledger
// bytes are the same, in every pruning mode and across a mid-batch resume.
TEST(Explore, RecordsIdenticalAcrossThreadCounts) {
  const std::string path = "explore_e2e/threads.cxl";

  // Pruned, fixed budget; 16-combo batches, so the space spans many.
  explore::ExploreSpec pruned = test_spec();
  pruned.batch = 16;
  const std::string pruned_bytes = ledger_bytes(pruned, path, "1");
  EXPECT_EQ(ledger_bytes(pruned, path, "4"), pruned_bytes);

  // Every combo evaluated.
  explore::ExploreSpec full = test_spec();
  full.prune = false;
  full.batch = 16;
  EXPECT_EQ(ledger_bytes(full, path, "4"), ledger_bytes(full, path, "1"));

  // Adaptive, unsharded, pruning: the bar tightens as points land.  With
  // one batch for the whole space, every combo the tightened bar prunes
  // was evaluated speculatively against the anchor bar and dropped by the
  // fold; batch = 1 is the serial schedule, where the bar at each combo
  // is already the live one.  At a 500x target some evaluated points are
  // (near-)full-protection designs cheaper than the anchors.
  explore::ExploreSpec adaptive = test_spec();
  adaptive.target = 500.0;
  adaptive.confidence = 0.3;
  adaptive.batch = 1;
  const std::string serial = ledger_bytes(adaptive, path, "1");
  adaptive.batch = 1024;
  EXPECT_EQ(ledger_bytes(adaptive, path, "4"), serial);
  EXPECT_EQ(ledger_bytes(adaptive, path, "1"), serial);
  {
    Ledger l;
    ASSERT_EQ(explore::decode_ledger(serial, &l), LedgerStatus::kOk);
    double anchor_bar = std::numeric_limits<double>::infinity();
    for (const auto& r : l.records) {
      if (r.kind == RecordKind::kAnchor && r.sdc_protected_pct >= 99.5) {
        anchor_bar = std::min(anchor_bar, r.energy);
      }
    }
    std::size_t dropped = 0;
    for (const auto& r : l.records) {
      dropped += r.kind == RecordKind::kPruned && r.energy <= anchor_bar;
    }
    EXPECT_GT(dropped, 0u) << "no speculative point was discarded";
  }

  // Resume from a record boundary in the middle of a batch: a serial
  // run's prefix, finished by four workers, is the serial file.
  Ledger parsed;
  ASSERT_EQ(explore::decode_ledger(pruned_bytes, &parsed), LedgerStatus::kOk);
  ASSERT_GT(parsed.records.size(), 40u);
  write_file(path, pruned_bytes.substr(0, prefix_bytes(pruned_bytes, parsed,
                                                       2 + 16 + 5)));
  {
    const ScopedEnv env("CLEAR_THREADS", "4");
    (void)explore::run_exploration(pruned, path);
  }
  EXPECT_EQ(read_file(path), pruned_bytes);
}

// A cancel that lands mid-batch stops the run with only whole records on
// disk: the file is the uninterrupted ledger's prefix at a record
// boundary, and it resumes to the complete file.
TEST(Explore, CancelMidBatchLeavesOnlyCompleteRecords) {
  const std::string path = "explore_e2e/cancel.cxl";
  explore::ExploreSpec spec = test_spec();
  spec.batch = 16;
  const std::string full_bytes = ledger_bytes(spec, path, "4");

  std::filesystem::remove(path);
  std::atomic<bool> cancel{false};
  spec.cancel = &cancel;
  const std::size_t stop_after = 20;  // inside the second batch
  {
    const ScopedEnv env("CLEAR_THREADS", "4");
    EXPECT_THROW(explore::run_exploration(
                     spec, path,
                     [&](const explore::Progress& p) {
                       if (p.done == stop_after) cancel.store(true);
                     }),
                 explore::ExploreCancelled);
  }
  const std::string cut = read_file(path);
  Ledger partial;
  ASSERT_EQ(explore::decode_ledger(cut, &partial), LedgerStatus::kOk);
  const std::size_t anchors = explore::anchor_indices(spec.core).size();
  EXPECT_EQ(partial.records.size(), anchors + stop_after);
  EXPECT_EQ(full_bytes.substr(0, cut.size()), cut);

  cancel.store(false);
  (void)explore::run_exploration(spec, path);
  EXPECT_EQ(read_file(path), full_bytes);
}

TEST(Explore, ResumeFromTornTailRecoversAndCompletes) {
  const std::string full_path = "explore_e2e/resume_full.cxl";  // from above
  const std::string torn_path = "explore_e2e/resume_torn.cxl";
  explore::ExploreSpec spec = test_spec();
  if (!std::filesystem::exists(full_path)) {
    (void)explore::run_exploration(spec, full_path);
  }
  const std::string full_bytes = read_file(full_path);

  Ledger full;
  ASSERT_EQ(explore::load_ledger_file(full_path, &full), LedgerStatus::kOk);
  std::size_t boundary = full_bytes.size();
  for (const auto& r : full.records) {
    boundary -= explore::encode_record(r).size();
  }
  for (std::size_t i = 0; i < 11; ++i) {
    boundary += explore::encode_record(full.records[i]).size();
  }
  // Torn mid-record append: 11 clean records + 7 bytes of a 12th.
  write_file(torn_path, full_bytes.substr(0, boundary + 7));

  const Ledger resumed = explore::run_exploration(spec, torn_path);
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(read_file(torn_path), full_bytes);
}

// ---- pruning ---------------------------------------------------------------

TEST(Explore, CostLowerBoundIsSound) {
  explore::ExploreSpec spec = test_spec();
  core::Session session(spec.core, spec.per_ff_samples, spec.seed);
  session.set_benchmarks(spec.benchmarks);
  core::Selector selector(session);
  const auto combos = core::enumerate_combos(spec.core);
  std::size_t checked = 0;
  for (std::size_t i = 0; i < combos.size(); i += 7) {
    session.prefetch(core::combo_variants(combos[i]));
    const double lb =
        core::combo_cost_lower_bound(session, selector.model(), combos[i]);
    const core::ComboPoint p =
        core::evaluate_combo(session, selector, combos[i], spec.target);
    EXPECT_LE(lb, p.energy + 1e-9) << combos[i].name();
    // The bound is also valid at the max point (any target).
    const core::ComboPoint pmax =
        core::evaluate_combo(session, selector, combos[i], -1.0);
    EXPECT_LE(lb, pmax.energy + 1e-9) << combos[i].name();
    ++checked;
  }
  EXPECT_GE(checked, 50u);
}

TEST(Explore, PruningKeepsTheCheapFrontierAndCheapestMeetingPoint) {
  explore::ExploreSpec pruned_spec = test_spec();
  explore::ExploreSpec full_spec = test_spec();
  full_spec.prune = false;
  const Ledger pruned = explore::run_exploration(pruned_spec, "");
  const Ledger full = explore::run_exploration(full_spec, "");

  // The cheapest target-meeting combination is pruning-invariant.
  const auto meet_p = explore::target_meeting_points(pruned);
  const auto meet_f = explore::target_meeting_points(full);
  ASSERT_FALSE(meet_p.empty());
  ASSERT_FALSE(meet_f.empty());
  EXPECT_EQ(explore::encode_record(*meet_p.front()),
            explore::encode_record(*meet_f.front()));

  // Below the pruning bar (the cheapest full-protection anchor) the
  // frontier is pruning-invariant: every pruned combo's bound exceeded
  // the bar, so every cheaper point was evaluated in both runs.
  double bar = std::numeric_limits<double>::infinity();
  for (const auto& r : pruned.records) {
    if (r.kind == RecordKind::kAnchor && r.sdc_protected_pct >= 99.5) {
      bar = std::min(bar, r.energy);
    }
  }
  ASSERT_TRUE(std::isfinite(bar));
  const auto fr_p = explore::pareto_frontier(pruned);
  const auto fr_f = explore::pareto_frontier(full);
  std::vector<std::string> below_p, below_f;
  for (const auto* r : fr_p) {
    if (r->energy <= bar) below_p.push_back(explore::encode_record(*r));
  }
  for (const auto* r : fr_f) {
    if (r->energy <= bar) below_f.push_back(explore::encode_record(*r));
  }
  EXPECT_EQ(below_p, below_f);
}

// ---- combo evaluation against the per-combo oracle --------------------------

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// Every field of `got` equals the oracle's, doubles bit for bit.
void expect_point_eq(const core::ComboPoint& got,
                     const core::ComboPoint& want, const std::string& where) {
  EXPECT_EQ(got.combo, want.combo) << where;
  EXPECT_EQ(bits_of(got.target), bits_of(want.target)) << where;
  EXPECT_EQ(got.target_met, want.target_met) << where;
  EXPECT_EQ(bits_of(got.energy), bits_of(want.energy)) << where;
  EXPECT_EQ(bits_of(got.area), bits_of(want.area)) << where;
  EXPECT_EQ(bits_of(got.power), bits_of(want.power)) << where;
  EXPECT_EQ(bits_of(got.exec), bits_of(want.exec)) << where;
  EXPECT_EQ(bits_of(got.sdc_protected_pct), bits_of(want.sdc_protected_pct))
      << where;
  EXPECT_EQ(bits_of(got.imp.sdc), bits_of(want.imp.sdc)) << where;
  EXPECT_EQ(bits_of(got.imp.due), bits_of(want.imp.due)) << where;
}

// The point a ledger record stores.
core::ComboPoint point_of(const LedgerRecord& r) {
  core::ComboPoint p;
  p.combo = r.combo;
  p.target = r.target;
  p.target_met = r.target_met;
  p.energy = r.energy;
  p.area = r.area;
  p.power = r.power;
  p.exec = r.exec;
  p.sdc_protected_pct = r.sdc_protected_pct;
  p.imp.sdc = r.imp_sdc;
  p.imp.due = r.imp_due;
  return p;
}

// Evaluating through a prepared software stack is a pure saving: on the
// perfbench suite, every combo of both cores, under every metric, at
// targets 5/50/500 and the max point, gives the per-combo oracle's
// ComboPoint.  Both the one-combo entry point and an exploration's shared
// stack table (four evaluation threads) are checked.
TEST(Explore, StackEvaluationMatchesPerComboOracle) {
  const std::vector<std::string> suite = {"gcc", "fft1d", "inner_product"};
  const core::Metric metrics[] = {core::Metric::kSdc, core::Metric::kDue,
                                  core::Metric::kJoint};
  for (const std::string core_name : {"InO", "OoO"}) {
    core::Session session(core_name, 0, 1);
    session.set_benchmarks(suite);
    const auto combos = core::enumerate_combos(core_name);
    std::vector<core::Variant> variants;
    for (const core::Combo& c : combos) {
      const auto v = core::combo_variants(c);
      variants.insert(variants.end(), v.begin(), v.end());
    }
    session.prefetch(variants);
    core::Selector selector(session);
    const testref::ComboEvalOracle oracle(session, selector);

    for (const core::Metric metric : metrics) {
      for (const double target : {5.0, 50.0, 500.0, -1.0}) {
        for (const core::Combo& c : combos) {
          expect_point_eq(
              core::evaluate_combo(session, selector, c, target, metric),
              oracle.evaluate(c, target, metric),
              core_name + " " + core::metric_token(metric) + " target " +
                  std::to_string(target) + " " + c.name());
        }
      }
      for (const double target : {5.0, 50.0, 500.0}) {
        explore::ExploreSpec spec;
        spec.core = core_name;
        spec.target = target;
        spec.metric = metric;
        spec.seed = 1;
        spec.benchmarks = suite;
        spec.prune = false;
        const ScopedEnv env("CLEAR_THREADS", "4");
        const Ledger l = explore::run_exploration(spec, "");
        std::size_t points = 0;
        for (const LedgerRecord& r : l.records) {
          ASSERT_NE(r.kind, RecordKind::kSkipped) << r.combo;
          const bool anchor = r.kind == RecordKind::kAnchor;
          points += !anchor;
          expect_point_eq(
              point_of(r),
              oracle.evaluate(combos[r.combo_index], anchor ? -1.0 : target,
                              metric),
              core_name + " exploration " + core::metric_token(metric) +
                  " target " + std::to_string(target) + " " + r.combo);
        }
        EXPECT_EQ(points, combos.size());
      }
    }
  }
}

// ---- the acceptance test: multi-process shard -> merge ---------------------

TEST(ExploreCliE2E, ShardedProcessesMergeBitIdenticalToUnsharded) {
  const std::uint32_t kShards = 3;
  const std::string flags =
      " --core InO --target 50 --benches mcf,gcc,inner_product,fft1d"
      " --per-ff 1 --seed 5 --quiet";

  // K real `clear explore run` processes, one per combo-space shard.
  std::string merge_cmd = kBin + " explore merge --out explore_e2e/merged.cxl";
  for (std::uint32_t k = 0; k < kShards; ++k) {
    const std::string out =
        "explore_e2e/shard_" + std::to_string(k) + ".cxl";
    const std::string cmd = kBin + " explore run" + flags + " --shard " +
                            std::to_string(k) + "/" + std::to_string(kShards) +
                            " --ledger " + out;
    ASSERT_EQ(sh(cmd), 0) << cmd;
    merge_cmd += " " + out;
  }
  ASSERT_EQ(sh(merge_cmd), 0) << merge_cmd;

  // Reference: the unsharded exploration, in-process.
  const Ledger whole = explore::run_exploration(test_spec(), "");

  Ledger merged;
  ASSERT_EQ(explore::load_ledger_file("explore_e2e/merged.cxl", &merged),
            LedgerStatus::kOk);
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(merged.shard_count, kShards);
  EXPECT_EQ(merged.covered, (std::vector<std::uint32_t>{0, 1, 2}));

  // Bit-identity of every record, and of the frontier.
  EXPECT_EQ(sorted_record_bytes(merged), sorted_record_bytes(whole));
  const auto fm = explore::pareto_frontier(merged);
  const auto fw = explore::pareto_frontier(whole);
  ASSERT_EQ(fm.size(), fw.size());
  for (std::size_t i = 0; i < fm.size(); ++i) {
    EXPECT_EQ(explore::encode_record(*fm[i]), explore::encode_record(*fw[i]));
  }

  // A killed-and-relaunched shard resumes as a no-op (nothing re-runs,
  // the ledger is unchanged).
  const std::string before = read_file("explore_e2e/shard_1.cxl");
  ASSERT_EQ(sh(kBin + " explore run" + flags +
               " --shard 1/3 --ledger explore_e2e/shard_1.cxl"),
            0);
  EXPECT_EQ(read_file("explore_e2e/shard_1.cxl"), before);

  // The merged ledger renders in every format.
  EXPECT_EQ(sh(kBin + " explore frontier explore_e2e/merged.cxl"), 0);
  EXPECT_EQ(sh(kBin + " explore frontier --format csv explore_e2e/merged.cxl"),
            0);
  EXPECT_EQ(sh(kBin + " explore frontier --format json explore_e2e/merged.cxl"),
            0);
  EXPECT_EQ(sh(kBin + " explore report --all explore_e2e/merged.cxl"), 0);
  EXPECT_EQ(sh(kBin + " explore report --format json explore_e2e/merged.cxl"),
            0);
}

TEST(ExploreCliE2E, UsageAndMismatchErrors) {
  EXPECT_EQ(sh(kBin + " explore 2>/dev/null"), 2);
  EXPECT_EQ(sh(kBin + " explore frobnicate 2>/dev/null"), 2);
  // Both verbs read the identity flags through one grammar and refuse a
  // bad value as a usage error -- the fleet before it connects anywhere
  // (a connect attempt to the missing socket would exit 1).
  for (const char* bad :
       {"--core Bogus", "--target -3", "--target 5x", "--metric fancy",
        "--seed 1x", "--per-ff lots", "--batch 1.5", "--benches nope",
        "--confidence 0.7", "--confidence nan", "--confidence-method bogus",
        "--confidence 0.1 --confidence-method bogus"}) {
    EXPECT_EQ(sh(kBin + " explore run " + bad + " --dry-run 2>/dev/null"), 2)
        << bad;
    EXPECT_EQ(sh(kBin + " fleet explore --ledger explore_e2e/never.cxl " +
                 bad + " --connect-retry-ms 1 explore_e2e/none.sock "
                       "2>/dev/null"),
              2)
        << bad;
  }
  EXPECT_FALSE(std::filesystem::exists("explore_e2e/never.cxl"));
  EXPECT_EQ(sh(kBin + " explore run --shard 3/3 --dry-run 2>/dev/null"), 2);
  EXPECT_EQ(sh(kBin + " explore run 2>/dev/null"), 2);  // missing --ledger
  EXPECT_EQ(sh(kBin + " explore merge explore_e2e/merged.cxl 2>/dev/null"),
            2);  // missing --out
  EXPECT_EQ(sh(kBin + " explore frontier explore_e2e/nonexistent.cxl "
                      "2>/dev/null"),
            1);
  EXPECT_EQ(sh(kBin + " explore help"), 0);
  EXPECT_EQ(sh(kBin + " explore run --dry-run"), 0);

  // Merging a shard with itself: coverage overlap, hard error.
  EXPECT_EQ(sh(kBin + " explore merge --out explore_e2e/x.cxl "
                      "explore_e2e/shard_0.cxl explore_e2e/shard_0.cxl "
                      "2>/dev/null"),
            1);
  // Partial merge needs opt-in.
  EXPECT_EQ(sh(kBin + " explore merge --out explore_e2e/part.cxl "
                      "explore_e2e/shard_0.cxl 2>/dev/null"),
            1);
  EXPECT_EQ(sh(kBin + " explore merge --allow-partial --out "
                      "explore_e2e/part.cxl explore_e2e/shard_0.cxl"),
            0);
  // A corrupt ledger is refused by merge.
  {
    std::string bytes = read_file("explore_e2e/shard_0.cxl");
    bytes[40] = static_cast<char>(bytes[40] ^ 0x7f);  // inside the identity
    write_file("explore_e2e/corrupt.cxl", bytes);
  }
  EXPECT_EQ(sh(kBin + " explore merge --out explore_e2e/x.cxl "
                      "explore_e2e/corrupt.cxl 2>/dev/null"),
            1);
}

// A fixed-budget ledger does not store the interval method, so a method
// flag without --confidence must not make the same command's ledger look
// like a different exploration.
TEST(ExploreCliE2E, MethodWithoutConfidenceResumes) {
  const std::string cmd = kBin +
                          " explore run --core InO --benches mcf --per-ff 1"
                          " --confidence-method cp --quiet"
                          " --ledger explore_e2e/method.cxl";
  ASSERT_EQ(sh(cmd), 0);
  const std::string first = read_file("explore_e2e/method.cxl");
  ASSERT_EQ(sh("(" + cmd + " --dry-run > explore_e2e/method.out)"), 0);
  EXPECT_NE(read_file("explore_e2e/method.out").find("0 combos pending"),
            std::string::npos)
      << read_file("explore_e2e/method.out");
  ASSERT_EQ(sh(cmd), 0);
  EXPECT_EQ(read_file("explore_e2e/method.cxl"), first);
  // The ledger is the one a run without the flag writes.
  ASSERT_EQ(sh(kBin + " explore run --core InO --benches mcf --per-ff 1"
                      " --quiet --ledger explore_e2e/nomethod.cxl"),
            0);
  EXPECT_EQ(read_file("explore_e2e/nomethod.cxl"), first);
}

}  // namespace
