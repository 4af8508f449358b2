// Golden byte fixtures (tests/data/golden/): committed `.csr` v1/v2,
// `.cxl` v1/v2 and CPK1 pack bytes.  Refactors of the campaign engine,
// the wire codecs or the cache pack must reproduce them exactly:
//   * re-running each producer (the `clear` CLI) writes the fixture bytes,
//   * decoding a fixture and re-encoding it is the identity,
//   * a pack written with a fixed (fingerprint, key, payload) is the
//     CPK1 fixture, and opening the fixture serves that payload back.
//
// The producers below are the exact commands the fixtures were made with;
// CLEAR_CACHE_DIR is empty so every campaign really simulates.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "explore/ledger.h"
#include "inject/cachepack.h"
#include "inject/wire.h"

namespace {

using namespace clear;

const std::string kBin = CLEAR_CLI_BIN;
const std::string kGolden = std::string(CLEAR_TEST_DATA_DIR) + "/golden/";
const std::string kWork = "golden_e2e/";

class GoldenEnv : public ::testing::Environment {
 public:
  void SetUp() override {
    std::filesystem::remove_all(kWork);
    std::filesystem::create_directories(kWork);
  }
};
const ::testing::Environment* const kEnv =
    ::testing::AddGlobalTestEnvironment(new GoldenEnv);

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Runs `clear <args>` with caching disabled; returns its exit status.
int clear_cli(const std::string& args) {
  const int rc = std::system(
      ("CLEAR_CACHE_DIR= " + kBin + " " + args + " > /dev/null").c_str());
  return rc != -1 && WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

// The fixture's format version (the u32 after the magic).
unsigned version_of(const std::string& bytes) {
  return bytes.size() > 4 ? static_cast<unsigned char>(bytes[4]) : 0;
}

void expect_producer_reproduces(const std::string& fixture,
                                const std::string& args) {
  const std::string want = read_file(kGolden + fixture);
  ASSERT_FALSE(want.empty()) << fixture;
  ASSERT_EQ(clear_cli(args), 0) << args;
  // EXPECT_TRUE, not EXPECT_EQ: a mismatch must not dump 40 KB of bytes.
  EXPECT_TRUE(read_file(kWork + fixture) == want)
      << fixture << " differs from `clear " << args << "`";
}

TEST(GoldenFixtures, CsrV1FixedBudgetProducerReproduces) {
  EXPECT_EQ(version_of(read_file(kGolden + "fixed_v1.csr")), 1u);
  expect_producer_reproduces(
      "fixed_v1.csr",
      "run --core InO --bench gcc --variant dfc --recovery eir "
      "--injections 3000 --seed 7 --out " + kWork + "fixed_v1.csr");
}

TEST(GoldenFixtures, CsrV2AdaptiveProducerReproduces) {
  EXPECT_EQ(version_of(read_file(kGolden + "adaptive_v2.csr")), 2u);
  expect_producer_reproduces(
      "adaptive_v2.csr",
      "run --core InO --bench mcf --injections 30000 --seed 5 "
      "--confidence 0.3 --out " + kWork + "adaptive_v2.csr");
}

TEST(GoldenFixtures, CxlV1ExplorationProducerReproduces) {
  EXPECT_EQ(version_of(read_file(kGolden + "explore_v1.cxl")), 1u);
  expect_producer_reproduces(
      "explore_v1.cxl",
      "explore run --core InO --per-ff 1 --benches gcc --seed 3 --quiet "
      "--ledger " + kWork + "explore_v1.cxl");
}

TEST(GoldenFixtures, CxlV2AdaptiveExplorationProducerReproduces) {
  EXPECT_EQ(version_of(read_file(kGolden + "explore_v2.cxl")), 2u);
  expect_producer_reproduces(
      "explore_v2.cxl",
      "explore run --core InO --per-ff 4 --benches gcc --seed 3 "
      "--confidence 0.4 --quiet --ledger " + kWork + "explore_v2.cxl");
}

TEST(GoldenFixtures, CsrDecodeEncodeIsIdentity) {
  for (const char* name : {"fixed_v1.csr", "adaptive_v2.csr"}) {
    const std::string bytes = read_file(kGolden + name);
    inject::ShardFile shard;
    ASSERT_EQ(inject::decode_shard(bytes, &shard), inject::WireStatus::kOk)
        << name;
    EXPECT_TRUE(inject::encode_shard(shard) == bytes) << name;
  }
}

TEST(GoldenFixtures, CxlDecodeEncodeIsIdentity) {
  for (const char* name : {"explore_v1.cxl", "explore_v2.cxl"}) {
    const std::string bytes = read_file(kGolden + name);
    explore::Ledger ledger;
    explore::LedgerLoadInfo info;
    ASSERT_EQ(explore::decode_ledger(bytes, &ledger, &info),
              explore::LedgerStatus::kOk)
        << name;
    EXPECT_EQ(info.tail_dropped_bytes, 0u) << name;
    EXPECT_TRUE(explore::encode_ledger(ledger) == bytes) << name;
  }
}

constexpr std::uint64_t kPackFp = 0x0123456789ABCDEFULL;
const char* const kPackKey = "golden/fixture";
const char* const kPackPayload = "7 1 2 3\n4 5 6 7 8 9\n";

TEST(GoldenFixtures, CachePackRecordMatchesCpk1Fixture) {
  const std::string want = read_file(kGolden + "record.cpk");
  ASSERT_FALSE(want.empty());
  const std::string dir = kWork + "pack_write";
  {
    inject::CachePack pack(dir);
    pack.put(kPackFp, kPackKey, kPackPayload);
  }
  EXPECT_TRUE(read_file(dir + "/" + inject::CachePack::kPackName) == want);

  // The fixture opens as a pack and serves its payload back.
  const std::string rdir = kWork + "pack_read";
  std::filesystem::create_directories(rdir);
  std::filesystem::copy_file(kGolden + "record.cpk",
                             rdir + "/" + inject::CachePack::kPackName);
  inject::CachePack pack(rdir);
  std::string payload;
  ASSERT_TRUE(pack.get(kPackFp, &payload));
  EXPECT_EQ(payload, kPackPayload);
  EXPECT_EQ(pack.stats().records, 1u);
  EXPECT_EQ(pack.stats().quarantined, 0u);
}

}  // namespace
