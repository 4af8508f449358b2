// Campaign cache pack tests: round-trips, legacy migration, LRU eviction,
// and the corruption fuzz tier -- truncation at every record boundary and
// seeded random byte flips in both pack and index.  The loader must
// recover every intact record, quarantine the rest, and never crash or
// serve a wrong-checksum payload.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "inject/cachepack.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace {

using namespace clear;
namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ".cachepack_test/" + name;
  fs::remove_all(dir);
  return dir;
}

fs::path pack_path(const std::string& dir) {
  return fs::path(dir) / inject::CachePack::kPackName;
}
fs::path index_path(const std::string& dir) {
  return fs::path(dir) / inject::CachePack::kIndexName;
}

std::string payload_for(std::size_t i) {
  std::string p = "payload-" + std::to_string(i) + ":";
  // Varied sizes, binary content (including NULs and magic-lookalikes so
  // the re-synchronizing scan is exercised against false magic hits).
  for (std::size_t j = 0; j < 40 + 17 * i; ++j) {
    p += static_cast<char>((i * 131 + j * 7) & 0xff);
  }
  p += "CPK1";  // a false magic inside a payload must not confuse the scan
  return p;
}

// Builds a pack of `n` records in `dir` and returns the record boundaries
// (byte offset where record i starts; back() is the total size).
std::vector<std::uint64_t> build_pack(const std::string& dir, std::size_t n) {
  std::vector<std::uint64_t> boundaries{0};
  inject::CachePack pack(dir);
  for (std::size_t i = 0; i < n; ++i) {
    pack.put(1000 + i, "key" + std::to_string(i), payload_for(i));
    boundaries.push_back(fs::file_size(pack_path(dir)));
  }
  return boundaries;
}

TEST(CachePack, RoundTripsAndPersists) {
  const auto dir = fresh_dir("roundtrip");
  {
    inject::CachePack pack(dir);
    pack.put(1, "a", "hello");
    pack.put(2, "b", "");  // empty payloads are legal
    pack.put(3, "c", std::string(10000, 'x'));
    std::string got;
    EXPECT_TRUE(pack.get(1, &got));
    EXPECT_EQ(got, "hello");
    EXPECT_FALSE(pack.get(99, &got));
    EXPECT_EQ(pack.stats().records, 3u);
  }
  // A new instance recovers everything from disk.
  inject::CachePack again(dir);
  std::string got;
  EXPECT_TRUE(again.get(2, &got));
  EXPECT_EQ(got, "");
  EXPECT_TRUE(again.get(3, &got));
  EXPECT_EQ(got, std::string(10000, 'x'));
  EXPECT_EQ(again.stats().quarantined, 0u);
}

TEST(CachePack, RePutReplacesAndSurvivesReload) {
  const auto dir = fresh_dir("reput");
  {
    inject::CachePack pack(dir);
    pack.put(7, "k", "old");
    pack.put(7, "k", "new");
    std::string got;
    EXPECT_TRUE(pack.get(7, &got));
    EXPECT_EQ(got, "new");
  }
  inject::CachePack again(dir);
  std::string got;
  EXPECT_TRUE(again.get(7, &got));
  EXPECT_EQ(got, "new");  // later record wins on scan too
}

TEST(CachePack, ExplicitCompactReclaimsSupersededBytes) {
  // `clear cache compact` path: re-puts leave dead records behind; an
  // explicit compact() rewrites the pack keeping every live record.
  const auto dir = fresh_dir("compact");
  inject::CachePack pack(dir);
  for (int round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < 6; ++i) {
      pack.put(500 + i, "k" + std::to_string(i), payload_for(i));
    }
  }
  const auto before = fs::file_size(pack_path(dir));
  const auto stats = pack.compact(0);  // budget 0: no eviction
  EXPECT_EQ(stats.records, 6u);
  EXPECT_LT(stats.pack_bytes, before);        // dead re-put bytes reclaimed
  EXPECT_EQ(stats.pack_bytes, fs::file_size(pack_path(dir)));
  for (std::size_t i = 0; i < 6; ++i) {       // every live payload survives
    std::string got;
    EXPECT_TRUE(pack.get(500 + i, &got)) << i;
    EXPECT_EQ(got, payload_for(i)) << i;
  }
  // With a budget, compact() evicts LRU records like the put() path does.
  const auto evicted = pack.compact(stats.pack_bytes / 2);
  EXPECT_LT(evicted.records, 6u);
  EXPECT_GT(evicted.records, 0u);
  EXPECT_LE(evicted.pack_bytes, stats.pack_bytes / 2);
}

TEST(CachePack, IgnoresStrayFilesInTheCacheDirectory) {
  // Files the pack does not own (such as one-file-per-campaign caches of
  // old builds) are neither ingested nor removed.
  const auto dir = fresh_dir("stray");
  fs::create_directories(dir);
  const std::string stray = "123 2 100 50\n1 2 3 4 5 6\n7 8 9 10 11 12\n";
  { std::ofstream(dir + "/a.0000007b.camp") << stray; }

  inject::CachePack pack(dir);
  EXPECT_EQ(pack.stats().records, 0u);
  std::string got;
  EXPECT_FALSE(pack.get(123, &got));
  EXPECT_TRUE(fs::exists(dir + "/a.0000007b.camp"));
}

TEST(CachePack, RecoversUnindexedTailAfterSimulatedCrash) {
  const auto dir = fresh_dir("crash");
  build_pack(dir, 4);
  // Crash between the pack fsync and the index append: the index is
  // advisory, so losing it entirely must not lose any record.
  fs::remove(index_path(dir));
  inject::CachePack pack(dir);
  for (std::size_t i = 0; i < 4; ++i) {
    std::string got;
    EXPECT_TRUE(pack.get(1000 + i, &got)) << i;
    EXPECT_EQ(got, payload_for(i));
  }
  EXPECT_EQ(pack.stats().quarantined, 0u);
}

TEST(CachePack, TruncationAtEveryRecordBoundary) {
  const auto src = fresh_dir("trunc_src");
  constexpr std::size_t kRecords = 8;
  const auto boundaries = build_pack(src, kRecords);

  for (std::size_t k = 0; k <= kRecords; ++k) {
    // Truncate exactly at the k-th record boundary, and also mid-record
    // (a torn final append) when there is a record to tear.
    std::vector<std::uint64_t> cuts{boundaries[k]};
    if (k < kRecords) {
      cuts.push_back(boundaries[k] + 1);
      cuts.push_back(boundaries[k] +
                     (boundaries[k + 1] - boundaries[k]) / 2);
    }
    for (const std::uint64_t cut : cuts) {
      const auto dir = fresh_dir("trunc_case");
      fs::create_directories(dir);
      fs::copy_file(pack_path(src), pack_path(dir));
      fs::copy_file(index_path(src), index_path(dir));  // stale: lists all
      fs::resize_file(pack_path(dir), cut);

      inject::CachePack pack(dir);
      EXPECT_EQ(pack.stats().records, k) << "cut at " << cut;
      for (std::size_t i = 0; i < kRecords; ++i) {
        std::string got;
        const bool hit = pack.get(1000 + i, &got);
        if (i < k) {
          EXPECT_TRUE(hit) << "record " << i << " lost at cut " << cut;
          EXPECT_EQ(got, payload_for(i));
        } else {
          EXPECT_FALSE(hit) << "record " << i << " resurrected, cut " << cut;
        }
      }
    }
  }
}

// A batch put writes its records with one write and one fsync, so a crash
// can cut that write at any byte.  Every record before the cut must be
// served byte-exact, the torn one quarantined and never served.
TEST(CachePack, BatchPutTruncatedAtEveryByte) {
  constexpr std::size_t kRecords = 5;
  // The same records, one put each: their boundaries are the batch's.
  const auto single = fresh_dir("batch_single");
  const auto boundaries = build_pack(single, kRecords);
  const auto src = fresh_dir("batch_src");
  {
    inject::CachePack pack(src);
    pack.put(1000, "key0", payload_for(0));  // a record before the batch
    std::vector<inject::CacheRecord> batch;
    for (std::size_t i = 1; i < kRecords; ++i) {
      batch.push_back({1000 + i, "key" + std::to_string(i), payload_for(i)});
    }
    pack.put(batch);
    EXPECT_EQ(pack.stats().records, kRecords);
  }
  const auto slurp = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  ASSERT_EQ(slurp(pack_path(src)), slurp(pack_path(single)))
      << "a batch writes the bytes of one put per record";
  const std::uint64_t header =
      boundaries[1] - std::string("key0").size() - payload_for(0).size();

  for (std::uint64_t cut = boundaries[1]; cut <= boundaries[kRecords]; ++cut) {
    const auto dir = fresh_dir("batch_case");
    fs::create_directories(dir);
    fs::copy_file(pack_path(src), pack_path(dir));
    fs::copy_file(index_path(src), index_path(dir));  // stale: lists all
    fs::resize_file(pack_path(dir), cut);

    std::size_t intact = 0;
    while (intact < kRecords && boundaries[intact + 1] <= cut) ++intact;
    const std::uint64_t torn = cut - boundaries[intact];
    inject::CachePack pack(dir);
    EXPECT_EQ(pack.stats().records, intact) << "cut at " << cut;
    // A torn piece shorter than a header is only a short tail.
    EXPECT_EQ(pack.stats().quarantined, torn >= header ? 1u : 0u)
        << "cut at " << cut;
    for (std::size_t i = 0; i < kRecords; ++i) {
      std::string got;
      const bool hit = pack.get(1000 + i, &got);
      EXPECT_EQ(hit, i < intact) << "record " << i << ", cut " << cut;
      if (hit) {
        EXPECT_EQ(got, payload_for(i)) << "cut " << cut;
      }
    }
  }
}

TEST(CachePack, FlippedPayloadByteIsQuarantinedNeverServed) {
  const auto dir = fresh_dir("flip_one");
  const auto boundaries = build_pack(dir, 3);
  // Flip one byte in the middle of record 1's payload.
  const std::uint64_t off = boundaries[1] + (boundaries[2] - boundaries[1]) / 2;
  {
    std::fstream f(pack_path(dir),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(off));
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(static_cast<std::streamoff>(off));
    f.write(&b, 1);
  }
  inject::CachePack pack(dir);
  EXPECT_GE(pack.stats().quarantined, 1u);
  std::string got;
  EXPECT_TRUE(pack.get(1000, &got));
  EXPECT_EQ(got, payload_for(0));
  EXPECT_FALSE(pack.get(1001, &got));  // damaged: never served
  EXPECT_TRUE(pack.get(1002, &got));   // intact neighbour recovered
  EXPECT_EQ(got, payload_for(2));
}

TEST(CachePack, CorruptionFuzzNeverCrashesNorServesWrongBytes) {
  const auto src = fresh_dir("fuzz_src");
  constexpr std::size_t kRecords = 6;
  const auto boundaries = build_pack(src, kRecords);
  std::vector<std::string> payloads;
  for (std::size_t i = 0; i < kRecords; ++i) payloads.push_back(payload_for(i));

  util::Rng rng(0xF022CAFEu);  // seeded: failures are reproducible
  for (int trial = 0; trial < 80; ++trial) {
    const auto dir = fresh_dir("fuzz_case");
    fs::create_directories(dir);
    fs::copy_file(pack_path(src), pack_path(dir));
    fs::copy_file(index_path(src), index_path(dir));

    // Flip 1..8 random bytes across pack and index; cancelling double
    // flips are tracked so "intact" means bytes really unchanged.
    const std::uint64_t pack_size = fs::file_size(pack_path(dir));
    const std::uint64_t index_size = fs::file_size(index_path(dir));
    std::map<std::uint64_t, unsigned char> pack_xor;
    const int nflips = 1 + static_cast<int>(rng.below(8));
    for (int f = 0; f < nflips; ++f) {
      const bool in_pack = index_size == 0 || rng.below(10) < 7;
      const auto& path = in_pack ? pack_path(dir) : index_path(dir);
      const std::uint64_t size = in_pack ? pack_size : index_size;
      const std::uint64_t off = rng.below(size);
      const auto x = static_cast<unsigned char>(1 + rng.below(255));
      std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
      file.seekg(static_cast<std::streamoff>(off));
      char b = 0;
      file.read(&b, 1);
      b = static_cast<char>(static_cast<unsigned char>(b) ^ x);
      file.seekp(static_cast<std::streamoff>(off));
      file.write(&b, 1);
      if (in_pack) pack_xor[off] ^= x;
    }

    inject::CachePack pack(dir);  // must not crash, whatever the damage
    for (std::size_t i = 0; i < kRecords; ++i) {
      bool touched = false;
      for (const auto& [off, x] : pack_xor) {
        touched |= x != 0 && off >= boundaries[i] && off < boundaries[i + 1];
      }
      std::string got;
      const bool hit = pack.get(1000 + i, &got);
      // A served payload must be byte-exact -- a wrong-checksum payload
      // must never surface, no matter what was flipped where.
      if (hit) {
        EXPECT_EQ(got, payloads[i]) << "trial " << trial;
      }
      // Records whose bytes are untouched must all be recovered (index
      // damage alone can never lose a pack record).
      if (!touched) {
        EXPECT_TRUE(hit) << "trial " << trial << " lost intact record " << i;
      }
    }
  }
}

TEST(CachePack, EvictsLeastRecentlyUsedByByteBudget) {
  // Measure one record's size first so budgets scale with the format.
  const auto probe = fresh_dir("evict_probe");
  {
    inject::CachePack pack(probe);
    pack.put(1, "k1", std::string(64, 'p'));
  }
  const std::uint64_t r = fs::file_size(pack_path(probe));

  const auto dir = fresh_dir("evict");
  {
    inject::CachePack pack(dir, 3 * r + r / 2);
    pack.put(1, "k1", std::string(64, 'a'));
    pack.put(2, "k2", std::string(64, 'b'));
    pack.put(3, "k3", std::string(64, 'c'));
    EXPECT_EQ(pack.stats().evictions, 0u);  // 3 records fit
    std::string got;
    EXPECT_TRUE(pack.get(1, &got));  // touch: 1 becomes most recent
    pack.put(4, "k4", std::string(64, 'd'));
    EXPECT_EQ(pack.stats().evictions, 1u);
    EXPECT_LE(fs::file_size(pack_path(dir)), 3 * r + r / 2);
    EXPECT_FALSE(pack.get(2, &got));  // least recently used: evicted
    EXPECT_TRUE(pack.get(1, &got));
    EXPECT_EQ(got, std::string(64, 'a'));
    EXPECT_TRUE(pack.get(3, &got));
    EXPECT_TRUE(pack.get(4, &got));
  }
  // LRU state survives the compaction + reload.
  inject::CachePack again(dir, 3 * r + r / 2);
  std::string got;
  EXPECT_FALSE(again.get(2, &got));
  EXPECT_TRUE(again.get(1, &got));
  EXPECT_TRUE(again.get(4, &got));
}

TEST(CachePack, KeepsNewestRecordEvenWhenOverBudget) {
  const auto dir = fresh_dir("evict_tiny");
  inject::CachePack pack(dir, 8);  // smaller than any single record
  pack.put(1, "k1", "first");
  pack.put(2, "k2", "second");
  std::string got;
  EXPECT_FALSE(pack.get(1, &got));
  EXPECT_TRUE(pack.get(2, &got));  // the newest record always survives
  EXPECT_EQ(got, "second");
}

TEST(CachePack, AdvisoryIndexStaysBoundedUnderRepeatedHits) {
  // Every hit appends an LRU line; without compaction a long-lived warm
  // cache would grow campaigns.idx without bound.  Once the index dwarfs
  // the live entry set it must be rewritten to one line per record.
  const auto dir = fresh_dir("index_bound");
  inject::CachePack pack(dir);
  pack.put(1, "k1", "a");
  pack.put(2, "k2", "b");
  std::string got;
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(pack.get(1 + (i & 1), &got));
  }
  // 3000 hits, 2 live records: far below one line per hit.
  EXPECT_LT(fs::file_size(index_path(dir)), 3000u * 10);
  // The rewritten index still seeds LRU order on reload.
  ASSERT_TRUE(pack.get(2, &got));  // 2 is most recent now
  inject::CachePack again(dir, 1);  // budget smaller than one record
  EXPECT_FALSE(again.get(1, &got));
  EXPECT_TRUE(again.get(2, &got));
  EXPECT_EQ(got, "b");
}

TEST(CachePack, ConcurrentPutsAndGetsAreSafe) {
  const auto dir = fresh_dir("concurrent");
  inject::CachePack pack(dir);
  std::atomic<int> mismatches{0};
  util::parallel_for(
      64,
      [&](std::size_t i) {
        const std::uint64_t fp = 1 + (i % 8);
        const std::string payload = "p" + std::to_string(fp);
        pack.put(fp, "k", payload);
        std::string got;
        if (pack.get(fp, &got) && got != payload) mismatches.fetch_add(1);
      },
      8);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(pack.stats().records, 8u);
}

}  // namespace
