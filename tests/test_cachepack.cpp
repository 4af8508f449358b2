// Campaign cache pack tests: round-trips, legacy migration, LRU eviction,
// and the corruption fuzz tier -- truncation at every record boundary and
// seeded random byte flips in both pack and index.  The loader must
// recover every intact record, quarantine the rest, and never crash or
// serve a wrong-checksum payload.  The open reads headers only and each
// payload is verified when first served (or by stats() and compaction):
// in any order of serving and asking, the pack must show what an open
// that checked every payload up front shows (tests/eager_open_oracle.h),
// at any CLEAR_THREADS, and loads must stay exact while another instance
// rewrites the pack.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "inject/cachepack.h"
#include "util/rng.h"
#include "util/threadpool.h"
#include "eager_open_oracle.h"
#include "parallel_for.h"
#include "scoped_env.h"

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

// A payload of about 96 KiB.
std::string big_payload(std::size_t i) {
  std::string p;
  while (p.size() < (96u << 10)) p += payload_for(i + p.size() % 7);
  return p;
}

// Builds a pack of `n` records in `dir` and returns the record boundaries
// (byte offset where record i starts; back() is the total size).
std::vector<std::uint64_t> build_pack(
    const std::string& dir, std::size_t n,
    std::string (*payload)(std::size_t) = payload_for) {
  std::vector<std::uint64_t> boundaries{0};
  inject::CachePack pack(dir);
  for (std::size_t i = 0; i < n; ++i) {
    pack.put(1000 + i, "key" + std::to_string(i), payload(i));
    boundaries.push_back(fs::file_size(pack_path(dir)));
  }
  return boundaries;
}

// XORs `x` into the byte at `off` of the file at `path`.
void flip_byte(const fs::path& path, std::uint64_t off, unsigned char x) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(off));
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(static_cast<unsigned char>(b) ^ x);
  f.seekp(static_cast<std::streamoff>(off));
  f.write(&b, 1);
}

// What an open of a pack shows: its stats and the payload each listed
// fingerprint serves ("" marks a miss; the test payloads are never empty).
struct Opened {
  inject::CachePackStats stats;
  std::vector<std::string> served;
};

// Opens a fresh copy of the pack and index in `src` with CLEAR_THREADS at
// `threads` and loads fingerprints 1000 to 1000 + n - 1.
Opened open_copy(const std::string& src, const char* threads, std::size_t n) {
  const auto dir = fresh_dir(std::string("open_copy_") + threads);
  fs::create_directories(dir);
  fs::copy_file(pack_path(src), pack_path(dir));
  if (fs::exists(index_path(src))) {
    fs::copy_file(index_path(src), index_path(dir));
  }
  const ScopedEnv env("CLEAR_THREADS", threads);
  inject::CachePack pack(dir);
  Opened out;
  out.stats = pack.stats();
  for (std::size_t i = 0; i < n; ++i) {
    std::string got;
    out.served.push_back(pack.load(1000 + i, &got) ? got : "");
  }
  return out;
}

// The open at CLEAR_THREADS=4 must match the one at 1 exactly, and every
// payload it serves must be the one put.
void expect_same_open_at_1_and_4(const std::string& src, std::size_t n,
                                 const std::string& what) {
  const Opened one = open_copy(src, "1", n);
  const Opened four = open_copy(src, "4", n);
  EXPECT_EQ(four.stats.records, one.stats.records) << what;
  EXPECT_EQ(four.stats.quarantined, one.stats.quarantined) << what;
  EXPECT_EQ(four.stats.evictions, one.stats.evictions) << what;
  EXPECT_EQ(four.stats.pack_bytes, one.stats.pack_bytes) << what;
  EXPECT_EQ(four.served, one.served) << what;
  for (std::size_t i = 0; i < n; ++i) {
    if (!one.served[i].empty()) {
      EXPECT_EQ(one.served[i], big_payload(i)) << what << ", record " << i;
    }
  }
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
  flip_byte(pack_path(dir),
            boundaries[1] + (boundaries[2] - boundaries[1]) / 2, 0x40);
  inject::CachePack pack(dir);
  EXPECT_GE(pack.stats().quarantined, 1u);
  std::string got;
  EXPECT_TRUE(pack.get(1000, &got));
  EXPECT_EQ(got, payload_for(0));
  EXPECT_FALSE(pack.get(1001, &got));  // damaged: never served
  EXPECT_TRUE(pack.get(1002, &got));   // intact neighbour recovered
  EXPECT_EQ(got, payload_for(2));
}

// Damage that arrives after the open is caught by the re-read: neither
// get() nor a batch of load()s on the shared pool serves the damaged
// payload, and the intact records around it are still served.
TEST(CachePack, CorruptionAfterOpenIsNeverServed) {
  constexpr std::size_t kRecords = 6;
  const auto dir = fresh_dir("after_open");
  const auto boundaries = build_pack(dir, kRecords);
  for (const bool batched : {false, true}) {
    inject::CachePack pack(dir);
    ASSERT_EQ(pack.stats().records, kRecords);
    // Flip (or flip back) a byte in the middle of record 2's payload; the
    // pack file keeps its inode, so no reopen notices.
    flip_byte(pack_path(dir), (boundaries[2] + boundaries[3]) / 2, 0x40);
    std::vector<std::string> got(kRecords);
    std::vector<char> hit(kRecords, 0);
    const auto read = [&](std::size_t i, unsigned) {
      hit[i] = batched ? pack.load(1000 + i, &got[i])
                       : pack.get(1000 + i, &got[i]);
    };
    if (batched) {
      util::ThreadPool::instance().run(kRecords, 4, read);
    } else {
      for (std::size_t i = 0; i < kRecords; ++i) read(i, 0);
    }
    for (std::size_t i = 0; i < kRecords; ++i) {
      EXPECT_EQ(hit[i] != 0, i != 2) << "record " << i << ", " << batched;
      if (hit[i]) {
        EXPECT_EQ(got[i], payload_for(i)) << i;
      }
    }
    flip_byte(pack_path(dir), (boundaries[2] + boundaries[3]) / 2, 0x40);
  }
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
      flip_byte(path, off, x);
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

// Later records win over earlier ones with the same fingerprint, but only
// intact ones: a re-put whose payload was damaged leaves the earlier copy
// served.
TEST(CachePack, DamagedLaterCopyLeavesTheEarlierIntactCopyServed) {
  const auto dir = fresh_dir("later_copy");
  const std::string earlier = big_payload(0);
  std::uint64_t later_start = 0;
  {
    inject::CachePack pack(dir);
    pack.put(1000, "key0", earlier);
    for (std::size_t i = 1; i < 6; ++i) {
      pack.put(1000 + i, "key" + std::to_string(i), big_payload(i));
    }
    later_start = fs::file_size(pack_path(dir));
    pack.put(1000, "key0", big_payload(9));
  }
  flip_byte(pack_path(dir), (later_start + fs::file_size(pack_path(dir))) / 2,
            0x40);
  for (const char* threads : {"1", "4"}) {
    const ScopedEnv env("CLEAR_THREADS", threads);
    const auto copy = fresh_dir(std::string("later_copy_") + threads);
    fs::create_directories(copy);
    fs::copy_file(pack_path(dir), pack_path(copy));
    inject::CachePack pack(copy);
    EXPECT_EQ(pack.stats().records, 6u) << threads;
    EXPECT_EQ(pack.stats().quarantined, 1u) << threads;
    std::string got;
    ASSERT_TRUE(pack.get(1000, &got)) << threads;
    EXPECT_EQ(got, earlier) << threads;
  }
}

// A pack of more records than threads, truncated at every record
// boundary and damaged by seeded byte flips: the open at CLEAR_THREADS=4
// gives the stats of the one at 1 and serves the same payloads,
// byte-exact.
TEST(CachePack, ParallelOpenMatchesSerialOpenUnderTruncationAndCorruption) {
  constexpr std::size_t kRecords = 12;
  const auto src = fresh_dir("par_src");
  const auto boundaries = build_pack(src, kRecords, big_payload);
  const auto damaged = fresh_dir("par_damaged");
  const auto reset = [&] {
    fs::remove_all(damaged);
    fs::create_directories(damaged);
    fs::copy_file(pack_path(src), pack_path(damaged));
    fs::copy_file(index_path(src), index_path(damaged));
  };
  reset();
  expect_same_open_at_1_and_4(damaged, kRecords, "intact");
  for (std::size_t k = 0; k < kRecords; ++k) {
    for (const std::uint64_t cut :
         {boundaries[k], boundaries[k] + 1,
          boundaries[k] + (boundaries[k + 1] - boundaries[k]) / 2}) {
      reset();
      fs::resize_file(pack_path(damaged), cut);
      expect_same_open_at_1_and_4(damaged, kRecords,
                                  "cut at " + std::to_string(cut));
    }
  }
  util::Rng rng(0x5CA11E1u);
  for (int trial = 0; trial < 40; ++trial) {
    reset();
    const int nflips = 1 + static_cast<int>(rng.below(8));
    for (int f = 0; f < nflips; ++f) {
      // Headers are where a flip changes the walk: aim half the flips
      // at the first bytes of a record.
      const std::size_t rec = rng.below(kRecords);
      const std::uint64_t off =
          rng.below(2) == 0 ? boundaries[rec] + rng.below(64)
                            : rng.below(boundaries[kRecords]);
      flip_byte(pack_path(damaged), off,
                static_cast<unsigned char>(1 + rng.below(255)));
    }
    expect_same_open_at_1_and_4(damaged, kRecords,
                                "trial " + std::to_string(trial));
  }
}

// Batches of loads across the shared pool, stamped per batch, while
// another instance (as another process would) re-puts and compacts: each
// compaction replaces the pack, so the loading instance reopens under its
// mutex while pool workers wait for it, and re-verifies each record on
// its first serve.  Every served payload must be byte-exact, and nothing
// may deadlock.
TEST(CachePack, BatchedLoadsStayExactWhileAnotherInstancePutsAndCompacts) {
  constexpr std::size_t kRecords = 8;
  const auto dir = fresh_dir("batched_loads");
  build_pack(dir, kRecords, big_payload);
  std::vector<std::string> payloads;
  std::vector<std::uint64_t> fps;
  for (std::size_t i = 0; i < kRecords; ++i) {
    payloads.push_back(big_payload(i));
    fps.push_back(1000 + i);
  }
  const ScopedEnv env("CLEAR_THREADS", "4");
  inject::CachePack reader(dir);
  inject::CachePack writer(dir);
  std::atomic<bool> stop{false};
  std::atomic<int> served{0};
  std::atomic<int> wrong{0};
  std::thread batches([&] {
    do {
      // Long batches, so that compactions land inside them.
      util::ThreadPool::instance().run(
          8 * kRecords, 4, [&](std::size_t k, unsigned) {
            std::string got;
            if (reader.load(fps[k % kRecords], &got)) {
              (got == payloads[k % kRecords] ? served : wrong).fetch_add(1);
            }
          });
      reader.stamp(fps);
    } while (!stop.load());
  });
  for (int round = 0; round < 48; ++round) {
    const std::size_t i = static_cast<std::size_t>(round) % kRecords;
    writer.put(fps[i], "key" + std::to_string(i), payloads[i]);
    writer.compact(0);
  }
  stop.store(true);
  batches.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(served.load(), 0);
  for (std::size_t i = 0; i < kRecords; ++i) {
    std::string got;
    ASSERT_TRUE(reader.get(fps[i], &got)) << i;
    EXPECT_EQ(got, payloads[i]) << i;
  }
}

// ---- verification on first serve -----------------------------------------

// Builds a pack of 12 records, fingerprints 1000 to 1011, then re-puts
// three of them, so some fingerprints have an older copy to fall back to.
// Returns the record boundaries, as build_pack does.
std::vector<std::uint64_t> build_pack_with_reputs(const std::string& dir) {
  std::vector<std::uint64_t> boundaries = build_pack(dir, 12);
  inject::CachePack pack(dir);
  for (const std::size_t i : {2, 5, 9}) {
    pack.put(1000 + i, "key" + std::to_string(i), payload_for(20 + i));
    boundaries.push_back(fs::file_size(pack_path(dir)));
  }
  return boundaries;
}

// Checks a lazily verifying open of the pack in `dir` against the eager
// oracle, in both orders: stats() before any load, and every fingerprint
// loaded (as one batch across the pool at CLEAR_THREADS=4) before stats().
void expect_eager_oracle(const std::string& dir, const std::string& what) {
  const testref::EagerOpen want =
      testref::eager_open(pack_path(dir).string());
  for (const bool stats_first : {true, false}) {
    for (const char* threads : {"1", "4"}) {
      const ScopedEnv env("CLEAR_THREADS", threads);
      const auto copy = fresh_dir("oracle_copy");
      fs::create_directories(copy);
      fs::copy_file(pack_path(dir), pack_path(copy));
      if (fs::exists(index_path(dir))) {
        fs::copy_file(index_path(dir), index_path(copy));
      }
      const std::string how = what + (stats_first ? ", stats first" : "") +
                              ", CLEAR_THREADS=" + threads;
      inject::CachePack pack(copy);
      inject::CachePackStats st;
      if (stats_first) st = pack.stats();
      constexpr std::size_t kFps = 12;
      std::vector<std::string> got(kFps);
      std::vector<char> hit(kFps, 0);
      util::ThreadPool::instance().run(
          kFps, std::string(threads) == "1" ? 1 : 4,
          [&](std::size_t i, unsigned) {
            hit[i] = pack.load(1000 + i, &got[i]);
          });
      if (!stats_first) st = pack.stats();
      EXPECT_EQ(st.records, want.records) << how;
      EXPECT_EQ(st.quarantined, want.quarantined) << how;
      EXPECT_EQ(st.pack_bytes, fs::file_size(pack_path(dir))) << how;
      for (std::size_t i = 0; i < kFps; ++i) {
        const auto it = want.payloads.find(1000 + i);
        EXPECT_EQ(hit[i] != 0, it != want.payloads.end()) << how << ", " << i;
        if (hit[i] && it != want.payloads.end()) {
          EXPECT_EQ(got[i], it->second) << how << ", " << i;
        }
      }
    }
  }
}

// The truncation sweep and the seeded flips of the tests above, over a
// pack with re-puts: served bytes and stats are the eager open's, whether
// stats() comes before the first serve or after every serve.
TEST(CachePack, LazyVerificationMatchesTheEagerOpenOracle) {
  const auto src = fresh_dir("lazy_src");
  const auto boundaries = build_pack_with_reputs(src);
  const std::size_t n = boundaries.size() - 1;
  const auto damaged = fresh_dir("lazy_damaged");
  const auto reset = [&] {
    fs::remove_all(damaged);
    fs::create_directories(damaged);
    fs::copy_file(pack_path(src), pack_path(damaged));
    fs::copy_file(index_path(src), index_path(damaged));
  };
  reset();
  expect_eager_oracle(damaged, "intact");
  for (std::size_t k = 0; k < n; ++k) {
    for (const std::uint64_t cut :
         {boundaries[k], boundaries[k] + 1,
          boundaries[k] + (boundaries[k + 1] - boundaries[k]) / 2}) {
      reset();
      fs::resize_file(pack_path(damaged), cut);
      expect_eager_oracle(damaged, "cut at " + std::to_string(cut));
    }
    // One flip in the middle of each record's payload.
    reset();
    flip_byte(pack_path(damaged), boundaries[k + 1] - 3, 0x40);
    expect_eager_oracle(damaged, "payload of record " + std::to_string(k));
  }
  util::Rng rng(0x1A2Bu);
  for (int trial = 0; trial < 40; ++trial) {
    reset();
    const int nflips = 1 + static_cast<int>(rng.below(8));
    for (int f = 0; f < nflips; ++f) {
      const std::size_t rec = rng.below(n);
      const std::uint64_t off = rng.below(2) == 0
                                    ? boundaries[rec] + rng.below(64)
                                    : rng.below(boundaries[n]);
      flip_byte(pack_path(damaged), off,
                static_cast<unsigned char>(1 + rng.below(255)));
    }
    expect_eager_oracle(damaged, "trial " + std::to_string(trial));
  }
}

// The first serve of a damaged later copy, with no stats() call before
// it, serves the earlier copy and counts the damage once -- also when
// several loads of the fingerprint race across the pool.
TEST(CachePack, FirstServeOfADamagedLaterCopyServesTheEarlierOne) {
  const auto dir = fresh_dir("first_serve");
  {
    inject::CachePack pack(dir);
    pack.put(1000, "key0", payload_for(0));
    pack.put(1001, "key1", payload_for(1));
    pack.put(1000, "key0", payload_for(9));
  }
  // The last record's payload.
  flip_byte(pack_path(dir), fs::file_size(pack_path(dir)) - 5, 0x40);
  for (const char* threads : {"1", "4"}) {
    const ScopedEnv env("CLEAR_THREADS", threads);
    const auto copy = fresh_dir(std::string("first_serve_") + threads);
    fs::create_directories(copy);
    fs::copy_file(pack_path(dir), pack_path(copy));
    inject::CachePack pack(copy);
    const unsigned workers = std::string(threads) == "1" ? 1 : 4;
    std::vector<std::string> got(16);
    std::vector<char> hit(16, 0);
    util::ThreadPool::instance().run(
        16, workers,
        [&](std::size_t i, unsigned) { hit[i] = pack.load(1000, &got[i]); });
    for (std::size_t i = 0; i < 16; ++i) {
      ASSERT_TRUE(hit[i]) << threads << ", load " << i;
      EXPECT_EQ(got[i], payload_for(0)) << threads << ", load " << i;
    }
    std::string one;
    ASSERT_TRUE(pack.get(1000, &one)) << threads;
    EXPECT_EQ(one, payload_for(0)) << threads;
    const inject::CachePackStats st = pack.stats();
    EXPECT_EQ(st.quarantined, 1u) << threads;
    EXPECT_EQ(st.records, 2u) << threads;
    EXPECT_EQ(st.pack_bytes, fs::file_size(pack_path(dir))) << threads;
  }
}

// A damaged record that is never served is still counted by stats(), and
// compaction drops it (counting it) whether or not stats() came first.
TEST(CachePack, UnservedDamagedRecordIsCountedAndCompactedAway) {
  const auto src = fresh_dir("unserved_src");
  const auto boundaries = build_pack(src, 3);
  flip_byte(pack_path(src), boundaries[2] - 3, 0x40);  // record 1's payload
  for (const bool stats_first : {true, false}) {
    const auto dir = fresh_dir("unserved");
    fs::create_directories(dir);
    fs::copy_file(pack_path(src), pack_path(dir));
    {
      inject::CachePack pack(dir);
      std::string got;
      ASSERT_TRUE(pack.get(1000, &got));
      if (stats_first) {
        const inject::CachePackStats st = pack.stats();
        EXPECT_EQ(st.records, 2u);
        EXPECT_EQ(st.quarantined, 1u);
      }
      const inject::CachePackStats st = pack.compact(0);
      EXPECT_EQ(st.records, 2u) << stats_first;
      EXPECT_EQ(st.quarantined, 1u) << stats_first;
      EXPECT_EQ(st.pack_bytes, boundaries[3] - (boundaries[2] - boundaries[1]))
          << stats_first;
    }
    inject::CachePack again(dir);
    const inject::CachePackStats st = again.stats();
    EXPECT_EQ(st.records, 2u) << stats_first;
    EXPECT_EQ(st.quarantined, 0u) << stats_first;
    std::string got;
    EXPECT_FALSE(again.get(1001, &got));
    ASSERT_TRUE(again.get(1002, &got));
    EXPECT_EQ(got, payload_for(2));
  }
}

// A payload damaged after the open (with its record verified by stats()
// or not yet) is checksummed as compaction copies it: dropped and counted
// as quarantined, never carried into the compacted pack.
TEST(CachePack, CompactionDropsAPayloadDamagedAfterOpen) {
  for (const bool stats_first : {true, false}) {
    const auto dir = fresh_dir("compact_damaged");
    const auto boundaries = build_pack(dir, 2);
    {
      inject::CachePack pack(dir);
      if (stats_first) {
        ASSERT_EQ(pack.stats().records, 2u);
      }
      flip_byte(pack_path(dir), boundaries[2] - 3, 0x40);  // record 1
      const inject::CachePackStats st = pack.compact(0);
      EXPECT_EQ(st.records, 1u) << stats_first;
      EXPECT_EQ(st.quarantined, 1u) << stats_first;
      EXPECT_EQ(st.evictions, 0u) << stats_first;
      EXPECT_EQ(st.pack_bytes, boundaries[1]) << stats_first;
    }
    inject::CachePack again(dir);
    const inject::CachePackStats st = again.stats();
    EXPECT_EQ(st.records, 1u) << stats_first;
    EXPECT_EQ(st.quarantined, 0u) << stats_first;
    std::string got;
    ASSERT_TRUE(again.get(1000, &got)) << stats_first;
    EXPECT_EQ(got, payload_for(0));
  }
}

}  // namespace
