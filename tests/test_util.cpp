#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/args.h"
#include "util/bytes.h"
#include "util/env.h"
#include "util/fs.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/sealed.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/threadpool.h"

namespace {

using clear::util::Rng;

TEST(Env, BytesParsesPlainAndSuffixedValues) {
  ::setenv("CLEAR_TEST_BYTES", "4096", 1);
  EXPECT_EQ(clear::util::env_bytes("CLEAR_TEST_BYTES", 7), 4096u);
  ::setenv("CLEAR_TEST_BYTES", "16K", 1);
  EXPECT_EQ(clear::util::env_bytes("CLEAR_TEST_BYTES", 7), 16384u);
  ::setenv("CLEAR_TEST_BYTES", "2m", 1);
  EXPECT_EQ(clear::util::env_bytes("CLEAR_TEST_BYTES", 7), 2u << 20);
  ::setenv("CLEAR_TEST_BYTES", "1G", 1);
  EXPECT_EQ(clear::util::env_bytes("CLEAR_TEST_BYTES", 7), 1u << 30);
  ::setenv("CLEAR_TEST_BYTES", "junk", 1);
  EXPECT_EQ(clear::util::env_bytes("CLEAR_TEST_BYTES", 7), 7u);
  ::setenv("CLEAR_TEST_BYTES", "12Q", 1);
  EXPECT_EQ(clear::util::env_bytes("CLEAR_TEST_BYTES", 7), 7u);
  ::unsetenv("CLEAR_TEST_BYTES");
  EXPECT_EQ(clear::util::env_bytes("CLEAR_TEST_BYTES", 7), 7u);
}

// CLEAR_THREADS has one reading rule for campaigns, exploration and the
// pool: a positive count is used, capped at 256; 0 or a negative count
// means the hardware concurrency, at least 1.
TEST(Env, ThreadsKnobMapsNonPositiveToHardwareAndCapsRunaways) {
  const char* saved = std::getenv("CLEAR_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  ::setenv("CLEAR_THREADS", "0", 1);
  EXPECT_EQ(clear::util::env_threads(), hw);
  ::setenv("CLEAR_THREADS", "-3", 1);
  EXPECT_EQ(clear::util::env_threads(), hw);
  ::setenv("CLEAR_THREADS", "7", 1);
  EXPECT_EQ(clear::util::env_threads(), 7u);
  ::setenv("CLEAR_THREADS", "100000", 1);
  EXPECT_EQ(clear::util::env_threads(), 256u);
  ::unsetenv("CLEAR_THREADS");
  EXPECT_EQ(clear::util::env_threads(), hw);
  if (saved != nullptr) ::setenv("CLEAR_THREADS", restore.c_str(), 1);
}

TEST(Fs, EnsureDirCreatesIsIdempotentAndRejectsFiles) {
  const std::string dir = ".fs_test/nested/dir";
  std::filesystem::remove_all(".fs_test");
  EXPECT_TRUE(clear::util::ensure_dir(dir));
  EXPECT_TRUE(std::filesystem::is_directory(dir));
  EXPECT_TRUE(clear::util::ensure_dir(dir));  // already exists: still fine
  EXPECT_FALSE(clear::util::ensure_dir(""));
  { std::ofstream(".fs_test/afile") << "x"; }
  EXPECT_FALSE(clear::util::ensure_dir(".fs_test/afile"));
  std::filesystem::remove_all(".fs_test");
}

TEST(Fs, EnsureDirSurvivesCreationRaceFromThePool) {
  // Regression for the campaign_cache_dir() creation race: two bench
  // processes (here: pool workers) racing to create the same directory
  // must both see success -- one mkdir wins, the loser gets EEXIST and
  // re-checks.  Hammer many rounds so the race window is actually hit.
  for (int round = 0; round < 25; ++round) {
    const std::string dir =
        ".fs_race_test/r" + std::to_string(round) + "/nested/cache";
    std::atomic<int> failures{0};
    clear::util::parallel_for(
        16,
        [&](std::size_t) {
          if (!clear::util::ensure_dir(dir)) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        },
        8);
    EXPECT_EQ(failures.load(), 0) << "round " << round;
    EXPECT_TRUE(std::filesystem::is_directory(dir));
  }
  std::filesystem::remove_all(".fs_race_test");
}

TEST(Fs, AtomicWriteReplacesFilesButWritesDevicesInPlace) {
  const std::string path = "atomic_write_test.txt";
  ASSERT_TRUE(clear::util::write_file_atomic(path, "old"));
  ASSERT_TRUE(clear::util::write_file_atomic(path, "new"));
  std::string got = "untouched";
  ASSERT_TRUE(clear::util::read_file(path, &got));
  EXPECT_EQ(got, "new");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
  // `--out /dev/null`, `--metrics-out /dev/stdout`: the node must survive.
  EXPECT_TRUE(clear::util::write_file_atomic("/dev/null", "bytes"));
  EXPECT_TRUE(std::filesystem::is_character_file("/dev/null"));
  EXPECT_FALSE(std::filesystem::exists("/dev/null.tmp"));
}

TEST(Fs, ReadFileReadsBinaryBytesAndRefusesMissingFiles) {
  const std::string path = "read_file_test.bin";
  const std::string bytes("a\0b\r\n\xff", 6);
  ASSERT_TRUE(clear::util::write_file_atomic(path, bytes));
  std::string got;
  ASSERT_TRUE(clear::util::read_file(path, &got));
  EXPECT_EQ(got, bytes);
  std::filesystem::remove(path);
  got = "untouched";
  EXPECT_FALSE(clear::util::read_file(path, &got));
  EXPECT_EQ(got, "untouched");
}

// A spec stanza sets each valued option at most once: a repeat means the
// `---` line between two campaigns is missing.  The command line, parsed
// afterwards, still overrides the stanza.
TEST(Args, StanzaRefusesARepeatedValuedOption) {
  const auto parser = [] {
    clear::util::ArgParser args("prog [options]", "test parser");
    args.add_option("core", "C", "core", "InO");
    args.add_option("bench", "B", "benchmark");
    args.add_flag("no-cache", "no cache");
    return args;
  };
  std::string error;
  clear::util::ArgParser two = parser();
  EXPECT_FALSE(two.parse({"--core", "InO", "--bench", "gcc", "--core", "OoO",
                          "--bench", "mcf"},
                         &error));
  EXPECT_NE(error.find("'--core'"), std::string::npos) << error;

  clear::util::ArgParser inline_form = parser();
  EXPECT_FALSE(inline_form.parse({"--bench=gcc", "--bench", "mcf"}, &error));
  EXPECT_NE(error.find("'--bench'"), std::string::npos) << error;

  // A repeated boolean flag sets nothing twice.
  clear::util::ArgParser flags = parser();
  EXPECT_TRUE(flags.parse({"--no-cache", "--bench", "gcc", "--no-cache"},
                          &error))
      << error;

  clear::util::ArgParser cli = parser();
  ASSERT_TRUE(cli.parse({"--core", "InO", "--bench", "gcc"}, &error))
      << error;
  const char* argv[] = {"--bench", "mcf"};
  ASSERT_TRUE(cli.parse(2, argv, &error)) << error;
  EXPECT_EQ(cli.get("bench"), "mcf");
  const char* twice[] = {"--bench", "mcf", "--bench", "gzip"};
  ASSERT_TRUE(cli.parse(4, twice, &error)) << error;
  EXPECT_EQ(cli.get("bench"), "gzip");
}

TEST(Json, ReadsEveryValueKindInDocumentOrder) {
  using clear::util::Json;
  Json doc;
  ASSERT_TRUE(clear::util::parse_json(
      " {\"n\": 18446744073709551615, \"f\": 2.5e1, \"neg\": -3,\n"
      "  \"s\": \"q\\\"\\\\\\/\\b\\f\\n\\r\\t\\u0041\\u00e9\",\n"
      "  \"a\": [true, false, null, []], \"o\": {}, \"n\": 7} ",
      &doc));
  ASSERT_EQ(doc.kind, Json::Kind::kObj);
  ASSERT_EQ(doc.obj.size(), 7u);
  EXPECT_EQ(doc.obj[0].first, "n");
  EXPECT_EQ(doc.u64_at("n"), 18446744073709551615ull);  // first "n" wins
  EXPECT_EQ(doc.obj[6].second.as_u64(), 7u);
  EXPECT_DOUBLE_EQ(doc.find("f")->num, 25.0);
  EXPECT_EQ(doc.u64_at("f"), 25u);
  EXPECT_EQ(doc.u64_at("neg"), 0u);  // no unsigned reading of a negative
  EXPECT_DOUBLE_EQ(doc.find("neg")->num, -3.0);
  EXPECT_EQ(doc.str_at("s"), "q\"\\/\b\f\n\r\tA?");
  const Json* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->arr.size(), 4u);
  EXPECT_EQ(a->arr[0].kind, Json::Kind::kBool);
  EXPECT_TRUE(a->arr[0].b);
  EXPECT_FALSE(a->arr[1].b);
  EXPECT_EQ(a->arr[2].kind, Json::Kind::kNull);
  EXPECT_EQ(a->arr[3].kind, Json::Kind::kArr);
  EXPECT_EQ(doc.find("o")->kind, Json::Kind::kObj);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_EQ(doc.u64_at("s"), 0u);     // wrong kind reads as 0 / ""
  EXPECT_EQ(doc.str_at("n"), "");
}

TEST(Json, RefusesMalformedInput) {
  clear::util::Json doc;
  const std::string good = "{\"schema\": \"x\", \"v\": [1, 2]}";
  ASSERT_TRUE(clear::util::parse_json(good, &doc));
  // Every proper prefix is a truncated document.
  for (std::size_t n = 0; n < good.size(); ++n) {
    EXPECT_FALSE(clear::util::parse_json(good.substr(0, n), &doc)) << n;
  }
  for (const char* bad :
       {"{} {}", "{}x", "[1,]", "[1 2]", "{\"a\" 1}", "{\"a\": }", "{a: 1}",
        "\"\\u12g4\"", "\"\\u12\"", "\"\\q\"", "1.2.3", "-", "tru",
        "nul", "\"open"}) {
    EXPECT_FALSE(clear::util::parse_json(bad, &doc)) << bad;
  }
  // Bytes after the value, NUL included, are refused.
  EXPECT_FALSE(clear::util::parse_json(std::string("{}\0", 3), &doc));
  EXPECT_FALSE(clear::util::parse_json(std::string("1\0", 2), &doc));
  // Nesting: 33 levels (depth 0..32) read, one more is refused.
  const auto nested = [](int levels) {
    return std::string(static_cast<std::size_t>(levels), '[') +
           std::string(static_cast<std::size_t>(levels), ']');
  };
  EXPECT_TRUE(clear::util::parse_json(nested(33), &doc));
  EXPECT_FALSE(clear::util::parse_json(nested(34), &doc));
  EXPECT_FALSE(clear::util::parse_json(nested(100000), &doc));
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int bound : {1, 2, 3, 10, 1000, 1250, 13819}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(r.below(static_cast<std::uint64_t>(bound)),
                static_cast<std::uint64_t>(bound));
    }
  }
}

TEST(Rng, BelowCoversRange) {
  Rng r(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

// below() as it was before it computed its rejection threshold lazily:
// every draw is checked against the threshold.  Counts the rejections.
std::uint64_t below_eager(Rng* rng, std::uint64_t bound,
                          std::uint64_t* rejected) {
  if (bound <= 1) return 0;
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = rng->next();
    if (r >= threshold) return r % bound;
    ++*rejected;
  }
}

TEST(Rng, BelowMatchesThresholdRejection) {
  constexpr std::uint64_t k63 = std::uint64_t{1} << 63;
  const std::uint64_t seeds[] = {1, 42, 0xC1EA5C1EA5};
  const std::uint64_t bounds[] = {2,       7,   (std::uint64_t{1} << 32) + 1,
                                  k63 - 1, k63, k63 + 1,
                                  ~std::uint64_t{0}};
  std::uint64_t rejected = 0;
  for (const std::uint64_t seed : seeds) {
    for (const std::uint64_t bound : bounds) {
      Rng lazy(seed);
      Rng eager(seed);
      for (int i = 0; i < 10000; ++i) {
        ASSERT_EQ(lazy.below(bound), below_eager(&eager, bound, &rejected))
            << "seed " << seed << " bound " << bound << " draw " << i;
      }
      // Both consumed the same number of raw draws.
      EXPECT_EQ(lazy.next(), eager.next()) << "bound " << bound;
    }
  }
  // 2^63 + 1 rejects about half its draws, so the sweep took that path.
  EXPECT_GT(rejected, 10000u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

// The frame CSV1 socket frames and CXL1 ledger records share: every
// truncation is a prefix to read more of, and no single-bit flip anywhere
// in the frame yields a frame.
TEST(Frame, TruncationsNeedMoreAndNoBitFlipDecodes) {
  using clear::util::FrameStatus;
  using clear::util::read_frame;
  const std::string payload = "checksummed frame payload";
  std::string frame;
  clear::util::put_frame(&frame, payload);
  ASSERT_EQ(frame.size(), clear::util::kFrameHeaderSize + payload.size());
  std::uint32_t len = 0;
  // Bytes after the frame belong to the next one.
  const std::string two = frame + frame;
  ASSERT_EQ(read_frame(two.data(), two.size(), 1024, &len), FrameStatus::kOk);
  EXPECT_EQ(len, payload.size());
  EXPECT_EQ(two.substr(clear::util::kFrameHeaderSize, len), payload);

  for (std::size_t n = 0; n < frame.size(); ++n) {
    EXPECT_EQ(read_frame(frame.data(), n, 1024, &len), FrameStatus::kNeedMore)
        << "truncated to " << n << " bytes";
  }
  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    std::string bytes = frame;
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    EXPECT_NE(read_frame(bytes.data(), bytes.size(), 1024, &len),
              FrameStatus::kOk)
        << "flip of bit " << bit;
  }
  // A length over the cap is damage, not a prefix to wait on.
  EXPECT_EQ(read_frame(frame.data(), 4, payload.size() - 1, &len),
            FrameStatus::kBad);
}

// ---- bulk little-endian helpers (util/bytes.h) -------------------------------

// The byte-loop definitions of the little-endian encoding: byte i holds
// bits [8i, 8i + 8) of the value.
std::string le_bytes(std::uint64_t v, int width) {
  std::string out;
  for (int i = 0; i < width; ++i) {
    out.push_back(static_cast<char>(static_cast<unsigned char>(v >> (8 * i))));
  }
  return out;
}

std::uint64_t le_value(const std::string& bytes, std::size_t at, int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(bytes[at + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  return v;
}

// Every bit position alone, every all-ones prefix, the extremes and a
// random sweep.
std::vector<std::uint64_t> sweep_values() {
  std::vector<std::uint64_t> vs = {0, 1, 0xFFu, 0x100u, 0xFFFFFFFFu,
                                   0x100000000ULL, 0xFFFFFFFFFFFFFFFFULL,
                                   0x0123456789ABCDEFULL};
  for (int b = 0; b < 64; ++b) {
    vs.push_back(std::uint64_t{1} << b);
    vs.push_back((std::uint64_t{1} << b) - 1);
  }
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) vs.push_back(rng.next());
  return vs;
}

TEST(Bytes, PutHelpersMatchTheByteLoopDefinition) {
  for (const std::uint64_t v : sweep_values()) {
    const auto v32 = static_cast<std::uint32_t>(v);
    std::string out = "prefix";
    clear::util::put_u32(&out, v32);
    clear::util::put_u64(&out, v);
    EXPECT_EQ(out, "prefix" + le_bytes(v32, 4) + le_bytes(v, 8)) << v;
    unsigned char raw[12];
    clear::util::store_u32(raw, v32);
    clear::util::store_u64(raw + 4, v);
    const std::string raw_s(reinterpret_cast<const char*>(raw), sizeof(raw));
    EXPECT_EQ(raw_s, le_bytes(v32, 4) + le_bytes(v, 8)) << v;
    EXPECT_EQ(clear::util::load_u32(raw), v32) << v;
    EXPECT_EQ(clear::util::load_u64(raw + 4), v) << v;
  }
}

TEST(Bytes, BlockWriterMatchesFieldByFieldAppends) {
  const std::vector<std::uint64_t> vs = sweep_values();
  std::string by_field = "head", by_block = "head";
  for (const std::uint64_t v : vs) {
    clear::util::put_u32(&by_field, static_cast<std::uint32_t>(v));
    clear::util::put_u64(&by_field, v);
  }
  {
    clear::util::BlockWriter block(&by_block, vs.size() * 12);
    for (const std::uint64_t v : vs) {
      block.u32(static_cast<std::uint32_t>(v));
      block.u64(v);
    }
  }
  EXPECT_EQ(by_block, by_field);
  // An empty block appends nothing.
  { clear::util::BlockWriter none(&by_block, 0); }
  EXPECT_EQ(by_block, by_field);
}

TEST(Bytes, BlockReaderMatchesTheByteLoopAndRefusesShortBlocks) {
  const std::vector<std::uint64_t> vs = sweep_values();
  std::string bytes;
  for (const std::uint64_t v : vs) bytes += le_bytes(v, 4) + le_bytes(v, 8);
  clear::util::ByteReader reader(bytes.data(), bytes.size());
  clear::util::ByteBlock block;
  // One byte too many is refused and consumes nothing.
  EXPECT_FALSE(reader.block(bytes.size() + 1, &block));
  EXPECT_EQ(reader.pos(), 0u);
  ASSERT_TRUE(reader.block(bytes.size(), &block));
  EXPECT_TRUE(reader.exhausted());
  for (std::size_t i = 0; i < vs.size(); ++i) {
    EXPECT_EQ(block.u32(), le_value(bytes, 12 * i, 4)) << i;
    EXPECT_EQ(block.u64(), le_value(bytes, 12 * i + 4, 8)) << i;
  }
  // Every split: a block claimed after k bytes holds the rest, and a
  // claim one byte longer than what is left fails.
  for (std::size_t k = 0; k <= 24; ++k) {
    clear::util::ByteReader r(bytes.data(), 24);
    std::uint32_t skip = 0;
    for (std::size_t i = 0; i + 4 <= k; i += 4) ASSERT_TRUE(r.u32(&skip));
    const std::size_t left = r.remaining();
    EXPECT_FALSE(r.block(left + 1, &block)) << k;
    EXPECT_TRUE(r.block(left, &block)) << k;
    EXPECT_TRUE(r.exhausted()) << k;
  }
  // The field readers agree with the block readers.
  clear::util::ByteReader fields(bytes.data(), bytes.size());
  for (std::size_t i = 0; i < vs.size(); ++i) {
    std::uint32_t a = 0;
    std::uint64_t b = 0;
    ASSERT_TRUE(fields.u32(&a));
    ASSERT_TRUE(fields.u64(&b));
    EXPECT_EQ(a, le_value(bytes, 12 * i, 4)) << i;
    EXPECT_EQ(b, le_value(bytes, 12 * i + 4, 8)) << i;
  }
  std::uint32_t past = 0;
  EXPECT_FALSE(fields.u32(&past));
}

TEST(Hash, SplitmixIsStable) {
  // Regression pin: deterministic noise sources (SP&R artifacts, placement
  // jitter) depend on these exact values.
  EXPECT_EQ(clear::util::splitmix64(0), 0xe220a8397b1dcdafULL);
}

TEST(Stats, RunningStatBasics) {
  clear::util::RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_NEAR(s.rel_stddev(), 2.138 / 5.0, 1e-3);
}

TEST(Stats, MarginOfErrorShrinksWithSamples) {
  const double m1 = clear::util::proportion_margin_of_error_95(50, 100);
  const double m2 = clear::util::proportion_margin_of_error_95(5000, 10000);
  EXPECT_GT(m1, m2);
  EXPECT_NEAR(m1, 0.098, 0.002);
}

TEST(Stats, WilsonIntervalContainsPointEstimate) {
  const auto iv = clear::util::wilson_interval_95(30, 100);
  EXPECT_LT(iv.lo, 0.3);
  EXPECT_GT(iv.hi, 0.3);
  EXPECT_GT(iv.lo, 0.2);
  EXPECT_LT(iv.hi, 0.4);
}

TEST(Stats, WilsonDegenerate) {
  const auto all = clear::util::wilson_interval_95(100, 100);
  EXPECT_GT(all.lo, 0.95);
  EXPECT_DOUBLE_EQ(all.hi, 1.0);
  const auto none = clear::util::wilson_interval_95(0, 100);
  EXPECT_DOUBLE_EQ(none.lo, 0.0);
  EXPECT_LT(none.hi, 0.05);
}

TEST(Stats, WelchDistinguishesSeparatedSamples) {
  std::vector<double> a = {1.0, 1.1, 0.9, 1.05, 0.95, 1.02, 0.98};
  std::vector<double> b = {2.0, 2.1, 1.9, 2.05, 1.95, 2.02, 1.98};
  EXPECT_LT(clear::util::welch_t_test_p_value(a, b), 1e-6);
}

TEST(Stats, WelchSameSampleHighP) {
  std::vector<double> a = {1.0, 1.2, 0.8, 1.1, 0.9};
  std::vector<double> b = {0.9, 1.1, 1.0, 1.2, 0.8};
  EXPECT_GT(clear::util::welch_t_test_p_value(a, b), 0.5);
}

TEST(Stats, NormalCdf) {
  EXPECT_NEAR(clear::util::normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(clear::util::normal_cdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(clear::util::normal_cdf(-1.96), 0.025, 1e-3);
}

TEST(Table, FormatsFactorsLikeThePaper) {
  using clear::util::TextTable;
  EXPECT_EQ(TextTable::factor(50.0), "50.0x");
  EXPECT_EQ(TextTable::factor(5568.9), "5,568.9x");
  EXPECT_EQ(TextTable::factor(1.2), "1.2x");
  EXPECT_EQ(TextTable::pct(2.1), "2.1%");
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  auto& pool = clear::util::ThreadPool::instance();
  std::vector<std::atomic<int>> hits(1000);
  pool.run(hits.size(), 4, [&](std::size_t i, unsigned worker_id) {
    EXPECT_TRUE(worker_id < pool.size() ||
                worker_id == clear::util::ThreadPool::kCallerSlot);
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, SurvivesRepeatedJobs) {
  // The pool is persistent: many back-to-back jobs must all complete.
  auto& pool = clear::util::ThreadPool::instance();
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.run(64, 3, [&](std::size_t i, unsigned) {
      sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 64 * 63 / 2);
  }
}

TEST(ThreadPool, GrowingAfterCompletedJobsIsSafe) {
  // Regression: workers spawned by a later, wider run() must not adopt an
  // already-completed job generation (that caused a spurious worker-count
  // decrement, letting run() return while a worker still executed fn).
  clear::util::ThreadPool pool(2);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> hits(300);
    pool.run(hits.size(), 2, [&](std::size_t i, unsigned) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    // Wider than the pool: forces grow() between jobs.
    pool.run(hits.size(), 4 + static_cast<unsigned>(round % 3),
             [&](std::size_t i, unsigned) {
               hits[i].fetch_add(1, std::memory_order_relaxed);
             });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 2) << "round " << round << " index " << i;
    }
  }
}

TEST(ThreadPool, RethrowsFirstWorkerException) {
  auto& pool = clear::util::ThreadPool::instance();
  EXPECT_THROW(
      pool.run(200, 4,
               [](std::size_t i, unsigned) {
                 if (i == 37) throw std::runtime_error("worker 37 failed");
               }),
      std::runtime_error);
  // The pool must remain usable after a failed job.
  std::atomic<int> count{0};
  pool.run(10, 4, [&](std::size_t, unsigned) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, InlinePathAlsoThrows) {
  auto& pool = clear::util::ThreadPool::instance();
  EXPECT_THROW(pool.run(3, 1,
                        [](std::size_t i, unsigned worker_id) {
                          EXPECT_EQ(worker_id,
                                    clear::util::ThreadPool::kCallerSlot);
                          if (i == 2) throw std::runtime_error("inline");
                        }),
               std::runtime_error);
}

TEST(ParallelFor, RunsAllAndPropagatesExceptions) {
  std::vector<std::atomic<int>> hits(256);
  clear::util::parallel_for(
      hits.size(),
      [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); },
      4);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
  EXPECT_THROW(clear::util::parallel_for(
                   100,
                   [](std::size_t i) {
                     if (i == 50) throw std::logic_error("boom");
                   },
                   4),
               std::logic_error);
}

TEST(Table, RendersAlignedGrid) {
  clear::util::TextTable t({"Core", "FFs"});
  t.add_row({"InO", "1250"});
  t.add_row({"OoO", "13819"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| Core |"), std::string::npos);
  EXPECT_NE(s.find("13819"), std::string::npos);
}

}  // namespace
