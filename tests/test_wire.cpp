// Wire-format (.csr) tests: encode/decode round trips, the tolerant
// loader against truncation at every byte boundary and seeded byte flips,
// version-mismatch rejection, merge identity checks, and the running
// (one shard at a time) fold against one n-ary merge.  The
// multi-process `clear run` / `clear merge` end-to-end test lives in
// tests/test_cli.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "inject/wire.h"
#include "isa/assembler.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace {

using namespace clear;

// A deterministic synthetic shard: small enough that exhaustive
// truncation is instant, irregular enough that every field matters.
inject::ShardFile sample_shard() {
  inject::ShardFile s;
  s.core_name = "InO";
  s.key = "test/wire/sample";
  s.program_hash = 0x0123456789ABCDEFULL;
  s.injections = 1234;
  s.seed = 99;
  s.shard_count = 7;
  s.covered = {1, 4, 6};
  s.result.ff_count = 5;
  s.result.nominal_cycles = 4321;
  s.result.nominal_instrs = 2100;
  s.result.per_ff.assign(5, {});
  for (std::uint32_t f = 0; f < 5; ++f) {
    auto& c = s.result.per_ff[f];
    c.vanished = 10 + f;
    c.omm = f;
    c.ut = 2 * f;
    c.hang = f % 2;
    c.ed = f % 3;
    c.recovered = 7 - f;
    s.result.totals.merge(c);
  }
  return s;
}

void expect_equal(const inject::ShardFile& a, const inject::ShardFile& b) {
  EXPECT_EQ(a.core_name, b.core_name);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.program_hash, b.program_hash);
  EXPECT_EQ(a.injections, b.injections);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.shard_count, b.shard_count);
  EXPECT_EQ(a.covered, b.covered);
  EXPECT_EQ(a.result.ff_count, b.result.ff_count);
  EXPECT_EQ(a.result.nominal_cycles, b.result.nominal_cycles);
  EXPECT_EQ(a.result.nominal_instrs, b.result.nominal_instrs);
  EXPECT_EQ(a.result.totals.total(), b.result.totals.total());
  ASSERT_EQ(a.result.per_ff.size(), b.result.per_ff.size());
  for (std::size_t f = 0; f < a.result.per_ff.size(); ++f) {
    EXPECT_EQ(a.result.per_ff[f].vanished, b.result.per_ff[f].vanished) << f;
    EXPECT_EQ(a.result.per_ff[f].omm, b.result.per_ff[f].omm) << f;
    EXPECT_EQ(a.result.per_ff[f].ut, b.result.per_ff[f].ut) << f;
    EXPECT_EQ(a.result.per_ff[f].hang, b.result.per_ff[f].hang) << f;
    EXPECT_EQ(a.result.per_ff[f].ed, b.result.per_ff[f].ed) << f;
    EXPECT_EQ(a.result.per_ff[f].recovered, b.result.per_ff[f].recovered)
        << f;
  }
}

TEST(Wire, EncodeDecodeRoundTrip) {
  const auto shard = sample_shard();
  const std::string bytes = inject::encode_shard(shard);
  EXPECT_EQ(bytes.size(),
            inject::kWireHeaderSize +
                (4 + 3) + (4 + 16) + 8 + 8 + 8 + 4 + 4 + 3 * 4 + 4 + 8 + 8 +
                5 * 6 * 4);
  inject::ShardFile out;
  ASSERT_EQ(inject::decode_shard(bytes, &out), inject::WireStatus::kOk);
  expect_equal(shard, out);
  // Totals are recomputed, not stored.
  EXPECT_EQ(out.result.totals.total(), shard.result.totals.total());
  EXPECT_FALSE(out.complete());
}

TEST(Wire, FileRoundTripIsAtomic) {
  const std::string path = "wire_roundtrip.csr";
  const auto shard = sample_shard();
  inject::write_shard_file(path, shard);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  inject::ShardFile out;
  ASSERT_EQ(inject::load_shard_file(path, &out), inject::WireStatus::kOk);
  expect_equal(shard, out);
  std::filesystem::remove(path);
}

TEST(Wire, MissingFileIsTruncated) {
  inject::ShardFile out;
  EXPECT_EQ(inject::load_shard_file("does_not_exist.csr", &out),
            inject::WireStatus::kTruncated);
}

TEST(Wire, TruncationAtEveryByteBoundaryIsDetected) {
  const std::string bytes = inject::encode_shard(sample_shard());
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    inject::ShardFile out;
    out.core_name = "sentinel";
    const auto st = inject::decode_shard(bytes.substr(0, n), &out);
    EXPECT_NE(st, inject::WireStatus::kOk) << "prefix length " << n;
    EXPECT_EQ(out.core_name, "sentinel") << "output touched at " << n;
  }
}

TEST(Wire, EveryByteFlipIsDetected) {
  // Single-bit damage anywhere in the file must be caught: the header
  // checksum covers bytes [0, 24), the header checksum field itself
  // breaks by definition, and the body checksum covers the rest.
  const std::string bytes = inject::encode_shard(sample_shard());
  util::Rng rng(2024);
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string damaged = bytes;
    damaged[pos] = static_cast<char>(
        static_cast<unsigned char>(damaged[pos]) ^
        (1u << rng.below(8)));
    inject::ShardFile out;
    EXPECT_NE(inject::decode_shard(damaged, &out), inject::WireStatus::kOk)
        << "flip at byte " << pos;
  }
}

TEST(Wire, RandomGarbageNeverDecodes) {
  util::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage(rng.below(512), '\0');
    for (auto& c : garbage) c = static_cast<char>(rng.below(256));
    inject::ShardFile out;
    EXPECT_NE(inject::decode_shard(garbage, &out), inject::WireStatus::kOk);
  }
}

TEST(Wire, TrailingGarbageIsCorrupt) {
  std::string bytes = inject::encode_shard(sample_shard());
  bytes += "extra";
  inject::ShardFile out;
  EXPECT_EQ(inject::decode_shard(bytes, &out), inject::WireStatus::kCorrupt);
}

TEST(Wire, BadMagicIsReportedAsSuch) {
  std::string bytes = inject::encode_shard(sample_shard());
  bytes[0] = 'X';
  inject::ShardFile out;
  EXPECT_EQ(inject::decode_shard(bytes, &out), inject::WireStatus::kBadMagic);
}

TEST(Wire, NewerVersionIsRejectedNotMisparsed) {
  // A file stamped with a future format version but otherwise intact
  // (checksums re-computed, as a newer writer would) must be refused with
  // kVersionUnsupported -- never parsed with today's body layout.
  std::string bytes = inject::encode_shard(sample_shard());
  bytes[4] = static_cast<char>(inject::kWireVersion + 1);
  const std::uint64_t header_sum = inject::fnv1a64(bytes.data(), 24);
  for (int i = 0; i < 8; ++i) {
    bytes[24 + i] = static_cast<char>(
        static_cast<unsigned char>(header_sum >> (8 * i)));
  }
  inject::ShardFile out;
  EXPECT_EQ(inject::decode_shard(bytes, &out),
            inject::WireStatus::kVersionUnsupported);
  // Without the checksum re-stamp the same edit is just corruption.
  std::string torn = inject::encode_shard(sample_shard());
  torn[4] = static_cast<char>(inject::kWireVersion + 1);
  EXPECT_EQ(inject::decode_shard(torn, &out), inject::WireStatus::kCorrupt);
}

// ---- version-2 adaptive files ----------------------------------------------

// The sample shard promoted to an adaptive result: target +/-0.05 via
// Clopper-Pearson, pilot 32, an irregular per-FF plan that covers every
// counter (planned[f] >= per_ff[f].total(), sum <= injections).
inject::ShardFile adaptive_shard() {
  auto s = sample_shard();
  s.result.confidence_target = 0.05;
  s.result.confidence_method = clear::util::IntervalMethod::kClopperPearson;
  s.result.pilot = 32;
  s.result.planned = {40, 64, 100, 64, 60};
  return s;
}

void expect_equal_adaptive(const inject::ShardFile& a,
                           const inject::ShardFile& b) {
  expect_equal(a, b);
  EXPECT_EQ(a.result.adaptive(), b.result.adaptive());
  EXPECT_EQ(inject::fnv1a64(&a.result.confidence_target, 8),
            inject::fnv1a64(&b.result.confidence_target, 8));
  EXPECT_EQ(a.result.confidence_method, b.result.confidence_method);
  EXPECT_EQ(a.result.pilot, b.result.pilot);
  EXPECT_EQ(a.result.planned, b.result.planned);
}

// Size of the version-2 adaptive tail for the 5-FF fixture: method u32,
// target u64, pilot u64, 5x planned u64, executed u64, 4x interval u64.
constexpr std::size_t kAdaptiveTail = 4 + 8 + 8 + 5 * 8 + 8 + 4 * 8;

// Re-stamps both checksums after a test mutated the bytes, exactly like
// a (buggy or malicious) writer would, so decode exercises the field
// validation rather than the checksum.
void restamp(std::string* bytes) {
  const std::uint64_t body_sum =
      inject::fnv1a64(bytes->data() + 32, bytes->size() - 32);
  for (int i = 0; i < 8; ++i) {
    (*bytes)[16 + i] =
        static_cast<char>(static_cast<unsigned char>(body_sum >> (8 * i)));
  }
  const std::uint64_t header_sum = inject::fnv1a64(bytes->data(), 24);
  for (int i = 0; i < 8; ++i) {
    (*bytes)[24 + i] =
        static_cast<char>(static_cast<unsigned char>(header_sum >> (8 * i)));
  }
}

void poke_u64(std::string* bytes, std::size_t off, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[off + i] = static_cast<char>(static_cast<unsigned char>(v >> (8 * i)));
  }
}

std::uint64_t bits_of(double d) {
  std::uint64_t b = 0;
  static_assert(sizeof(b) == sizeof(d));
  __builtin_memcpy(&b, &d, sizeof(b));
  return b;
}

TEST(WireAdaptive, VersionStampIsOldestRepresentable) {
  // Fixed-budget results still travel as version 1 -- pre-adaptive
  // readers keep working -- while adaptive results get version 2.
  const std::string v1 = inject::encode_shard(sample_shard());
  EXPECT_EQ(static_cast<unsigned char>(v1[4]), 1u);
  const std::string v2 = inject::encode_shard(adaptive_shard());
  EXPECT_EQ(static_cast<unsigned char>(v2[4]), 2u);
  EXPECT_EQ(v2.size(), v1.size() + kAdaptiveTail);
}

TEST(WireAdaptive, RoundTripPreservesPlanAndIntervals) {
  const auto shard = adaptive_shard();
  const std::string bytes = inject::encode_shard(shard);
  inject::ShardFile out;
  ASSERT_EQ(inject::decode_shard(bytes, &out), inject::WireStatus::kOk);
  expect_equal_adaptive(shard, out);
  EXPECT_TRUE(out.result.adaptive());
  EXPECT_EQ(out.result.samples_executed(), shard.result.totals.total());
  // The achieved intervals are recomputed from the decoded counters and
  // must match what the writer derived.
  const auto a = shard.result.sdc_interval(), b = out.result.sdc_interval();
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
}

TEST(WireAdaptive, TruncationAtEveryByteBoundaryIsDetected) {
  const std::string bytes = inject::encode_shard(adaptive_shard());
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    inject::ShardFile out;
    out.core_name = "sentinel";
    EXPECT_NE(inject::decode_shard(bytes.substr(0, n), &out),
              inject::WireStatus::kOk)
        << "prefix length " << n;
    EXPECT_EQ(out.core_name, "sentinel") << "output touched at " << n;
  }
}

TEST(WireAdaptive, EveryByteFlipIsDetected) {
  const std::string bytes = inject::encode_shard(adaptive_shard());
  util::Rng rng(2025);
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string damaged = bytes;
    damaged[pos] = static_cast<char>(
        static_cast<unsigned char>(damaged[pos]) ^ (1u << rng.below(8)));
    inject::ShardFile out;
    EXPECT_NE(inject::decode_shard(damaged, &out), inject::WireStatus::kOk)
        << "flip at byte " << pos;
  }
}

TEST(WireAdaptive, RestampedAsVersion1IsCorruptNotMisparsed) {
  // An adaptive body re-labelled as version 1 parses the v1 prefix fine
  // and must then choke on the 100 trailing adaptive bytes -- never
  // silently drop the plan.
  std::string bytes = inject::encode_shard(adaptive_shard());
  bytes[4] = 1;
  restamp(&bytes);
  inject::ShardFile out;
  EXPECT_EQ(inject::decode_shard(bytes, &out), inject::WireStatus::kCorrupt);
}

TEST(WireAdaptive, ImplausibleAdaptiveFieldsAreCorrupt) {
  const std::string good = inject::encode_shard(adaptive_shard());
  const std::size_t end = good.size();
  // Offsets of the adaptive tail fields, counted from the end of file.
  const std::size_t method_off = end - kAdaptiveTail;
  const std::size_t target_off = method_off + 4;
  const std::size_t pilot_off = target_off + 8;
  const std::size_t planned_off = pilot_off + 8;
  const std::size_t executed_off = planned_off + 5 * 8;
  const std::size_t interval_off = executed_off + 8;

  const auto expect_corrupt = [&](const std::string& label,
                                  std::size_t off, std::uint64_t v,
                                  bool u32 = false) {
    std::string bad = good;
    if (u32) {
      for (int i = 0; i < 4; ++i) {
        bad[off + i] = static_cast<char>(static_cast<unsigned char>(v >> (8 * i)));
      }
    } else {
      poke_u64(&bad, off, v);
    }
    restamp(&bad);
    inject::ShardFile out;
    EXPECT_EQ(inject::decode_shard(bad, &out), inject::WireStatus::kCorrupt)
        << label;
  };

  expect_corrupt("unknown interval method", method_off, 7, true);
  expect_corrupt("zero confidence target", target_off, bits_of(0.0));
  expect_corrupt("target above 0.5", target_off, bits_of(0.7));
  expect_corrupt("NaN target", target_off, bits_of(0.0 / 0.0));
  expect_corrupt("pilot above the budget", pilot_off, 1235);
  // planned[1] below the shard's own counters for that FF (total 22).
  expect_corrupt("plan below observed counters", planned_off + 8, 10);
  // planned[2] large enough that the plan exceeds the global budget.
  expect_corrupt("plan above the budget", planned_off + 2 * 8, 2000);
  // planned[1] so large that the running plan sum wraps past 2^64 back
  // under the budget (40 + (2^64 - 40) == 0 mod 2^64).
  expect_corrupt("plan sum wrapping past 2^64", planned_off + 8,
                 0 - std::uint64_t{40});
  // Executed count disagreeing with the recomputed counter total (121).
  expect_corrupt("executed-count mismatch", executed_off, 122);
  // Achieved intervals outside [0, 1] or inverted.
  expect_corrupt("interval hi above 1", interval_off + 8, bits_of(1.5));
  expect_corrupt("interval lo below 0", interval_off, bits_of(-0.1));
  expect_corrupt("inverted interval", interval_off, bits_of(0.99));
  // The unmodified bytes still decode: the harness above is sound.
  inject::ShardFile out;
  EXPECT_EQ(inject::decode_shard(good, &out), inject::WireStatus::kOk);
}

TEST(WireAdaptive, MergeSumsMixedPerFfCountsUnderOnePlan) {
  // Two shards of one adaptive campaign with different per-FF counters
  // (different owned sample sets) but the identical plan.
  auto a = adaptive_shard();
  a.covered = {1};
  auto b = adaptive_shard();
  b.covered = {4};
  b.result.totals = {};
  for (std::uint32_t f = 0; f < 5; ++f) {
    auto& c = b.result.per_ff[f];
    c.vanished = 3 + f;
    c.omm = (f + 1) % 3;
    c.ut = f / 2;
    c.hang = 0;
    c.ed = 1;
    c.recovered = 2;
    b.result.totals.merge(c);
  }
  const auto merged = inject::merge_shard_files({a, b});
  EXPECT_TRUE(merged.result.adaptive());
  EXPECT_EQ(merged.result.pilot, 32u);
  EXPECT_EQ(merged.result.planned, a.result.planned);
  EXPECT_EQ(merged.result.totals.total(),
            a.result.totals.total() + b.result.totals.total());
  for (std::uint32_t f = 0; f < 5; ++f) {
    EXPECT_EQ(merged.result.per_ff[f].omm,
              a.result.per_ff[f].omm + b.result.per_ff[f].omm)
        << f;
  }
  // And the merged file still encodes/decodes as version 2.
  const std::string bytes = inject::encode_shard(merged);
  EXPECT_EQ(static_cast<unsigned char>(bytes[4]), 2u);
  inject::ShardFile out;
  ASSERT_EQ(inject::decode_shard(bytes, &out), inject::WireStatus::kOk);
  expect_equal_adaptive(merged, out);
}

TEST(WireAdaptive, MergeRefusesPlanAndAdaptivityMismatches) {
  auto base = adaptive_shard();
  base.covered = {0};
  auto other = adaptive_shard();
  other.covered = {1};

  // A fixed-budget shard never folds into an adaptive merge.
  auto fixed = sample_shard();
  fixed.covered = {1};
  EXPECT_THROW((void)inject::merge_shard_files({base, fixed}),
               std::invalid_argument);

  auto wrong = other;
  wrong.result.confidence_target = 0.06;
  EXPECT_THROW((void)inject::merge_shard_files({base, wrong}),
               std::invalid_argument);
  wrong = other;
  wrong.result.confidence_method = clear::util::IntervalMethod::kWilson;
  EXPECT_THROW((void)inject::merge_shard_files({base, wrong}),
               std::invalid_argument);
  wrong = other;
  wrong.result.pilot = 64;
  EXPECT_THROW((void)inject::merge_shard_files({base, wrong}),
               std::invalid_argument);
  wrong = other;
  wrong.result.planned[3] = 33;
  EXPECT_THROW((void)inject::merge_shard_files({base, wrong}),
               std::invalid_argument);
  // The untouched counterpart still merges.
  EXPECT_NO_THROW((void)inject::merge_shard_files({base, other}));
}

TEST(Wire, ProgramHashIsStableAndDiscriminates) {
  const auto mcf = isa::assemble(workloads::build_benchmark("mcf"));
  const auto gcc = isa::assemble(workloads::build_benchmark("gcc"));
  EXPECT_EQ(inject::wire_program_hash(mcf), inject::wire_program_hash(mcf));
  EXPECT_NE(inject::wire_program_hash(mcf), inject::wire_program_hash(gcc));
}

// ---- merge identity --------------------------------------------------------

TEST(WireMerge, UnionsDisjointCoverage) {
  auto a = sample_shard();
  a.covered = {0, 2};
  auto b = sample_shard();
  b.covered = {1, 5};
  const auto merged = inject::merge_shard_files({a, b});
  EXPECT_EQ(merged.covered, (std::vector<std::uint32_t>{0, 1, 2, 5}));
  EXPECT_FALSE(merged.complete());
  EXPECT_EQ(merged.result.totals.total(),
            a.result.totals.total() + b.result.totals.total());
}

TEST(WireMerge, CompleteUnionReportsComplete) {
  std::vector<inject::ShardFile> parts;
  for (std::uint32_t k = 0; k < 7; ++k) {
    auto s = sample_shard();
    s.covered = {k};
    parts.push_back(std::move(s));
  }
  const auto merged = inject::merge_shard_files(parts);
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(merged.covered.size(), 7u);
}

// A 5-shard partition of the sample campaign (fixed-budget, or the
// adaptive variant), each shard with counters of its own so that a fold
// which dropped or doubled one would show; per-FF sums stay within the
// adaptive plan.
std::vector<inject::ShardFile> five_shard_partition(bool adaptive) {
  std::vector<inject::ShardFile> parts;
  for (std::uint32_t k = 0; k < 5; ++k) {
    auto s = adaptive ? adaptive_shard() : sample_shard();
    s.shard_count = 5;
    s.covered = {k};
    s.result.totals = {};
    for (std::uint32_t f = 0; f < 5; ++f) {
      auto& c = s.result.per_ff[f];
      c = {};
      c.vanished = 1 + (k + f) % 3;
      c.omm = k % 2;
      c.ut = f % 2;
      c.ed = k == f ? 1 : 0;
      c.recovered = 1;
      s.result.totals.merge(c);
    }
    parts.push_back(std::move(s));
  }
  return parts;
}

// Whether folding `again` into `running` is refused as double coverage,
// leaving `running` as it was.
bool covered_twice(inject::ShardFile* running,
                   const inject::ShardFile& again) {
  const std::string before = inject::encode_shard(*running);
  try {
    inject::fold_shard(running, again);
  } catch (const std::invalid_argument& e) {
    return std::string(e.what()).find("covered twice") != std::string::npos &&
           inject::encode_shard(*running) == before;
  }
  return false;
}

// The fleet driver folds each arriving shard into one running merge in
// place; in every arrival order that must encode to exactly the bytes of
// one n-ary merge, and re-folding a shard the running merge already
// covers must be refused without touching it.  Two starting points: a
// one-shard merge, and the empty merge (a default-constructed target,
// which takes the first arrival's identity and, folded once, encodes to
// that arrival's own bytes).
TEST(WireMerge, RunningFoldMatchesOneMergeInEveryArrivalOrder) {
  for (const bool adaptive : {false, true}) {
    const auto parts = five_shard_partition(adaptive);
    const std::string expected =
        inject::encode_shard(inject::merge_shard_files(parts));
    EXPECT_EQ(static_cast<unsigned char>(expected[4]), adaptive ? 2u : 1u);
    std::vector<std::size_t> order = {0, 1, 2, 3, 4};
    do {
      inject::ShardFile from_empty;
      inject::fold_shard(&from_empty, parts[order[0]]);
      EXPECT_EQ(inject::encode_shard(from_empty),
                inject::encode_shard(parts[order[0]]));
      for (auto running :
           {inject::merge_shard_files({parts[order[0]]}), from_empty}) {
        for (std::size_t j = 1; j < order.size(); ++j) {
          inject::fold_shard(&running, parts[order[j]]);
          EXPECT_TRUE(covered_twice(&running, parts[order[j - 1]]));
        }
        EXPECT_TRUE(running.complete());
        EXPECT_EQ(inject::encode_shard(running), expected)
            << (adaptive ? "v2" : "v1") << " order " << order[0]
            << order[1] << order[2] << order[3] << order[4];
      }
    } while (std::next_permutation(order.begin(), order.end()));
  }
}

// A refused fold leaves the running merge exactly as it was, whichever
// check refuses it: identity, adaptivity, coverage or the counter fold's
// own ff_count / nominal-run checks.
TEST(WireMerge, RefusedFoldLeavesTheRunningMergeUntouched) {
  const auto parts = five_shard_partition(false);
  auto running = inject::merge_shard_files({parts[0], parts[1]});
  const std::string before = inject::encode_shard(running);
  std::vector<inject::ShardFile> bad(6, parts[2]);
  bad[0].seed += 1;
  bad[1].key += "x";
  bad[2] = five_shard_partition(true)[2];
  bad[3].covered = {1, 2};
  bad[4].result.nominal_cycles += 1;
  bad[5].result.ff_count = 4;
  bad[5].result.per_ff.resize(4);
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_THROW(inject::fold_shard(&running, bad[i]), std::invalid_argument)
        << i;
    EXPECT_EQ(inject::encode_shard(running), before) << i;
  }
  inject::fold_shard(&running, parts[2]);
  EXPECT_EQ(running.covered, (std::vector<std::uint32_t>{0, 1, 2}));
}

// ---- the one-pass encoder against the per-field writer ----------------------

// Little-endian appends written byte by byte, independent of util/bytes.h.
void oracle_u32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>(static_cast<unsigned char>(v >> (8 * i))));
  }
}

void oracle_u64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>(static_cast<unsigned char>(v >> (8 * i))));
  }
}

// encode_shard as it was first written: one append per field, then the
// sealed header in front (docs/FORMATS.md).
std::string oracle_encode_shard(const inject::ShardFile& shard) {
  std::string body;
  oracle_u32(&body, static_cast<std::uint32_t>(shard.core_name.size()));
  body += shard.core_name;
  oracle_u32(&body, static_cast<std::uint32_t>(shard.key.size()));
  body += shard.key;
  oracle_u64(&body, shard.program_hash);
  oracle_u64(&body, shard.injections);
  oracle_u64(&body, shard.seed);
  oracle_u32(&body, shard.shard_count);
  oracle_u32(&body, static_cast<std::uint32_t>(shard.covered.size()));
  for (const std::uint32_t s : shard.covered) oracle_u32(&body, s);
  const inject::CampaignResult& r = shard.result;
  oracle_u32(&body, r.ff_count);
  oracle_u64(&body, r.nominal_cycles);
  oracle_u64(&body, r.nominal_instrs);
  for (const inject::OutcomeCounts& c : r.per_ff) {
    oracle_u32(&body, c.vanished);
    oracle_u32(&body, c.omm);
    oracle_u32(&body, c.ut);
    oracle_u32(&body, c.hang);
    oracle_u32(&body, c.ed);
    oracle_u32(&body, c.recovered);
  }
  if (r.adaptive()) {
    oracle_u32(&body, static_cast<std::uint32_t>(r.confidence_method));
    oracle_u64(&body, bits_of(r.confidence_target));
    oracle_u64(&body, r.pilot);
    for (const std::uint64_t n : r.planned) oracle_u64(&body, n);
    oracle_u64(&body, r.samples_executed());
    const util::Interval sdc = r.sdc_interval();
    const util::Interval due = r.due_interval();
    oracle_u64(&body, bits_of(sdc.lo));
    oracle_u64(&body, bits_of(sdc.hi));
    oracle_u64(&body, bits_of(due.lo));
    oracle_u64(&body, bits_of(due.hi));
  }
  std::string out = "CSR1";
  oracle_u32(&out, r.adaptive() ? 2 : 1);
  oracle_u64(&out, body.size());
  oracle_u64(&out, inject::fnv1a64(body.data(), body.size()));
  oracle_u64(&out, inject::fnv1a64(out.data(), 24));
  return out + body;
}

// Randomized shards, fixed and adaptive: all-zero rows, rows at
// UINT32_MAX, planned counts at UINT64_MAX.  The encoder must match the
// per-field writer byte for byte, and whatever decodes must re-encode to
// the same bytes.
TEST(Wire, OnePassEncoderMatchesThePerFieldOracleOnRandomShards) {
  util::Rng rng(20261018);
  const auto pick_u64 = [&rng] {
    switch (rng.below(4)) {
      case 0: return std::uint64_t{18446744073709551615ULL};
      case 1: return rng.below(100);
      case 2: return std::uint64_t{0};
      default: return rng.next();
    }
  };
  const auto pick_count = [&rng] {
    switch (rng.below(8)) {
      case 0: return std::uint32_t{4294967295u};
      case 1: return static_cast<std::uint32_t>(rng.next());
      case 2:
      case 3: return static_cast<std::uint32_t>(rng.below(1000));
      default: return std::uint32_t{0};
    }
  };
  int decoded = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const bool adaptive = trial % 2 == 1;
    const int shape = trial % 6;  // 0: all rows zero, 1: all rows at max
    inject::ShardFile s;
    s.core_name = rng.below(2) ? "InO" : "OoO";
    s.key = std::string(rng.below(40), static_cast<char>('a' + rng.below(26)));
    s.program_hash = rng.next();
    s.injections = shape == 1 ? 18446744073709551615ULL : pick_u64();
    s.seed = pick_u64();
    s.shard_count = 1 + static_cast<std::uint32_t>(rng.below(64));
    for (std::uint32_t k = 0; k < s.shard_count; ++k) {
      if (rng.below(3) == 0 || (k + 1 == s.shard_count && s.covered.empty())) {
        s.covered.push_back(k);
      }
    }
    inject::CampaignResult& r = s.result;
    r.ff_count = 1 + static_cast<std::uint32_t>(rng.below(300));
    r.nominal_cycles = pick_u64();
    r.nominal_instrs = pick_u64();
    r.per_ff.resize(r.ff_count);
    for (auto& c : r.per_ff) {
      if (shape == 0) continue;
      if (shape == 1) {
        c = {4294967295u, 4294967295u, 4294967295u, 4294967295u,
             4294967295u, 4294967295u};
        continue;
      }
      c = {pick_count(), pick_count(), pick_count(),
           pick_count(), pick_count(), pick_count()};
    }
    for (const auto& c : r.per_ff) r.totals.merge(c);
    if (adaptive) {
      r.confidence_target = std::ldexp(static_cast<double>(1 + rng.below(1000)),
                                       -11);  // (0, 0.5]
      r.confidence_method = rng.below(2)
                                ? util::IntervalMethod::kWilson
                                : util::IntervalMethod::kClopperPearson;
      r.pilot = pick_u64();
      r.planned.resize(r.ff_count);
      for (std::uint64_t& n : r.planned) {
        n = shape == 1 ? 18446744073709551615ULL : pick_u64();
      }
    }
    const std::string bytes = inject::encode_shard(s);
    ASSERT_EQ(bytes, oracle_encode_shard(s)) << "trial " << trial;
    inject::ShardFile back;
    if (inject::decode_shard(bytes, &back) == inject::WireStatus::kOk) {
      ++decoded;
      EXPECT_EQ(inject::encode_shard(back), bytes) << "trial " << trial;
    }
  }
  EXPECT_GT(decoded, 50);  // the fixed shards always decode
}

TEST(WireMerge, RefusesIdentityMismatches) {
  const auto base = [] {
    auto s = sample_shard();
    s.covered = {0};
    return s;
  }();
  auto other = base;
  other.covered = {1};

  auto wrong = other;
  wrong.seed = 100;
  EXPECT_THROW((void)inject::merge_shard_files({base, wrong}),
               std::invalid_argument);
  wrong = other;
  wrong.program_hash ^= 1;
  EXPECT_THROW((void)inject::merge_shard_files({base, wrong}),
               std::invalid_argument);
  wrong = other;
  wrong.core_name = "OoO";
  EXPECT_THROW((void)inject::merge_shard_files({base, wrong}),
               std::invalid_argument);
  wrong = other;
  wrong.injections = 4;
  EXPECT_THROW((void)inject::merge_shard_files({base, wrong}),
               std::invalid_argument);
  wrong = other;
  wrong.shard_count = 3;
  wrong.covered = {1};
  EXPECT_THROW((void)inject::merge_shard_files({base, wrong}),
               std::invalid_argument);
  // Double coverage: same shard folded twice.
  EXPECT_THROW((void)inject::merge_shard_files({base, base}),
               std::invalid_argument);
  EXPECT_THROW((void)inject::merge_shard_files({}), std::invalid_argument);
  // The valid counterpart still merges.
  EXPECT_NO_THROW((void)inject::merge_shard_files({base, other}));
}

}  // namespace
