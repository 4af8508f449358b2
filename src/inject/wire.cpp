#include "inject/wire.h"

#include <stdexcept>

#include "util/bytes.h"
#include "util/fs.h"
#include "util/sealed.h"

namespace clear::inject {

namespace {

constexpr unsigned char kMagic[4] = {'C', 'S', 'R', '1'};

// Sanity bounds: a header that passes its checksum but declares sizes
// beyond these is treated as corrupt rather than allocated for.
constexpr std::uint64_t kMaxBodyLen = 1ULL << 30;
constexpr std::uint32_t kMaxFfCount = 1u << 24;
constexpr std::uint32_t kMaxShardCount = 1u << 20;

using util::put_str;
using util::put_u32;
using util::put_u64;

// Doubles travel as their IEEE-754 bits (util::f64_bits): the confidence
// target is an identity field, and a decimal round-trip could make two
// shards of the same campaign disagree about it.
using util::bits_f64;
using util::f64_bits;

}  // namespace

const char* wire_status_name(WireStatus s) noexcept {
  switch (s) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kBadMagic: return "bad magic (not a .csr file)";
    case WireStatus::kVersionUnsupported: return "unsupported wire version";
    case WireStatus::kTruncated: return "truncated";
    case WireStatus::kCorrupt: return "corrupt (checksum mismatch)";
  }
  return "?";
}

std::uint64_t wire_program_hash(const isa::Program& prog) noexcept {
  std::uint64_t h = fnv1a64(nullptr, 0);
  const auto mix_words = [&h](const std::vector<std::uint32_t>& words) {
    for (const std::uint32_t w : words) {
      unsigned char le[4];
      for (int i = 0; i < 4; ++i) le[i] = static_cast<unsigned char>(w >> (8 * i));
      h = fnv1a64(le, 4, h);
    }
  };
  mix_words(prog.code);
  mix_words(prog.data);
  return h;
}

std::string encode_shard(const ShardFile& shard) {
  const CampaignResult& r = shard.result;
  constexpr std::size_t kCountsBytes = 6 * 4;  // one OutcomeCounts row
  constexpr std::size_t kAdaptiveFixedBytes = 4 + 8 + 8 + 8 + 4 * 8;
  std::string body;
  body.reserve(4 + shard.core_name.size() + 4 + shard.key.size() + 3 * 8 +
               2 * 4 + 4 * shard.covered.size() + 4 + 2 * 8 +
               kCountsBytes * r.per_ff.size() +
               (r.adaptive() ? kAdaptiveFixedBytes + 8 * r.planned.size()
                             : 0));
  put_str(&body, shard.core_name);
  put_str(&body, shard.key);
  put_u64(&body, shard.program_hash);
  put_u64(&body, shard.injections);
  put_u64(&body, shard.seed);
  put_u32(&body, shard.shard_count);
  put_u32(&body, static_cast<std::uint32_t>(shard.covered.size()));
  for (const std::uint32_t s : shard.covered) put_u32(&body, s);
  put_u32(&body, r.ff_count);
  put_u64(&body, r.nominal_cycles);
  put_u64(&body, r.nominal_instrs);
  {
    util::BlockWriter counts(&body, kCountsBytes * r.per_ff.size());
    for (const OutcomeCounts& c : r.per_ff) {
      counts.u32(c.vanished);
      counts.u32(c.omm);
      counts.u32(c.ut);
      counts.u32(c.hang);
      counts.u32(c.ed);
      counts.u32(c.recovered);
    }
  }
  const std::uint32_t version = r.adaptive() ? 2 : 1;
  if (r.adaptive()) {
    // Version-2 adaptive block.  The plan is identity (every shard derives
    // the same one); executed count and achieved intervals describe THIS
    // file's covered shards and are recomputed from counters on merge.
    put_u32(&body, static_cast<std::uint32_t>(r.confidence_method));
    put_u64(&body, f64_bits(r.confidence_target));
    put_u64(&body, r.pilot);
    {
      util::BlockWriter planned(&body, 8 * r.planned.size());
      for (const std::uint64_t n : r.planned) planned.u64(n);
    }
    put_u64(&body, r.samples_executed());
    const util::Interval sdc = r.sdc_interval();
    const util::Interval due = r.due_interval();
    put_u64(&body, f64_bits(sdc.lo));
    put_u64(&body, f64_bits(sdc.hi));
    put_u64(&body, f64_bits(due.lo));
    put_u64(&body, f64_bits(due.hi));
  }

  return util::seal(kMagic, version, body);
}

WireStatus decode_shard(const std::string& bytes, ShardFile* out) {
  std::uint32_t version = 0;
  std::uint64_t body_len = 0;
  const util::SealStatus sealed = util::unseal(bytes, kMagic, kWireVersion,
                                               kMaxBodyLen, &version,
                                               &body_len);
  if (sealed != util::SealStatus::kOk) {
    return util::status_as<WireStatus>(sealed);
  }
  if (bytes.size() > kWireHeaderSize + body_len) return WireStatus::kCorrupt;
  const unsigned char* p = util::byte_ptr(bytes);

  ShardFile s;
  // Bounded reads: a damaged length field can never walk out of the
  // buffer, even on crafted bytes that pass the checksum.
  util::ByteReader body(p + kWireHeaderSize,
                        static_cast<std::size_t>(body_len));
  std::uint32_t covered_count = 0, ff_count = 0;
  if (!body.str(&s.core_name) || !body.str(&s.key) ||
      !body.u64(&s.program_hash) || !body.u64(&s.injections) ||
      !body.u64(&s.seed) || !body.u32(&s.shard_count) ||
      !body.u32(&covered_count)) {
    return WireStatus::kCorrupt;
  }
  if (s.shard_count == 0 || s.shard_count > kMaxShardCount ||
      covered_count == 0 || covered_count > s.shard_count) {
    return WireStatus::kCorrupt;
  }
  s.covered.resize(covered_count);
  std::uint32_t prev = 0;
  for (std::uint32_t i = 0; i < covered_count; ++i) {
    if (!body.u32(&s.covered[i])) return WireStatus::kCorrupt;
    // Sorted + strictly increasing + bounded: canonical coverage sets only.
    if (s.covered[i] >= s.shard_count || (i > 0 && s.covered[i] <= prev)) {
      return WireStatus::kCorrupt;
    }
    prev = s.covered[i];
  }
  if (!body.u32(&ff_count) || ff_count == 0 || ff_count > kMaxFfCount ||
      !body.u64(&s.result.nominal_cycles) ||
      !body.u64(&s.result.nominal_instrs)) {
    return WireStatus::kCorrupt;
  }
  util::ByteBlock counts;
  if (!body.block(std::size_t{6} * 4 * ff_count, &counts)) {
    return WireStatus::kCorrupt;
  }
  s.result.ff_count = ff_count;
  s.result.per_ff.resize(ff_count);
  for (OutcomeCounts& c : s.result.per_ff) {
    c.vanished = counts.u32();
    c.omm = counts.u32();
    c.ut = counts.u32();
    c.hang = counts.u32();
    c.ed = counts.u32();
    c.recovered = counts.u32();
    s.result.totals.merge(c);
  }
  if (version >= 2) {
    // Adaptive block (version 2 is emitted for adaptive campaigns only).
    std::uint32_t method = 0;
    std::uint64_t target_bits = 0, executed = 0;
    std::uint64_t iv_bits[4] = {0, 0, 0, 0};
    if (!body.u32(&method) || !body.u64(&target_bits) ||
        !body.u64(&s.result.pilot)) {
      return WireStatus::kCorrupt;
    }
    if (method > 1) return WireStatus::kCorrupt;
    s.result.confidence_method = static_cast<util::IntervalMethod>(method);
    s.result.confidence_target = bits_f64(target_bits);
    // NaN fails both comparisons: fail closed on a garbage target.
    if (!(s.result.confidence_target > 0.0) ||
        !(s.result.confidence_target <= 0.5)) {
      return WireStatus::kCorrupt;
    }
    if (s.result.pilot > s.injections) return WireStatus::kCorrupt;
    util::ByteBlock planned;
    if (!body.block(std::size_t{8} * ff_count, &planned)) {
      return WireStatus::kCorrupt;
    }
    s.result.planned.resize(ff_count);
    std::uint64_t planned_sum = 0;
    for (std::uint32_t f = 0; f < ff_count; ++f) {
      s.result.planned[f] = planned.u64();
      // A shard can only own samples the plan executes: counters beyond
      // the per-FF plan mean the plan and the counters disagree.
      if (s.result.per_ff[f].total() > s.result.planned[f]) {
        return WireStatus::kCorrupt;
      }
      if (s.result.planned[f] > s.injections - planned_sum) {
        return WireStatus::kCorrupt;
      }
      planned_sum += s.result.planned[f];
    }
    if (!body.u64(&executed) || executed != s.result.totals.total()) {
      return WireStatus::kCorrupt;
    }
    for (auto& b : iv_bits) {
      if (!body.u64(&b)) return WireStatus::kCorrupt;
    }
    // The achieved intervals are derived data; validate plausibility (the
    // body checksum already vouches for the exact bits).
    for (int i = 0; i < 4; i += 2) {
      const double lo = bits_f64(iv_bits[i]);
      const double hi = bits_f64(iv_bits[i + 1]);
      if (!(lo >= 0.0) || !(hi <= 1.0) || !(lo <= hi)) {
        return WireStatus::kCorrupt;
      }
    }
  }
  if (!body.exhausted()) return WireStatus::kCorrupt;
  *out = std::move(s);
  return WireStatus::kOk;
}

void write_shard_file(const std::string& path, const ShardFile& shard) {
  if (!util::write_file_atomic(path, encode_shard(shard))) {
    throw std::runtime_error("cannot write " + path);
  }
}

WireStatus load_shard_file(const std::string& path, ShardFile* out) {
  std::string bytes;
  if (!util::read_file(path, &bytes)) return WireStatus::kTruncated;
  return decode_shard(bytes, out);
}

void fold_shard(ShardFile* into, const ShardFile& shard) {
  // A target covering nothing (default-constructed; no decoded file
  // does) is the empty merge: the checks then run against the arrival.
  const bool first = into->covered.empty();
  const ShardFile& ref = first ? shard : *into;
  const auto mismatch = [](const std::string& field) {
    throw std::invalid_argument(
        "merge_shard_files: shards disagree on " + field +
        " (refusing to fold results of different campaigns)");
  };
  if (shard.core_name != ref.core_name) mismatch("core_name");
  if (shard.key != ref.key) mismatch("key");
  if (shard.program_hash != ref.program_hash) mismatch("program_hash");
  if (shard.injections != ref.injections) mismatch("injections");
  if (shard.seed != ref.seed) mismatch("seed");
  if (shard.shard_count != ref.shard_count) mismatch("shard_count");
  // A fixed-budget (v1) file and an adaptive (v2) file can never be
  // shards of the same campaign; refuse before the counter fold so the
  // error names the actual disagreement (fold_campaign_result would
  // otherwise report it as a confidence-target mismatch).
  if (shard.result.adaptive() != ref.result.adaptive()) {
    mismatch("adaptivity (fixed-budget vs confidence-driven)");
  }
  std::vector<char> seen(ref.shard_count, 0);
  for (const std::uint32_t idx : into->covered) {
    if (idx < ref.shard_count) seen[idx] = 1;
  }
  for (const std::uint32_t idx : shard.covered) {
    if (idx >= ref.shard_count || seen[idx]) {
      throw std::invalid_argument(
          "merge_shard_files: shard index " + std::to_string(idx) +
          " covered twice (same shard file merged more than once?)");
    }
    seen[idx] = 1;
  }
  // The empty merge takes the arrival's identity and zero counters under
  // its plan, built aside so that a refused fold leaves *into as it was.
  ShardFile seeded;
  if (first) {
    seeded = shard;
    seeded.result = empty_result_like(shard.result);
  }
  ShardFile& merged = first ? seeded : *into;
  // Checks ff_count and the nominal run before it changes anything.
  fold_campaign_result(&merged.result, shard.result);
  merged.covered.clear();
  for (std::uint32_t i = 0; i < merged.shard_count; ++i) {
    if (seen[i]) merged.covered.push_back(i);
  }
  if (first) *into = std::move(seeded);
}

ShardFile merge_shard_files(const std::vector<ShardFile>& shards) {
  if (shards.empty()) {
    throw std::invalid_argument("merge_shard_files: no shards");
  }
  ShardFile merged;
  for (const ShardFile& s : shards) fold_shard(&merged, s);
  return merged;
}

}  // namespace clear::inject
