// Campaign-shard result wire format (`.csr` files).
//
// Sharded campaigns run as independent processes on independent machines
// (see campaign.h); this is the format their results travel in.  A `.csr`
// file carries one CampaignResult together with the campaign identity it
// was computed under, so the merge side can refuse to fold shards of
// different campaigns -- the mistake that silently corrupts a 9M-injection
// study.  `clear run` writes these files, `clear merge` folds any
// partition of them, `clear report` renders them; the byte-level spec
// lives in docs/FORMATS.md.
//
// Design rules (shared with the cache pack, inject/cachepack.h):
//   * little-endian, fixed-width integers -- byte-identical across hosts,
//   * every byte covered by an FNV-1a checksum (header and body
//     separately), so truncation and bit rot are always detected,
//   * forward-versioned: the header carries a format version; a loader
//     rejects versions it does not know with kVersionUnsupported instead
//     of misparsing them, and the header layout itself never changes,
//   * tolerant loader: decode never throws and never reads outside the
//     supplied bytes; any damage yields a precise WireStatus and leaves
//     the output untouched, in the cachepack recovery style.
//
// File layout (version 1; all integers little-endian):
//
//   magic            u32   "CSR1"
//   version          u32   wire format version (kWireVersion)
//   body_len         u64   byte length of the body section
//   body_checksum    u64   FNV-1a over the body bytes
//   header_checksum  u64   FNV-1a over the 24 header bytes above
//   body             body_len bytes (layout owned by `version`)
//
// Version-1 body:  identity block (core_name, key, program_hash,
// injections, seed, shard_count, covered shard indices), then the result
// block (ff_count, nominal_cycles, nominal_instrs, per-FF outcome
// counters).  Totals are recomputed on load, never stored.
//
// Version-2 body (confidence-driven adaptive campaigns only): the full
// version-1 body followed by the adaptive block -- interval method,
// confidence target (IEEE-754 bits, an exact identity field), pilot
// length, per-FF planned sample counts N_f, total samples executed by
// this file's covered shards, and the achieved 95% SDC/DUE intervals
// over this file's own counters.  Writers emit version 1 for fixed-budget
// campaigns (older readers keep working) and version 2 only when the
// campaign was adaptive, so a version-1 reader FAILS CLOSED on adaptive
// results (kVersionUnsupported) instead of silently dropping the plan.
// Merging recomputes the achieved intervals from the merged counters;
// the per-FF plan is an identity field every shard must agree on.
#ifndef CLEAR_INJECT_WIRE_H
#define CLEAR_INJECT_WIRE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "inject/campaign.h"
#include "isa/program.h"
#include "util/hash.h"

namespace clear::inject {

// Newest understood wire format version.  encode_shard() stamps each
// file with the OLDEST version that can represent it: 1 for fixed-budget
// campaigns, 2 for adaptive ones (so pre-adaptive readers keep reading
// fixed-budget files and fail closed only on files they cannot
// represent).
constexpr std::uint32_t kWireVersion = 2;

// Fixed header size in bytes (magic through header_checksum).  Stable
// across versions: only the body layout is allowed to evolve.
constexpr std::size_t kWireHeaderSize = 32;

// FNV-1a 64-bit, the repo-wide on-disk checksum (util/hash.h; the same
// definition the cache pack checksums with).  Re-exported here so tests
// and external tools can verify or re-stamp wire bytes.
using util::fnv1a64;

// Decode outcome, most specific first.  decode_shard() reports exactly
// what is wrong so operators can distinguish "wrong file" from "torn
// transfer" from "old binary".
enum class WireStatus : std::uint8_t {
  kOk,
  kBadMagic,            // not a .csr file at all
  kVersionUnsupported,  // valid header, format newer than this binary
  kTruncated,           // shorter than the header + body it declares
  kCorrupt,             // checksum mismatch or implausible field
};

[[nodiscard]] const char* wire_status_name(WireStatus s) noexcept;

// One shard-result file: the campaign identity plus the partial (or
// complete) result.  Two ShardFiles are mergeable iff every identity
// field below `covered` matches and their covered sets are disjoint.
struct ShardFile {
  // ---- campaign identity -------------------------------------------------
  std::string core_name;        // "InO" or "OoO" (CampaignSpec::core_name)
  std::string key;              // cache/debug key; informational
  std::uint64_t program_hash = 0;  // wire_program_hash() of the program run
  std::uint64_t injections = 0;    // global sample count (all shards)
  std::uint64_t seed = 1;          // CampaignSpec::seed
  std::uint32_t shard_count = 1;   // K of the i % K == k partition
  // ---- coverage ----------------------------------------------------------
  // Shard indices folded into `result`, sorted ascending, each < K.  A
  // fresh `clear run` output covers one index; merges union them.
  std::vector<std::uint32_t> covered;
  // ---- payload -----------------------------------------------------------
  CampaignResult result;

  // True when every shard of the partition is present (the result equals
  // the unsharded campaign bit-for-bit).
  [[nodiscard]] bool complete() const noexcept {
    return covered.size() == shard_count;
  }
};

// Identity hash of the program a campaign simulated (FNV-1a over the code
// then data words, each in little-endian byte order).  Deterministic
// across hosts; stored in every .csr so merges of different-program
// shards are refused even when keys collide.
[[nodiscard]] std::uint64_t wire_program_hash(const isa::Program& prog) noexcept;

// Serializes a shard to its on-wire bytes: header + version-1 body for
// fixed-budget results, header + version-2 body when result.adaptive().
[[nodiscard]] std::string encode_shard(const ShardFile& shard);

// Parses wire bytes.  On kOk fills *out; on any other status *out is
// untouched.  Never throws, never reads outside `bytes`.
[[nodiscard]] WireStatus decode_shard(const std::string& bytes,
                                      ShardFile* out);

// File I/O wrappers.  write_shard_file() writes via tmp-file + atomic
// rename so a crash never leaves a torn .csr in place; it throws
// std::runtime_error when the path is unwritable.  load_shard_file()
// returns kTruncated for an unreadable/missing path.
void write_shard_file(const std::string& path, const ShardFile& shard);
[[nodiscard]] WireStatus load_shard_file(const std::string& path,
                                         ShardFile* out);

// The one shard fold: folds `shard` into the running merge *into in
// place, O(flip-flops) per arrival.  A target covering nothing
// (default-constructed; decode_shard refuses such a file) is the empty
// merge and takes the arrival's identity.  Throws std::invalid_argument,
// leaving *into unchanged, naming the first mismatched identity field or
// the first doubly-covered shard index.  The counter fold is
// fold_campaign_result(), so a complete merge is bit-identical to the
// unsharded campaign.
void fold_shard(ShardFile* into, const ShardFile& shard);

// fold_shard over any partition of mergeable shards (any order, any
// subset sizes), from the empty merge; also throws on an empty list.
[[nodiscard]] ShardFile merge_shard_files(
    const std::vector<ShardFile>& shards);

}  // namespace clear::inject

#endif  // CLEAR_INJECT_WIRE_H
