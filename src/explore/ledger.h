// Exploration ledger (`.cxl` files): the persistent record of a
// design-space exploration.
//
// An exploration evaluates hundreds of hardware/software combinations
// (core::enumerate_combos) against one experiment identity (core, target,
// metric, seed, sample scale, benchmark suite).  The ledger makes that
// search durable and distributable: every evaluated, pruned or skipped
// combination is appended as one checksummed record, so a killed
// exploration resumes from the records already on disk, and shards of the
// combination space (combo index i owned by shard i % K) explored on
// different machines fold back together with `fold_ledger` --
// bit-identical to the unsharded exploration, because every record is a
// pure function of the experiment identity.
//
// Design rules (shared with the `.csr` wire format, inject/wire.h):
//   * little-endian fixed-width integers; doubles as IEEE-754 bit
//     patterns (util/bytes.h) -- byte-identical across hosts,
//   * fail-closed identity: the header carries a format version and an
//     FNV-1a checksum; unknown versions and damaged headers are refused
//     (kVersionUnsupported / kCorrupt), never misparsed,
//   * crash-safe appends: each record is independently length-prefixed
//     and checksummed; the loader returns the longest clean record
//     prefix and reports how many trailing bytes it dropped, so a
//     mid-append crash (or tail bit rot) costs only the damaged records
//     -- never a wrong value, never the file.
//
// File layout (version 1; all integers little-endian):
//
//   magic            u32   "CXL1"
//   version          u32   ledger format version (kLedgerVersion)
//   ident_len        u64   byte length of the identity block
//   ident_checksum   u64   FNV-1a over the identity block
//   header_checksum  u64   FNV-1a over the 24 header bytes above
//   identity block   ident_len bytes (layout owned by `version`)
//   records          until EOF, each:
//     rec_len        u32   payload byte length
//     rec_checksum   u64   FNV-1a over the payload
//     payload        rec_len bytes
//
// Version-1 identity block: core, target, metric, seed, per-FF samples,
// benchmark suite, combination count + enumeration fingerprint
// (core::enumeration_fingerprint), pruning flag, shard count and covered
// shard indices.  Version-1 record payload: kind, combo index, combo
// name, and the evaluated point (target, met, energy/area/power/exec,
// %SDC protected, SDC/DUE improvement).
//
// Version-2 identity block (confidence-driven adaptive explorations
// only): the version-1 identity followed by the campaign confidence
// target (IEEE-754 bits) and interval method.  Writers stamp each file
// with the OLDEST version that can represent it -- 1 for fixed-budget
// explorations, 2 when ExploreSpec::confidence > 0 -- so a pre-adaptive
// reader keeps reading fixed-budget ledgers and fails closed
// (kVersionUnsupported) on adaptive ones instead of folding records
// sampled under a different campaign schedule.  Record payloads are
// unchanged in version 2.
#ifndef CLEAR_EXPLORE_LEDGER_H
#define CLEAR_EXPLORE_LEDGER_H

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "util/hash.h"

namespace clear::explore {

// Newest understood ledger format version (see the version-stamping rule
// in the header comment: writers emit the oldest version that can
// represent the ledger).
constexpr std::uint32_t kLedgerVersion = 2;

// Fixed header size in bytes (magic through header_checksum).  Stable
// across versions: only identity/record layouts are allowed to evolve.
constexpr std::size_t kLedgerHeaderSize = 32;

// FNV-1a 64-bit, the repo-wide on-disk checksum (util/hash.h; the same
// definition the cache pack and the .csr wire format checksum with).
// Re-exported so tests and external tools can verify or re-stamp bytes.
using util::fnv1a64;

enum class LedgerStatus : std::uint8_t {
  kOk,
  kBadMagic,            // not a .cxl file at all
  kVersionUnsupported,  // valid header, format newer than this binary
  kTruncated,           // shorter than the header + identity it declares
  kCorrupt,             // identity checksum mismatch / implausible field
};

[[nodiscard]] const char* ledger_status_name(LedgerStatus s) noexcept;

// What happened to one combination.  kPoint/kAnchor carry real evaluated
// costs; kPruned records the energy lower bound that disqualified the
// combo; kSkipped marks combos the benchmark suite cannot express (ABFT
// combos without an ABFT-capable benchmark).
enum class RecordKind : std::uint8_t {
  kPoint = 0,    // evaluated at the exploration target
  kAnchor = 1,   // fixed reference evaluation at the "max" point
  kPruned = 2,   // dominance-pruned; energy = cost lower bound
  kSkipped = 3,  // unsupported on the identity's benchmark suite
};

[[nodiscard]] const char* record_kind_name(RecordKind k) noexcept;

struct LedgerRecord {
  RecordKind kind = RecordKind::kPoint;
  std::uint32_t combo_index = 0;  // position in core::enumerate_combos
  std::string combo;              // Combo::name(), for reports
  double target = 0.0;            // <= 0: fixed/maximum point
  bool target_met = true;
  double energy = 0.0;  // for kPruned: the cost lower bound
  double area = 0.0;
  double power = 0.0;
  double exec = 0.0;
  double sdc_protected_pct = 0.0;
  double imp_sdc = 1.0;
  double imp_due = 1.0;
};

// One exploration ledger: the experiment identity plus every record.
// Two ledgers are mergeable iff every identity field above `covered`
// matches and their covered shard sets are disjoint.
struct Ledger {
  // ---- experiment identity ----------------------------------------------
  std::string core;       // "InO" or "OoO"
  double target = 50.0;   // SDC/DUE improvement target
  std::uint32_t metric = 0;  // core::Metric as stored (0 sdc, 1 due, 2 joint)
  std::uint64_t seed = 1;
  std::uint64_t per_ff_samples = 0;     // resolved (never 0) sample scale
  // Confidence-driven adaptive campaigns (ExploreSpec::confidence): the
  // 95% interval half-width target the profiling campaigns stopped at,
  // 0 = fixed-budget.  Part of the identity -- adaptive and fixed
  // explorations sample differently and must never fold together.
  double confidence = 0.0;
  std::uint32_t confidence_method = 0;  // util::IntervalMethod as stored
  std::vector<std::string> benchmarks;  // profiled suite, in order
  std::uint32_t combo_count = 0;        // enumeration size for `core`
  std::uint64_t combo_fingerprint = 0;  // core::enumeration_fingerprint
  bool pruning = true;                  // dominance pruning enabled
  std::uint32_t shard_count = 1;        // K of the i % K == k partition
  // ---- coverage ---------------------------------------------------------
  // Shard indices whose combos this ledger accounts for, sorted
  // ascending, each < shard_count.  A fresh run covers one; merges union.
  std::vector<std::uint32_t> covered;
  // ---- payload ----------------------------------------------------------
  std::vector<LedgerRecord> records;

  // True when every shard is covered AND every combination of the
  // enumeration has a non-anchor record.
  [[nodiscard]] bool complete() const;
  // Combo indices owned by the covered shards that have no non-anchor
  // record yet (what a resumed run still has to evaluate).
  [[nodiscard]] std::vector<std::uint32_t> missing_indices() const;
  // True when the identity fields (everything above `covered`) match.
  [[nodiscard]] bool same_identity(const Ledger& other) const;
};

// Diagnostics from a load: how much of the record region was clean.
struct LedgerLoadInfo {
  std::size_t records_loaded = 0;
  // Bytes dropped after the last clean record (0 for a pristine file).
  // Non-zero means a torn append or tail bit rot; the loaded prefix is
  // still exact, and a resuming writer truncates back to it.
  std::size_t tail_dropped_bytes = 0;
};

// Serializes a ledger to its on-disk bytes (header + identity + records).
[[nodiscard]] std::string encode_ledger(const Ledger& ledger);
// One record's framed bytes (rec_len + rec_checksum + payload), exactly
// what append_record() writes.
[[nodiscard]] std::string encode_record(const LedgerRecord& rec);

// Parses ledger bytes.  On kOk fills *out (and *info when non-null); on
// any other status both are untouched.  Never throws, never reads outside
// `bytes`.  Record-region damage is NOT an error: the clean prefix loads
// and info->tail_dropped_bytes reports the loss.
[[nodiscard]] LedgerStatus decode_ledger(const std::string& bytes, Ledger* out,
                                         LedgerLoadInfo* info = nullptr);

// File I/O.  write_ledger_file() rewrites atomically (tmp + rename);
// throws std::runtime_error when the path is unwritable.
// load_ledger_file() returns kTruncated for an unreadable/missing path.
void write_ledger_file(const std::string& path, const Ledger& ledger);
[[nodiscard]] LedgerStatus load_ledger_file(const std::string& path,
                                            Ledger* out,
                                            LedgerLoadInfo* info = nullptr);

// Append-mode writer for a running exploration.  open() creates the file
// with `identity`'s header (no records) when absent; otherwise it loads
// the file, requires identical identity + covered set, and -- when the
// tail was damaged -- truncates back to the clean record prefix so later
// appends land after valid bytes.  Throws std::runtime_error on identity
// mismatch, a damaged header, or an unwritable path.  `state` returns the
// records already on disk.
class LedgerWriter {
 public:
  void open(const std::string& path, const Ledger& identity);
  // Appends one framed record and flushes it (crash granularity = one
  // record).  Throws std::runtime_error on I/O failure.
  void append(const LedgerRecord& rec);

  [[nodiscard]] const Ledger& state() const noexcept { return state_; }

 private:
  std::ofstream out_;
  Ledger state_;
};

// The one ledger fold: folds `shard` into the running merge *into in
// place, records in canonical (combo_index, kind) order.  A target
// covering nothing (default-constructed; decode_ledger refuses such a
// file) is the empty merge and takes the arrival's identity.  Throws
// std::invalid_argument, leaving *into unchanged, naming the first
// mismatched identity field, a doubly-covered shard, a doubly-recorded
// combo, or a record owned by a shard its file does not cover.
void fold_ledger(Ledger* into, const Ledger& shard);

// The Pareto frontier of the evaluated points (kPoint + kAnchor): minimal
// energy for each strictly-higher %-of-SDC-protected level.  Deterministic
// order (energy ascending, combo_index as the tie-break); returned
// pointers alias `ledger.records`.
[[nodiscard]] std::vector<const LedgerRecord*> pareto_frontier(
    const Ledger& ledger);

// Evaluated points that met the exploration target, cheapest first (same
// deterministic order as the frontier).
[[nodiscard]] std::vector<const LedgerRecord*> target_meeting_points(
    const Ledger& ledger);

}  // namespace clear::explore

#endif  // CLEAR_EXPLORE_LEDGER_H
