#include "explore/ledger.h"

#include <algorithm>
#include <filesystem>
#include <set>
#include <stdexcept>

#include "util/bytes.h"
#include "util/fs.h"
#include "util/sealed.h"

namespace clear::explore {

namespace {

constexpr unsigned char kMagic[4] = {'C', 'X', 'L', '1'};

// Sanity bounds: an identity/record that passes its checksum but declares
// sizes beyond these is treated as damage rather than allocated for.
constexpr std::uint64_t kMaxIdentLen = 1ULL << 20;
constexpr std::uint32_t kMaxBenchCount = 1u << 10;
constexpr std::uint32_t kMaxComboCount = 1u << 20;
constexpr std::uint32_t kMaxShardCount = 1u << 20;
constexpr std::uint32_t kMaxRecordLen = 1u << 16;

using util::put_f64;
using util::put_str;
using util::put_u32;
using util::put_u64;

// The oldest format version that can represent this ledger: adaptive
// explorations need the version-2 identity tail, fixed-budget ones stay
// readable by pre-adaptive binaries.
std::uint32_t ledger_wire_version(const Ledger& l) {
  return l.confidence > 0.0 ? 2u : 1u;
}

std::string encode_identity(const Ledger& l) {
  std::string out;
  put_str(&out, l.core);
  put_f64(&out, l.target);
  put_u32(&out, l.metric);
  put_u64(&out, l.seed);
  put_u64(&out, l.per_ff_samples);
  put_u32(&out, static_cast<std::uint32_t>(l.benchmarks.size()));
  for (const auto& b : l.benchmarks) put_str(&out, b);
  put_u32(&out, l.combo_count);
  put_u64(&out, l.combo_fingerprint);
  put_u32(&out, l.pruning ? 1u : 0u);
  put_u32(&out, l.shard_count);
  put_u32(&out, static_cast<std::uint32_t>(l.covered.size()));
  for (const std::uint32_t s : l.covered) put_u32(&out, s);
  if (ledger_wire_version(l) >= 2) {
    // put_f64 stores IEEE-754 bits (util/bytes.h): the confidence target
    // is an identity field and must round-trip bit-exactly.
    put_f64(&out, l.confidence);
    put_u32(&out, l.confidence_method);
  }
  return out;
}

bool decode_identity(const std::string& bytes, std::uint32_t version,
                     Ledger* out) {
  util::ByteReader r(bytes.data(), bytes.size());
  std::uint32_t bench_count = 0, pruning = 0, covered_count = 0;
  if (!r.str(&out->core) || !r.f64(&out->target) || !r.u32(&out->metric) ||
      !r.u64(&out->seed) || !r.u64(&out->per_ff_samples) ||
      !r.u32(&bench_count) || bench_count == 0 ||
      bench_count > kMaxBenchCount) {
    return false;
  }
  out->benchmarks.resize(bench_count);
  for (std::uint32_t i = 0; i < bench_count; ++i) {
    if (!r.str(&out->benchmarks[i])) return false;
  }
  if (!r.u32(&out->combo_count) || out->combo_count == 0 ||
      out->combo_count > kMaxComboCount || !r.u64(&out->combo_fingerprint) ||
      !r.u32(&pruning) || pruning > 1 || !r.u32(&out->shard_count) ||
      out->shard_count == 0 || out->shard_count > kMaxShardCount ||
      !r.u32(&covered_count) || covered_count == 0 ||
      covered_count > out->shard_count) {
    return false;
  }
  out->pruning = pruning != 0;
  out->covered.resize(covered_count);
  std::uint32_t prev = 0;
  for (std::uint32_t i = 0; i < covered_count; ++i) {
    if (!r.u32(&out->covered[i])) return false;
    // Sorted + strictly increasing + bounded: canonical coverage sets only.
    if (out->covered[i] >= out->shard_count ||
        (i > 0 && out->covered[i] <= prev)) {
      return false;
    }
    prev = out->covered[i];
  }
  if (version >= 2) {
    // Version 2 exists only for adaptive explorations: a NaN, zero or
    // out-of-range confidence target fails closed.
    if (!r.f64(&out->confidence) || !(out->confidence > 0.0) ||
        !(out->confidence <= 0.5) || !r.u32(&out->confidence_method) ||
        out->confidence_method > 1) {
      return false;
    }
  }
  return r.exhausted();
}

bool decode_record_payload(const std::string& bytes, std::uint32_t combo_count,
                           LedgerRecord* rec) {
  util::ByteReader r(bytes.data(), bytes.size());
  std::uint32_t kind = 0, met = 0;
  if (!r.u32(&kind) || kind > static_cast<std::uint32_t>(RecordKind::kSkipped) ||
      !r.u32(&rec->combo_index) || rec->combo_index >= combo_count ||
      !r.str(&rec->combo) || !r.f64(&rec->target) || !r.u32(&met) ||
      met > 1 || !r.f64(&rec->energy) || !r.f64(&rec->area) ||
      !r.f64(&rec->power) || !r.f64(&rec->exec) ||
      !r.f64(&rec->sdc_protected_pct) || !r.f64(&rec->imp_sdc) ||
      !r.f64(&rec->imp_due)) {
    return false;
  }
  rec->kind = static_cast<RecordKind>(kind);
  rec->target_met = met != 0;
  return r.exhausted();
}

// Deterministic ordering for frontier/report output: cheapest first; at
// equal energy the better-protected point first, combo index last.
bool point_order(const LedgerRecord* a, const LedgerRecord* b) {
  if (a->energy != b->energy) return a->energy < b->energy;
  if (a->sdc_protected_pct != b->sdc_protected_pct) {
    return a->sdc_protected_pct > b->sdc_protected_pct;
  }
  return a->combo_index < b->combo_index;
}

// The first identity field (everything above `covered`) on which two
// ledgers differ, by the name merge errors give it; nullptr when they
// share one identity.  The one list of identity fields.
const char* identity_mismatch(const Ledger& a, const Ledger& b) {
  if (a.core != b.core) return "core";
  if (a.target != b.target) return "target";
  if (a.metric != b.metric) return "metric";
  if (a.seed != b.seed) return "seed";
  if (a.per_ff_samples != b.per_ff_samples) return "per_ff_samples";
  if (a.confidence != b.confidence ||
      a.confidence_method != b.confidence_method) {
    return "confidence target";
  }
  if (a.benchmarks != b.benchmarks) return "benchmarks";
  if (a.combo_count != b.combo_count) return "combo_count";
  if (a.combo_fingerprint != b.combo_fingerprint) return "combo_fingerprint";
  if (a.pruning != b.pruning) return "pruning";
  if (a.shard_count != b.shard_count) return "shard_count";
  return nullptr;
}

}  // namespace

const char* ledger_status_name(LedgerStatus s) noexcept {
  switch (s) {
    case LedgerStatus::kOk: return "ok";
    case LedgerStatus::kBadMagic: return "bad magic (not a .cxl file)";
    case LedgerStatus::kVersionUnsupported:
      return "unsupported ledger version";
    case LedgerStatus::kTruncated: return "truncated";
    case LedgerStatus::kCorrupt: return "corrupt (checksum mismatch)";
  }
  return "?";
}

const char* record_kind_name(RecordKind k) noexcept {
  switch (k) {
    case RecordKind::kPoint: return "point";
    case RecordKind::kAnchor: return "anchor";
    case RecordKind::kPruned: return "pruned";
    case RecordKind::kSkipped: return "skipped";
  }
  return "?";
}

bool Ledger::complete() const {
  return covered.size() == shard_count && missing_indices().empty();
}

std::vector<std::uint32_t> Ledger::missing_indices() const {
  std::vector<char> owned(combo_count, 0);
  for (const std::uint32_t s : covered) {
    for (std::uint32_t i = s; i < combo_count; i += shard_count) owned[i] = 1;
  }
  for (const LedgerRecord& r : records) {
    if (r.kind == RecordKind::kAnchor) continue;
    if (r.combo_index < combo_count) owned[r.combo_index] = 0;
  }
  std::vector<std::uint32_t> missing;
  for (std::uint32_t i = 0; i < combo_count; ++i) {
    if (owned[i]) missing.push_back(i);
  }
  return missing;
}

bool Ledger::same_identity(const Ledger& o) const {
  return identity_mismatch(*this, o) == nullptr;
}

std::string encode_record(const LedgerRecord& rec) {
  std::string payload;
  put_u32(&payload, static_cast<std::uint32_t>(rec.kind));
  put_u32(&payload, rec.combo_index);
  put_str(&payload, rec.combo);
  put_f64(&payload, rec.target);
  put_u32(&payload, rec.target_met ? 1u : 0u);
  put_f64(&payload, rec.energy);
  put_f64(&payload, rec.area);
  put_f64(&payload, rec.power);
  put_f64(&payload, rec.exec);
  put_f64(&payload, rec.sdc_protected_pct);
  put_f64(&payload, rec.imp_sdc);
  put_f64(&payload, rec.imp_due);

  std::string out;
  util::put_frame(&out, payload);
  return out;
}

std::string encode_ledger(const Ledger& ledger) {
  const std::string ident = encode_identity(ledger);
  std::string out = util::seal(kMagic, ledger_wire_version(ledger), ident);
  for (const LedgerRecord& rec : ledger.records) out.append(encode_record(rec));
  return out;
}

LedgerStatus decode_ledger(const std::string& bytes, Ledger* out,
                           LedgerLoadInfo* info) {
  std::uint32_t version = 0;
  std::uint64_t ident_len = 0;
  const util::SealStatus sealed = util::unseal(
      bytes, kMagic, kLedgerVersion, kMaxIdentLen, &version, &ident_len);
  if (sealed != util::SealStatus::kOk) {
    return util::status_as<LedgerStatus>(sealed);
  }
  const std::string ident = bytes.substr(kLedgerHeaderSize,
                                         static_cast<std::size_t>(ident_len));
  Ledger l;
  if (!decode_identity(ident, version, &l)) return LedgerStatus::kCorrupt;

  // Record region: the identity is trusted now; records load until the
  // first damage, after which the remainder is conservatively dropped
  // (re-synchronizing past a bad frame could serve bytes no checksum
  // vouches for).
  std::size_t pos = kLedgerHeaderSize + static_cast<std::size_t>(ident_len);
  LedgerLoadInfo li;
  while (pos < bytes.size()) {
    std::uint32_t rec_len = 0;
    if (util::read_frame(bytes.data() + pos, bytes.size() - pos,
                         kMaxRecordLen, &rec_len) != util::FrameStatus::kOk) {
      break;  // torn append / tail rot
    }
    const std::string payload =
        bytes.substr(pos + util::kFrameHeaderSize, rec_len);
    LedgerRecord rec;
    if (!decode_record_payload(payload, l.combo_count, &rec)) break;
    l.records.push_back(std::move(rec));
    ++li.records_loaded;
    pos += util::kFrameHeaderSize + rec_len;
  }
  li.tail_dropped_bytes = bytes.size() - pos;

  *out = std::move(l);
  if (info) *info = li;
  return LedgerStatus::kOk;
}

void write_ledger_file(const std::string& path, const Ledger& ledger) {
  if (!util::write_file_atomic(path, encode_ledger(ledger))) {
    throw std::runtime_error("cannot write " + path);
  }
}

LedgerStatus load_ledger_file(const std::string& path, Ledger* out,
                              LedgerLoadInfo* info) {
  std::string bytes;
  if (!util::read_file(path, &bytes)) return LedgerStatus::kTruncated;
  return decode_ledger(bytes, out, info);
}

void LedgerWriter::open(const std::string& path, const Ledger& identity) {
  if (!std::filesystem::exists(path)) {
    state_ = identity;
    state_.records.clear();
    write_ledger_file(path, state_);
  } else {
    Ledger on_disk;
    LedgerLoadInfo li;
    const LedgerStatus st = load_ledger_file(path, &on_disk, &li);
    if (st != LedgerStatus::kOk) {
      throw std::runtime_error(path + ": " + ledger_status_name(st));
    }
    if (!on_disk.same_identity(identity) ||
        on_disk.covered != identity.covered) {
      throw std::runtime_error(
          path + ": ledger belongs to a different exploration "
                 "(identity mismatch; refusing to append)");
    }
    if (li.tail_dropped_bytes > 0) {
      // Truncate back to the clean prefix so appends land after valid
      // bytes; the dropped combos simply re-run.
      write_ledger_file(path, on_disk);
    }
    state_ = std::move(on_disk);
  }
  out_.open(path, std::ios::binary | std::ios::app);
  if (!out_) throw std::runtime_error("cannot open " + path + " for append");
}

void LedgerWriter::append(const LedgerRecord& rec) {
  const std::string bytes = encode_record(rec);
  if (!out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size())) ||
      !out_.flush()) {
    throw std::runtime_error("ledger append failed");
  }
  state_.records.push_back(rec);
}

void fold_ledger(Ledger* into, const Ledger& shard) {
  // A target covering nothing (default-constructed; no decoded file
  // does) is the empty merge: the checks then run against the arrival.
  const bool first = into->covered.empty();
  const Ledger& ref = first ? shard : *into;
  if (const char* field = identity_mismatch(shard, ref)) {
    throw std::invalid_argument(
        std::string("merge_ledger_files: ledgers disagree on ") + field +
        " (refusing to fold results of different explorations)");
  }
  // Per shard index: 1 covered by the running merge, 2 by the arrival.
  std::vector<char> covered(ref.shard_count, 0);
  for (const std::uint32_t idx : into->covered) {
    if (idx < ref.shard_count) covered[idx] = 1;
  }
  for (const std::uint32_t idx : shard.covered) {
    if (idx >= ref.shard_count || covered[idx]) {
      throw std::invalid_argument(
          "merge_ledger_files: shard index " + std::to_string(idx) +
          " covered twice (same ledger merged more than once?)");
    }
    covered[idx] = 2;
  }
  // Records are owned by the arrival's shards, which the running merge
  // does not cover: only the arrival itself can repeat a combo.
  std::set<std::pair<std::uint32_t, bool>> recorded;  // (combo, anchor)
  for (const LedgerRecord& r : shard.records) {
    // Anchors are recorded by shard 0, every other record by the combo's
    // owner; each exactly once.
    const bool anchor = r.kind == RecordKind::kAnchor;
    if (covered[anchor ? 0 : r.combo_index % ref.shard_count] == 2 &&
        recorded.insert({r.combo_index, anchor}).second) {
      continue;
    }
    const std::string combo = std::to_string(r.combo_index);
    throw std::invalid_argument(
        anchor ? "merge_ledger_files: anchor record for combo " + combo +
                     " is misplaced or duplicated"
               : "merge_ledger_files: combo " + combo +
                     " recorded by a shard that does not own it, or twice");
  }
  if (first) {  // the empty merge takes the arrival's identity
    *into = shard;
    into->records.clear();
  }
  const auto arrived = into->records.insert(
      into->records.end(), shard.records.begin(), shard.records.end());
  into->covered.clear();
  for (std::uint32_t i = 0; i < into->shard_count; ++i) {
    if (covered[i]) into->covered.push_back(i);
  }
  // Canonical (combo_index, kind) order: merged ledgers compare (and
  // render) identically regardless of which machine finished first.
  const auto canonical = [](const LedgerRecord& a, const LedgerRecord& b) {
    if (a.combo_index != b.combo_index) return a.combo_index < b.combo_index;
    return static_cast<int>(a.kind) < static_cast<int>(b.kind);
  };
  std::sort(arrived, into->records.end(), canonical);
  std::inplace_merge(into->records.begin(), arrived, into->records.end(),
                     canonical);
}

std::vector<const LedgerRecord*> pareto_frontier(const Ledger& ledger) {
  std::vector<const LedgerRecord*> pts;
  for (const LedgerRecord& r : ledger.records) {
    if (r.kind == RecordKind::kPoint || r.kind == RecordKind::kAnchor) {
      pts.push_back(&r);
    }
  }
  std::sort(pts.begin(), pts.end(), point_order);
  std::vector<const LedgerRecord*> frontier;
  double best = -1.0;
  for (const LedgerRecord* r : pts) {
    if (r->sdc_protected_pct > best) {
      frontier.push_back(r);
      best = r->sdc_protected_pct;
    }
  }
  return frontier;
}

std::vector<const LedgerRecord*> target_meeting_points(const Ledger& ledger) {
  std::vector<const LedgerRecord*> pts;
  for (const LedgerRecord& r : ledger.records) {
    if (r.kind != RecordKind::kPoint || !r.target_met) continue;
    // Fixed-cost combos always "meet" their own fixed point; what the
    // report wants is whether they reach the exploration target.
    const double imp = ledger.metric == 0   ? r.imp_sdc
                       : ledger.metric == 1 ? r.imp_due
                                            : std::min(r.imp_sdc, r.imp_due);
    if (imp >= ledger.target) pts.push_back(&r);
  }
  std::sort(pts.begin(), pts.end(), point_order);
  return pts;
}

}  // namespace clear::explore
