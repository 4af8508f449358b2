#include "inject/cachepack.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/env.h"
#include "util/fs.h"
#include "util/hash.h"

namespace clear::inject {

namespace {

using util::fnv1a64;

// Cache telemetry (docs/OBSERVABILITY.md): the probe/fill/compaction
// paths report here; CachePackStats stays the per-instance accounting.
struct CacheMetrics {
  obs::Counter& hits = obs::counter("cache.hit");
  obs::Counter& misses = obs::counter("cache.miss");
  obs::Counter& puts = obs::counter("cache.put");
  obs::Counter& evictions = obs::counter("cache.eviction");
  obs::Counter& quarantined = obs::counter("cache.quarantine");
  obs::Gauge& pack_bytes = obs::gauge("cache.pack.bytes");
};

CacheMetrics& metrics() {
  static CacheMetrics m;
  return m;
}

constexpr unsigned char kMagic[4] = {'C', 'P', 'K', '1'};
constexpr std::size_t kHeaderSize = 36;   // 28 checksummed bytes + 8
constexpr std::uint32_t kMaxKeyLen = 1u << 16;
constexpr std::uint32_t kMaxPayloadLen = 1u << 30;

struct Header {
  std::uint32_t key_len = 0;
  std::uint32_t payload_len = 0;
  std::uint64_t fp = 0;
  std::uint64_t payload_sum = 0;
};

// Serializes one record: the 36-byte header (checksum included), then
// the first h.key_len bytes of `key`, then the payload.
std::string encode_record(const Header& h, const std::string& key,
                          const std::string& payload) {
  std::string rec;
  rec.reserve(kHeaderSize + h.key_len + h.payload_len);
  util::append_magic(&rec, kMagic);
  util::put_u32(&rec, h.key_len);
  util::put_u32(&rec, h.payload_len);
  util::put_u64(&rec, h.fp);
  util::put_u64(&rec, h.payload_sum);
  util::put_u64(&rec, fnv1a64(rec.data(), 28));
  rec.append(key, 0, h.key_len);
  rec.append(payload);
  return rec;
}

// Validates magic + header checksum + length sanity over the kHeaderSize
// bytes at `in`; false on any damage.
bool decode_header(const unsigned char* in, Header* h) {
  if (std::memcmp(in, kMagic, 4) != 0) return false;
  util::ByteReader r(in + 4, kHeaderSize - 4);
  std::uint64_t sum = 0;
  return r.u32(&h->key_len) && r.u32(&h->payload_len) && r.u64(&h->fp) &&
         r.u64(&h->payload_sum) && r.u64(&sum) && sum == fnv1a64(in, 28) &&
         h->key_len <= kMaxKeyLen && h->payload_len <= kMaxPayloadLen;
}

std::uint64_t record_size(const Header& h) {
  return kHeaderSize + h.key_len + h.payload_len;
}

bool read_all(int fd, std::uint64_t offset, void* buf, std::size_t n) {
  auto* p = static_cast<unsigned char*>(buf);
  while (n > 0) {
    const ssize_t r = ::pread(fd, p, n, static_cast<off_t>(offset));
    if (r <= 0) return false;
    p += r;
    offset += static_cast<std::uint64_t>(r);
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

bool write_all(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(buf);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w <= 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

// Scoped flock(): serializes appends and compaction across processes.
// flock is not recursive -- an inner LOCK_UN would release an outer
// scope's lock -- so `engage=false` lets a callee run under a lock its
// caller already holds.
class FileLock {
 public:
  explicit FileLock(int fd, bool engage = true)
      : fd_(engage ? fd : -1) {
    if (fd_ >= 0) ::flock(fd_, LOCK_EX);
  }
  ~FileLock() {
    if (fd_ >= 0) ::flock(fd_, LOCK_UN);
  }
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

 private:
  int fd_;
};

}  // namespace

CachePack::CachePack(std::string dir, std::uint64_t max_bytes)
    : dir_(std::move(dir)) {
  pack_path_ = dir_ + "/" + kPackName;
  index_path_ = dir_ + "/" + kIndexName;
  max_bytes_ =
      max_bytes != 0
          ? max_bytes
          // lint: allow(determinism): the budget only picks which entries stay cached, never their bytes
          : util::env_bytes("CLEAR_CACHE_MAX_BYTES", 0);
  std::lock_guard<std::mutex> g(m_);
  open_locked(/*dir_lock_held=*/false);
}

CachePack::~CachePack() {
  std::lock_guard<std::mutex> g(m_);
  close_locked();
  if (dir_fd_ >= 0) ::close(dir_fd_);
  dir_fd_ = -1;
}

void CachePack::close_locked() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  ++generation_;
  entries_.clear();
  older_.clear();
  pack_size_ = 0;
  index_lines_ = 0;
}

// The flock target: the cache directory itself.  Its inode is stable --
// compaction renames files *inside* it -- so two processes always contend
// on the same lock, which a lock on the (replaceable) pack fd would not
// guarantee.  Opened once and kept for the object's lifetime; if the
// whole directory is removed and recreated externally, locking degrades
// to best-effort (correctness within each process is unaffected).
int CachePack::dir_lock_fd_locked() {
  if (dir_fd_ < 0) {
    util::ensure_dir(dir_);
    dir_fd_ = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  }
  return dir_fd_;
}

void CachePack::open_locked(bool dir_lock_held) {
  close_locked();
  stats_ = {};
  clock_ = 0;
  if (!util::ensure_dir(dir_)) return;
  fd_ = ::open(pack_path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) return;
  // Eviction writes; take the cross-process lock unless the
  // caller (resync) already holds it.
  FileLock lock(dir_lock_fd_locked(), !dir_lock_held);
  // Another process's compaction may have renamed a new pack into place
  // between our open() above and acquiring the lock; re-check under the
  // lock and reopen so the scan/eviction below never operate on
  // (or write into) a stale unlinked inode.  Converges immediately: while
  // we hold the lock nobody else can replace the pack.
  struct stat on_disk;
  struct stat ours;
  if (::stat(pack_path_.c_str(), &on_disk) != 0 ||
      ::fstat(fd_, &ours) != 0 || ours.st_ino != on_disk.st_ino ||
      ours.st_dev != on_disk.st_dev) {
    ::close(fd_);
    fd_ = ::open(pack_path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0) return;
  }
  scan_pack_range_locked(0);
  load_index_clocks_locked();
  maybe_evict_locked();
  stats_.pack_bytes = pack_size_;
}

// Called with the directory flock held before any write: folds in what
// other processes did since our last look.  A replaced or truncated pack
// triggers a full reopen; a grown pack gets its new tail scanned so
// records appended by other processes survive our compaction.
void CachePack::resync_locked() {
  struct stat on_disk;
  struct stat ours;
  const bool same_file = fd_ >= 0 &&
                         ::stat(pack_path_.c_str(), &on_disk) == 0 &&
                         ::fstat(fd_, &ours) == 0 &&
                         ours.st_ino == on_disk.st_ino &&
                         ours.st_dev == on_disk.st_dev;
  if (!same_file ||
      static_cast<std::uint64_t>(ours.st_size) < pack_size_) {
    open_locked(/*dir_lock_held=*/true);
    return;
  }
  if (static_cast<std::uint64_t>(ours.st_size) > pack_size_) {
    scan_pack_range_locked(pack_size_);
  }
}

// Finds every record in pack bytes [from, end) by its header alone: one
// kHeaderSize read per record and no payload byte, since the index is
// never trusted for locations.  Each record whose header verifies becomes
// the unverified entry for its fingerprint (later records win; see
// add_entry_locked), seeded in file order for LRU.  A damaged or torn
// header quarantines its region; from there the walk reads the rest of
// the range and hunts for the next magic byte by byte.  `from = 0` is the
// open-time walk; a nonzero `from` folds in a tail another process
// appended since our last look.
void CachePack::scan_pack_range_locked(std::uint64_t from) {
  struct stat st;
  if (::fstat(fd_, &st) != 0) return;
  const auto end = static_cast<std::uint64_t>(st.st_size);
  pack_size_ = end;
  std::vector<unsigned char> rest;  // bytes [rest_from, end), once needed
  std::uint64_t rest_from = end;
  std::size_t bad_regions = 0;
  bool in_bad_region = false;
  std::uint64_t pos = from;
  while (pos + kHeaderSize <= end) {
    unsigned char raw[kHeaderSize];
    const unsigned char* at = raw;
    if (pos >= rest_from) {
      at = rest.data() + (pos - rest_from);
    } else if (!read_all(fd_, pos, raw, kHeaderSize)) {
      pack_size_ = pos;  // the next resync walks on from here
      break;
    }
    Header h;
    if (decode_header(at, &h) && pos + record_size(h) <= end) {
      in_bad_region = false;
      Entry e;
      e.offset = pos;
      e.key_len = h.key_len;
      e.payload_len = h.payload_len;
      e.payload_sum = h.payload_sum;
      e.clock = ++clock_;  // file order seeds LRU; the index refines it
      add_entry_locked(h.fp, e);
      pos += record_size(h);
      continue;
    }
    // Damaged or torn header (or a false magic inside a payload of a
    // damaged region): quarantine the region once, then hunt for the
    // next record start.
    if (!in_bad_region) {
      ++bad_regions;
      in_bad_region = true;
    }
    if (pos < rest_from) {
      rest.resize(end - pos);
      if (!read_all(fd_, pos, rest.data(), rest.size())) {
        pack_size_ = pos;
        break;
      }
      rest_from = pos;
    }
    const unsigned char* here = rest.data() + (pos - rest_from);
    const auto* next = static_cast<const unsigned char*>(
        std::memchr(here + 1, kMagic[0], end - pos - 1));
    if (next == nullptr) break;
    pos += static_cast<std::uint64_t>(next - here);
  }
  quarantine_locked(bad_regions);
}

// Makes `e` the entry for `fp`.  The record it replaces is kept in
// older_ when it may still matter: as the fallback should an unverified
// `e` turn out damaged, or to be counted if it is damaged itself.
void CachePack::add_entry_locked(std::uint64_t fp, const Entry& e) {
  const auto [it, fresh] = entries_.try_emplace(fp, e);
  if (fresh) return;
  if (!e.verified || !it->second.verified) {
    older_[fp].push_back(it->second);
  }
  it->second = e;
}

// Re-reads the payload of `e` and checks it against its checksum.
bool CachePack::payload_intact_locked(const Entry& e) const {
  std::string data(e.payload_len, '\0');
  return read_all(fd_, e.offset + kHeaderSize + e.key_len, data.data(),
                  data.size()) &&
         fnv1a64(data.data(), data.size()) == e.payload_sum;
}

// Replaces `*e`, the damaged entry for `fp`, by the newest record it
// superseded, keeping the entry's LRU clock.  False when none is left.
bool CachePack::fall_back_locked(std::uint64_t fp, Entry* e) {
  const auto it = older_.find(fp);
  if (it == older_.end()) return false;
  const std::uint64_t clock = e->clock;
  *e = it->second.back();
  e->clock = clock;
  it->second.pop_back();
  if (it->second.empty()) older_.erase(it);
  return true;
}

// Checksums every record not yet verified: each entry, falling back
// exactly as its first serve would, then each superseded record still
// kept, which is counted if damaged and then forgotten.
void CachePack::verify_all_locked() {
  for (auto it = entries_.begin(); it != entries_.end();) {
    Entry& e = it->second;
    if (e.verified || payload_intact_locked(e)) {
      e.verified = true;
      ++it;
      continue;
    }
    quarantine_locked(1);
    if (!fall_back_locked(it->first, &e)) it = entries_.erase(it);
  }
  for (const auto& [fp, copies] : older_) {
    for (const Entry& e : copies) {
      if (!e.verified && !payload_intact_locked(e)) quarantine_locked(1);
    }
  }
  older_.clear();
}

void CachePack::quarantine_locked(std::size_t n) {
  stats_.quarantined += n;
  metrics().quarantined.add(n);
}

// Applies LRU clocks from the advisory index.  Any malformed line is
// ignored -- the pack scan above is authoritative for what exists.
void CachePack::load_index_clocks_locked() {
  std::ifstream in(index_path_);
  if (!in) return;
  std::string line;
  while (std::getline(in, line)) {
    ++index_lines_;
    unsigned long long fp_in = 0, clk_in = 0;
    if (std::sscanf(line.c_str(), "%llx %llu", &fp_in, &clk_in) != 2) continue;
    const auto fp = static_cast<std::uint64_t>(fp_in);
    const auto clk = static_cast<std::uint64_t>(clk_in);
    const auto it = entries_.find(fp);
    if (it != entries_.end()) it->second.clock = std::max(it->second.clock, clk);
    clock_ = std::max(clock_, clk);
  }
}

CachePack& CachePack::instance(const std::string& dir) {
  static std::mutex mu;
  // One instance per directory, leaked deliberately: a thread that
  // fetched a reference must be able to use it even if another thread
  // concurrently asks for a different directory, and leaking sidesteps
  // static-destruction-order races with worker threads at exit.
  static auto* insts = new std::map<std::string, std::unique_ptr<CachePack>>;
  std::lock_guard<std::mutex> g(mu);
  auto& slot = (*insts)[dir];
  if (!slot) slot = std::make_unique<CachePack>(dir);
  return *slot;
}

// Reopens when the pack file at pack_path_ is no longer the file behind
// fd_ (removed or atomically replaced by another process's compaction).
// Returns true when a usable pack is open.
bool CachePack::reopen_if_stale_locked() {
  struct stat on_disk;
  if (fd_ >= 0 && ::stat(pack_path_.c_str(), &on_disk) == 0) {
    struct stat ours;
    if (::fstat(fd_, &ours) == 0 && ours.st_ino == on_disk.st_ino &&
        ours.st_dev == on_disk.st_dev) {
      return true;
    }
  }
  open_locked(/*dir_lock_held=*/false);
  return fd_ >= 0;
}

bool CachePack::get(std::uint64_t fp, std::string* payload) {
  if (!load(fp, payload)) return false;
  stamp({fp});
  return true;
}

// Reads under the mutex (a concurrent reopen or compaction may close the
// fd it reads) and checksums outside it, so a batch of loads runs in
// parallel.  That checksum is also the record's first verification when
// it has had none: an intact payload marks it verified, a damaged one is
// quarantined and the fingerprint's next-older record tried in its place.
// A verified record that no longer verifies (external truncation or
// overwrite) is dropped, so the caller re-runs and re-appends.
bool CachePack::load(std::uint64_t fp, std::string* payload) {
  std::unique_lock<std::mutex> g(m_);
  if (reopen_if_stale_locked()) {
    for (auto it = entries_.find(fp); it != entries_.end();
         it = entries_.find(fp)) {
      const Entry e = it->second;
      const std::uint64_t generation = generation_;
      std::string data(e.payload_len, '\0');
      bool intact = read_all(fd_, e.offset + kHeaderSize + e.key_len,
                             data.data(), data.size());
      if (intact) {
        g.unlock();
        intact = fnv1a64(data.data(), data.size()) == e.payload_sum;
        if (intact && e.verified) {
          metrics().hits.add();
          *payload = std::move(data);
          return true;
        }
        g.lock();
        it = entries_.find(fp);
      }
      // Whether `it` still holds the record read: a re-put, a fallback or
      // a reopen may have replaced it meanwhile.
      const bool same = it != entries_.end() && generation_ == generation &&
                        it->second.offset == e.offset &&
                        it->second.payload_sum == e.payload_sum;
      if (intact) {
        if (same) it->second.verified = true;
        metrics().hits.add();
        *payload = std::move(data);
        return true;
      }
      if (!same) continue;
      if (e.verified) {
        entries_.erase(it);
        break;
      }
      quarantine_locked(1);
      if (!fall_back_locked(fp, &it->second)) entries_.erase(it);
    }
  }
  metrics().misses.add();
  return false;
}

void CachePack::stamp(const std::vector<std::uint64_t>& fps) {
  std::lock_guard<std::mutex> g(m_);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> stamps;
  stamps.reserve(fps.size());
  for (const std::uint64_t fp : fps) {
    const auto it = entries_.find(fp);
    if (it == entries_.end()) continue;
    it->second.clock = ++clock_;
    stamps.emplace_back(fp, it->second.clock);
  }
  if (stamps.empty()) return;
  FileLock lock(dir_lock_fd_locked());
  append_index_lines_locked(stamps);
  // The index is append-only outside eviction; once it dwarfs the live
  // entry set (warm suites touch it on every hit), rewrite it in place.
  if (index_lines_ > 1024 && index_lines_ / 8 > entries_.size()) {
    rewrite_index_locked();
  }
}

void CachePack::put(std::uint64_t fp, const std::string& key,
                    const std::string& payload) {
  put({{fp, key, payload}});
}

void CachePack::put(const std::vector<CacheRecord>& records) {
  if (records.empty()) return;
  std::lock_guard<std::mutex> g(m_);
  // One cross-process critical section for the whole write: re-sync with
  // whatever other processes appended or compacted, append, then maybe
  // evict -- so our compaction can never drop their records.
  FileLock lock(dir_lock_fd_locked());
  resync_locked();
  if (fd_ < 0) return;
  append_records_locked(records);
  maybe_evict_locked();
  stats_.pack_bytes = pack_size_;
  metrics().puts.add(records.size());
  metrics().pack_bytes.set(pack_size_);
}

// Appends the records (caller holds the directory flock): all record
// bytes in one write and one fsync first, index lines last, so a crash
// can only lose the not-yet-indexed tail (which the next open's scan
// recovers anyway) and tear at most the last record.
void CachePack::append_records_locked(const std::vector<CacheRecord>& records) {
  if (fd_ < 0) return;
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  if (end < 0) return;
  std::string bytes;
  std::vector<std::pair<std::uint64_t, Entry>> added;
  added.reserve(records.size());
  for (const CacheRecord& r : records) {
    Header h;
    h.key_len = static_cast<std::uint32_t>(
        std::min<std::size_t>(r.key.size(), kMaxKeyLen));
    h.payload_len = static_cast<std::uint32_t>(r.payload.size());
    h.fp = r.fp;
    h.payload_sum = fnv1a64(r.payload.data(), r.payload.size());
    Entry e;
    e.offset = static_cast<std::uint64_t>(end) + bytes.size();
    e.key_len = h.key_len;
    e.payload_len = h.payload_len;
    e.payload_sum = h.payload_sum;
    e.verified = true;  // checksummed from the bytes being written
    added.emplace_back(r.fp, e);
    bytes += encode_record(h, r.key, r.payload);
  }
  if (!write_all(fd_, bytes.data(), bytes.size())) {
    // Torn append (e.g. disk full): trim it so the pack tail stays clean.
    if (::ftruncate(fd_, end) != 0) { /* scan quarantines the tail */ }
    return;
  }
  ::fsync(fd_);

  std::vector<std::pair<std::uint64_t, std::uint64_t>> stamps;
  stamps.reserve(added.size());
  for (auto& [fp, e] : added) {
    e.clock = ++clock_;
    add_entry_locked(fp, e);
    stamps.emplace_back(fp, e.clock);
  }
  pack_size_ = static_cast<std::uint64_t>(end) + bytes.size();
  append_index_lines_locked(stamps);
}

void CachePack::append_index_lines_locked(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& stamps) {
  const int ifd = ::open(index_path_.c_str(),
                         O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (ifd < 0) return;
  std::string lines;
  for (const auto& [fp, clock] : stamps) {
    char line[64];
    const int n = std::snprintf(line, sizeof(line), "%016llx %llu\n",
                                static_cast<unsigned long long>(fp),
                                static_cast<unsigned long long>(clock));
    if (n > 0) lines.append(line, static_cast<std::size_t>(n));
  }
  if (write_all(ifd, lines.data(), lines.size())) {
    index_lines_ += stamps.size();
  }
  ::close(ifd);
}

// Rewrites the advisory index to one line per live entry (caller holds
// the directory flock); tmp file + atomic rename so readers never see a
// half-written index.
void CachePack::rewrite_index_locked() {
  const std::string tmp_idx = index_path_ + ".tmp";
  {
    std::ofstream idx(tmp_idx, std::ios::trunc);
    if (!idx) return;
    for (const auto& [fp, e] : entries_) {
      char line[64];
      std::snprintf(line, sizeof(line), "%016llx %llu\n",
                    static_cast<unsigned long long>(fp),
                    static_cast<unsigned long long>(e.clock));
      idx << line;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp_idx, index_path_, ec);
  if (ec) {
    std::filesystem::remove(tmp_idx, ec);
    return;
  }
  index_lines_ = entries_.size();
}

// LRU eviction by byte budget: when the pack outgrows max_bytes_, keep
// the most recently used records that fit (always at least the newest)
// and compact pack + index via tmp file + atomic rename.
void CachePack::maybe_evict_locked() {
  if (max_bytes_ == 0 || pack_size_ <= max_bytes_ || fd_ < 0) return;
  compact_locked(max_bytes_);
}

// Rewrites the pack keeping the most-recently-used records that fit
// `budget` (0 = keep every live record; the rewrite still reclaims bytes
// of superseded re-puts and quarantined regions).  Caller holds the
// directory flock and has resync'd, so entries_ covers every process's
// records and nothing another process appended can be dropped.  Every
// record is verified first, and each copied record is checksummed again
// as it is copied: damage that arrived since is quarantined, not carried.
void CachePack::compact_locked(std::uint64_t budget) {
  if (fd_ < 0) return;
  verify_all_locked();

  std::vector<std::pair<std::uint64_t, std::uint64_t>> by_use;  // clock, fp
  by_use.reserve(entries_.size());
  for (const auto& [fp, e] : entries_) by_use.emplace_back(e.clock, fp);
  std::sort(by_use.rbegin(), by_use.rend());

  const std::string tmp_pack = pack_path_ + ".tmp";
  const int out = ::open(tmp_pack.c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (out < 0) return;

  std::map<std::uint64_t, Entry> kept;
  std::uint64_t used = 0;
  std::size_t dropped = 0;
  std::size_t damaged = 0;
  bool ok = true;
  for (std::size_t i = 0; i < by_use.size() && ok; ++i) {
    const std::uint64_t fp = by_use[i].second;
    const Entry& e = entries_[fp];
    const std::uint64_t rec_len = kHeaderSize + e.key_len + e.payload_len;
    if (budget != 0 && i > 0 && used + rec_len > budget) {
      ++dropped;
      continue;
    }
    std::vector<unsigned char> rec(rec_len);
    Header h;
    if (!read_all(fd_, e.offset, rec.data(), rec.size()) ||
        !decode_header(rec.data(), &h) || h.fp != fp ||
        fnv1a64(rec.data() + kHeaderSize + h.key_len, h.payload_len) !=
            e.payload_sum) {
      ++damaged;  // damaged since verified: drop rather than copy garbage
      continue;
    }
    Entry ne = e;
    ne.offset = used;
    ok = write_all(out, rec.data(), rec.size());
    if (ok) {
      kept[fp] = ne;
      used += rec_len;
    }
  }
  ::fsync(out);
  ::close(out);
  std::error_code ec;
  if (!ok) {
    std::filesystem::remove(tmp_pack, ec);
    return;
  }
  std::filesystem::rename(tmp_pack, pack_path_, ec);
  if (ec) {
    std::filesystem::remove(tmp_pack, ec);
    return;
  }

  // Swap in the compacted pack, then rewrite the index to one line per
  // surviving record.
  const int nfd = ::open(pack_path_.c_str(), O_RDWR | O_CLOEXEC);
  if (nfd < 0) {
    close_locked();
    return;
  }
  ::close(fd_);
  fd_ = nfd;
  ++generation_;
  entries_ = std::move(kept);
  pack_size_ = used;
  stats_.evictions += dropped;
  metrics().evictions.add(dropped);
  quarantine_locked(damaged);
  metrics().pack_bytes.set(pack_size_);
  rewrite_index_locked();
}

CachePackStats CachePack::compact(std::uint64_t max_bytes) {
  std::lock_guard<std::mutex> g(m_);
  FileLock lock(dir_lock_fd_locked());
  resync_locked();
  if (fd_ >= 0) {
    compact_locked(max_bytes);
    stats_.pack_bytes = pack_size_;
  }
  stats_.records = entries_.size();
  return stats_;
}

CachePackStats CachePack::stats() {
  std::lock_guard<std::mutex> g(m_);
  verify_all_locked();
  stats_.records = entries_.size();
  return stats_;
}

}  // namespace clear::inject
