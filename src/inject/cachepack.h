// Packed on-disk store for the campaign cache: exactly two files per
// cache directory, however many campaigns it memoizes:
//
//   campaigns.pack - append-only sequence of checksummed records
//   campaigns.idx  - append-only LRU metadata (one "<fp> <clock>" line per
//                    put/get); purely advisory, never trusted for record
//                    locations
//
// Record layout (little-endian):
//
//   magic            u32   "CPK1"
//   key_len          u32
//   payload_len      u32
//   fingerprint      u64   campaign identity (spec_fingerprint)
//   payload_checksum u64   FNV-1a over the payload bytes
//   header_checksum  u64   FNV-1a over the 28 header bytes above
//   key bytes, payload bytes
//
// Durability and corruption tolerance: an append writes the full records
// of one put (one record, or a batch), fsyncs the pack once, and only then
// appends their index lines -- a crash at any point leaves a prefix of
// intact records plus at most one torn tail.
// open() never trusts the index for locations: it walks the record
// headers (one 36-byte read each, no payload byte), takes every record
// whose header verifies, and quarantines each region of damaged or torn
// headers, re-synchronizing on the next magic with a byte scan.  Payloads
// are checksummed when first served, by the re-read and re-verify every
// load() does anyway, so no damaged payload is ever served, whether the
// damage predates the open or not.  A later record of a fingerprint wins
// only if its payload is intact; otherwise the next-older copy is served.
// stats() and compaction first checksum every record not yet verified, so
// they count what a scan that checked every payload at open would count.
// Concurrent processes serialize appends and compaction with an flock()
// on the cache directory itself (a stable inode that compaction's
// rename cannot swap out from under a waiter); before writing, a process
// re-synchronizes under the lock -- a replaced pack inode triggers a full
// reopen, a grown pack gets its tail scanned -- so compaction never drops
// records another process appended, and appends never land in an
// already-unlinked pack.
//
// Eviction: when the pack exceeds `max_bytes` (CLEAR_CACHE_MAX_BYTES,
// 0 = unlimited), the least-recently-used records are dropped and the pack
// + index are compacted via tmp-file + atomic rename.  Any other file in
// the directory is ignored.
#ifndef CLEAR_INJECT_CACHEPACK_H
#define CLEAR_INJECT_CACHEPACK_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace clear::inject {

// Pack record format version.  The version lives in the record magic
// ("CPK1"): a format change mints a new magic ("CPK2"), old readers
// quarantine the unknown records instead of misparsing them.  Owned
// here, next to the layout; `clear version` reports it alongside the
// CSR/CXL versions so operators can diagnose skew in one place.
constexpr std::uint32_t kCachePackVersion = 1;

// One record of a batch put.
struct CacheRecord {
  std::uint64_t fp = 0;
  std::string key;
  std::string payload;
};

struct CachePackStats {
  std::size_t records = 0;      // live (verified) records
  std::size_t quarantined = 0;  // corrupt records/regions found and dropped
  std::size_t evictions = 0;    // records dropped by the byte budget
  std::uint64_t pack_bytes = 0; // pack file size after open/compaction
};

class CachePack {
 public:
  // Opens (creating if needed) the pack inside `dir`, finding every record
  // by its header.  max_bytes = 0 reads
  // CLEAR_CACHE_MAX_BYTES (0 = unlimited).
  explicit CachePack(std::string dir, std::uint64_t max_bytes = 0);
  ~CachePack();

  CachePack(const CachePack&) = delete;
  CachePack& operator=(const CachePack&) = delete;

  // Process-wide instance for the given cache directory (one per dir,
  // never destroyed while the process runs: a reference obtained before a
  // concurrent instance() call for another dir must stay valid).  Each
  // instance reopens itself when its pack file is removed/replaced
  // externally.
  static CachePack& instance(const std::string& dir);

  // Loads the payload stored under `fp`.  Returns false on a miss or when
  // the on-disk bytes no longer verify (never serves a wrong-checksum
  // payload; a damaged record on its first serve falls back to the
  // fingerprint's next-older intact record).  A hit refreshes the entry's
  // LRU clock: get() is load() followed by stamp({fp}).
  bool get(std::uint64_t fp, std::string* payload);
  // get() without the LRU refresh.  Safe to call from many threads at
  // once: the payload is read under the pack mutex but checksummed
  // outside it.
  bool load(std::uint64_t fp, std::string* payload);
  // Refreshes the LRU clock of each listed fingerprint the pack still
  // holds, in list order, with one index append.  A batch of load()s
  // stamped this way leaves the index its serial get()s would.
  void stamp(const std::vector<std::uint64_t>& fps);

  // Appends (or replaces) the record for `fp`.  `key` is stored alongside
  // the payload for debuggability only.  Triggers LRU eviction when the
  // pack exceeds the byte budget.
  void put(std::uint64_t fp, const std::string& key,
           const std::string& payload);
  // Appends (or replaces) several records with one write and one fsync,
  // then their index lines: a crash leaves every record before the torn
  // one intact.  Later records win over earlier ones with the same `fp`.
  void put(const std::vector<CacheRecord>& records);

  // Rewrites the pack immediately (tmp file + atomic rename), reclaiming
  // bytes of superseded re-puts and quarantined regions.  max_bytes > 0
  // additionally evicts least-recently-used records until the survivors
  // fit the budget (the same policy CLEAR_CACHE_MAX_BYTES applies on
  // put()); max_bytes = 0 keeps every live record.  Cross-process safe
  // (directory flock + resync).  Returns the post-compaction stats.
  // Exposed to operators as `clear cache compact` / `clear cache evict`.
  CachePackStats compact(std::uint64_t max_bytes = 0);

  // Checksums every record not yet verified first, so the counts are
  // those of an open that checked every payload.
  [[nodiscard]] CachePackStats stats();
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  // File names inside the cache directory.
  static constexpr const char* kPackName = "campaigns.pack";
  static constexpr const char* kIndexName = "campaigns.idx";

 private:
  struct Entry {
    std::uint64_t offset = 0;    // record start in the pack
    std::uint32_t key_len = 0;
    std::uint32_t payload_len = 0;
    std::uint64_t payload_sum = 0;
    std::uint64_t clock = 0;     // LRU stamp (higher = more recent)
    bool verified = false;       // payload checksummed since it was found
  };

  // `_locked` = caller holds m_.  Methods that write to disk additionally
  // document whether the caller must hold the cross-process directory
  // flock (see dir_lock_fd_locked).
  void open_locked(bool dir_lock_held);
  void close_locked() noexcept;
  bool reopen_if_stale_locked();
  int dir_lock_fd_locked();
  void resync_locked();  // requires the directory flock
  void scan_pack_range_locked(std::uint64_t from);
  void add_entry_locked(std::uint64_t fp, const Entry& e);
  bool payload_intact_locked(const Entry& e) const;
  bool fall_back_locked(std::uint64_t fp, Entry* e);
  void verify_all_locked();
  void quarantine_locked(std::size_t n);
  void load_index_clocks_locked();
  // The append/evict/index writers all require the directory flock.
  void append_records_locked(const std::vector<CacheRecord>& records);
  void append_index_lines_locked(
      const std::vector<std::pair<std::uint64_t, std::uint64_t>>& stamps);
  void rewrite_index_locked();
  void maybe_evict_locked();
  void compact_locked(std::uint64_t budget);  // budget 0 = keep all live

  mutable std::mutex m_;
  std::string dir_;
  std::string pack_path_;
  std::string index_path_;
  std::uint64_t max_bytes_ = 0;
  int fd_ = -1;                 // pack file descriptor (append + read)
  int dir_fd_ = -1;             // directory fd, flock target (stable inode)
  std::uint64_t pack_size_ = 0; // our view of the pack size
  std::uint64_t clock_ = 0;     // logical LRU clock
  std::size_t index_lines_ = 0; // advisory-index length (compaction trigger)
  std::map<std::uint64_t, Entry> entries_;  // fingerprint -> record
  // Superseded records of a fingerprint, oldest first: the fallback when
  // an unverified later record turns out damaged, and still to be counted
  // by stats() and compaction if damaged themselves.
  std::map<std::uint64_t, std::vector<Entry>> older_;
  std::uint64_t generation_ = 0;  // bumped whenever fd_ changes file
  CachePackStats stats_;
};

}  // namespace clear::inject

#endif  // CLEAR_INJECT_CACHEPACK_H
