// Flat POD state arena + copy-on-write snapshot segments.
//
// The checkpoint/fork injection engine snapshots the golden run at
// intervals and forks thousands of faulty runs from those snapshots.  With
// per-field heap vectors a snapshot materializes ~10 allocations and copies
// every byte even though consecutive golden checkpoints (and a converged
// faulty run vs. its checkpoint) differ in a handful of cache lines.  The
// arena extends the FFRegistry pooling idea to *all* sequential state:
//
//   * StateArena lays a core's non-FF state (scalar fields, register file,
//     data memory, SRAM arrays, OUT stream) out in one contiguous
//     u64-aligned buffer.  Sections added before mark_aux() are the
//     "forward" region -- state that can influence the remainder of the
//     run; sections after it are bookkeeping (cycle counters, outcome
//     latches) excluded from state_matches().
//   * The convergence compare (matches_fwd) is word-exact on the forward
//     region and, given a boundary's FF live set (arch/liveness.h), on
//     the live FF-pool slots only: an FF slot golden writes before it
//     next reads it cannot influence the rest of a quiescent run.
//   * ArenaSnapshot captures the two flat spans of a core -- the FFRegistry
//     pool and the arena buffer -- as refcounted fixed-size segments drawn
//     from a process-wide pool.  Capture shares a segment with the
//     previous snapshot of the same layout when its bytes are unchanged
//     (copy-on-write without MMU tricks: snapshots are immutable, so
//     sharing is safe across campaign worker threads).
//   * The arena tracks which of its segments were written since the last
//     snapshot of or restore into it (last_snap_).  Every write goes
//     through an ArenaPtr, which marks its segment dirty; a clean segment
//     equals last_snap_'s.  Restore copies exactly the segments that are
//     dirty or whose segment pointer differs between last_snap_ and the
//     target; the boundary compare checks only those; capture shares the
//     clean ones without a compare.  The FF pool (latches change every
//     cycle) is always copied and compared.
//   * The layout fingerprint hashes the arena's section table together with
//     an identity seed (core model, program image, resilience config), so
//     restore() into a core begun with a different (program, config) --
//     previously documented UB -- is detected and refused.
#ifndef CLEAR_ARCH_ARENA_H
#define CLEAR_ARCH_ARENA_H

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <vector>

namespace clear::isa {
struct Program;
}

namespace clear::arch {

struct ResilienceConfig;

// Bump when the meaning of the arena encoding changes; feeds the layout
// fingerprint so stale checkpoints can never be restored silently.
inline constexpr std::uint64_t kArenaLayoutVersion = 1;

// Segment granularity: 256 u64 words = 2 KiB.  Small enough that a faulty
// run's dirty set (a few registers, a store or two, the OUT tail) touches
// few segments; large enough that per-segment bookkeeping is noise.
// Re-timed with dirty tracking: perfbench `campaign`, seed 1, 4 threads,
// samples/s in alternating pairs against 256 (peak RSS 21.5 MB at 256):
//   128: 366.9k / 346.8k / 322.0k vs 380.7k / 337.2k / 362.8k (1 of 3 won)
//   512: 286.0k / 294.1k / 305.6k vs 299.8k / 316.9k / 325.8k (0 of 3 won;
//        peak RSS 22.5 MB)
inline constexpr std::size_t kSegWords = 256;

// Test-side view of the pool, snapshot segments and arena buffer (a
// friend of each; defined in tests/test_arena.cpp).
struct ArenaAccess;

namespace detail {

struct Segment {
  std::atomic<std::uint32_t> refs{0};
  std::uint64_t w[kSegWords];
};

// Process-wide segment pool.  Campaigns allocate and drop thousands of
// snapshots; recycling segments keeps that out of the allocator.  The
// freelist is capped so a one-off huge campaign does not pin memory
// forever.
class SegPool {
 public:
  static SegPool& instance();
  [[nodiscard]] Segment* acquire();
  void release(Segment* s) noexcept;

 private:
  friend struct arch::ArenaAccess;

  static constexpr std::size_t kMaxFree = 8192;  // 16 MiB of pooled segments
  // Mutex-free stack would need ABA care; a mutex is fine at snapshot rate.
  std::mutex m_;
  std::vector<Segment*> free_list_;
  SegPool() = default;
};

// Intrusive refcounted handle to one pooled segment.
class SegRef {
 public:
  SegRef() = default;
  explicit SegRef(Segment* s) noexcept : s_(s) {
    if (s_) s_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  SegRef(const SegRef& o) noexcept : SegRef(o.s_) {}
  SegRef(SegRef&& o) noexcept : s_(o.s_) { o.s_ = nullptr; }
  SegRef& operator=(const SegRef& o) noexcept {
    // Same segment: refcount already accounts for both handles.  Snapshot
    // bookkeeping re-assigns mostly-shared segment tables constantly, and
    // skipping the redundant atomic pair here is a measurable win.
    if (this != &o && s_ != o.s_) {
      reset();
      s_ = o.s_;
      if (s_) s_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    return *this;
  }
  SegRef& operator=(SegRef&& o) noexcept {
    if (this != &o) {
      reset();
      s_ = o.s_;
      o.s_ = nullptr;
    }
    return *this;
  }
  ~SegRef() { reset(); }

  [[nodiscard]] const std::uint64_t* words() const noexcept { return s_->w; }
  [[nodiscard]] bool same(const SegRef& o) const noexcept {
    return s_ == o.s_;
  }

 private:
  void reset() noexcept;
  Segment* s_ = nullptr;
};

}  // namespace detail

// Read-only / mutable views of the flat spans a snapshot covers.
struct SpanView {
  const std::uint64_t* base = nullptr;
  std::size_t words = 0;
};
struct SpanViewMut {
  std::uint64_t* base = nullptr;
  std::size_t words = 0;
};

// An immutable, segment-shared copy of a core's flat state spans.
//
// The capture, restore and compare below take an optional reference
// snapshot `ref` and, per span, a dirty mask (bit i % 64 of word i / 64
// for segment i): the live span is known to equal `ref` in every segment
// whose bit is clear.  A null mask (or a null `ref`) knows nothing, and
// every segment of that span is copied or compared.
class ArenaSnapshot {
 public:
  // Captures `n` spans.  When `prev` is a snapshot of the same span shape,
  // segments whose bytes are unchanged are shared instead of copied --
  // consecutive golden checkpoints typically share almost all of memory.
  // A segment clean in `dirty[s]` is shared with `prev` without a compare.
  void capture(const SpanView* spans, std::size_t n, const ArenaSnapshot* prev,
               const std::uint64_t* const* dirty);
  // Writes the snapshot back.  Segment i of span s is skipped only when it
  // is clean in `dirty[s]` and `ref` holds the same segment as this
  // snapshot (then the live bytes already equal it); all others are
  // copied.
  void restore_to(const SpanViewMut* spans, std::size_t n,
                  const ArenaSnapshot* ref,
                  const std::uint64_t* const* dirty) const;
  // True iff the first `nwords` words of `base` equal the snapshot's span,
  // skipping the segments `restore_to` would skip (equal by construction).
  // Without `ref` it is a plain memcmp of every segment, rejecting at the
  // first divergent one.
  [[nodiscard]] bool matches_prefix(std::size_t span, const std::uint64_t* base,
                                    std::size_t nwords,
                                    const ArenaSnapshot* ref = nullptr,
                                    const std::uint64_t* dirty = nullptr) const;
  // Liveness-masked form: word i of the span is compared only when bit i
  // of `live` is set (live[i / 64] >> (i % 64)); the span must be whole.
  [[nodiscard]] bool matches_live(std::size_t span, const std::uint64_t* base,
                                  const std::uint64_t* live) const;

  [[nodiscard]] bool empty() const noexcept { return spans_.empty(); }
  void clear() noexcept { spans_.clear(); }

 private:
  friend struct ArenaAccess;

  struct Span {
    std::size_t words = 0;
    std::vector<detail::SegRef> segs;
  };
  // True when segment i of `span` is known to hold this snapshot's bytes.
  [[nodiscard]] bool known_equal(std::size_t span, std::size_t i,
                                 const ArenaSnapshot* ref,
                                 const std::uint64_t* dirty) const noexcept {
    return ref != nullptr && dirty != nullptr &&
           ((dirty[i / 64] >> (i % 64)) & 1u) == 0 &&
           ref->spans_[span].segs[i].same(spans_[span].segs[i]);
  }
  std::vector<Span> spans_;
};

template <class T>
class ArenaPtr;

// One core's contiguous non-FF state buffer plus its section table.
//
// Layout protocol (per begin()):
//   arena.begin_layout(ff_base, ff_words);
//   int regs = arena.add_u32(32);
//   int mem  = arena.add_u32(mem_words);
//   ...
//   arena.mark_aux();                  // sections below: bookkeeping only
//   int aux  = arena.add_u64(kAuxWords);
//   arena.finish_layout(identity);     // sizes + zero-fills + fingerprint
//   regs_ = arena.section<std::uint32_t>(regs); ...  // typed handles
//
// Sections are padded to u64 words; handles stay valid until the next
// begin_layout().  finish_layout() zero-fills the buffer, which doubles as
// the reset of everything arena-resident.
//
// Dirty tracking.  The arena keeps last_snap_, the snapshot last taken
// from or restored into it, and one dirty bit per segment of the buffer.
// Invariant: a segment whose bit is clear equals last_snap_'s segment.
// snapshot_to() and restore_from() leave the buffer equal to the snapshot
// they handle, make it last_snap_ and clear every bit; every write
// afterwards marks its segment (ArenaPtr).  Until the first snapshot or
// restore after begin_layout(), and for good once raw_buf() has handed
// out an unguarded pointer, every segment counts as dirty.
class StateArena {
 public:
  void begin_layout(std::uint64_t* ff_base, std::size_t ff_words) {
    ff_base_ = ff_base;
    ff_words_ = ff_words;
    secs_.clear();
    aux_from_ = static_cast<std::size_t>(-1);
    laid_out_ = false;
    last_snap_.clear();
    raw_ = false;
  }
  int add_u64(std::size_t n) { return add(8, n); }
  int add_u32(std::size_t n) { return add(4, n); }
  int add_u8(std::size_t n) { return add(1, n); }
  // Everything added after this call is bookkeeping: excluded from
  // matches_fwd(), still snapshotted and restored.
  void mark_aux() { aux_from_ = secs_.size(); }
  void finish_layout(std::uint64_t identity);

  // Typed write-tracking handle to section `s` (element type 1, 4 or 8
  // bytes wide, matching its add_*()).
  template <class T>
  [[nodiscard]] ArenaPtr<T> section(int s) noexcept {
    return ArenaPtr<T>(this, reinterpret_cast<T*>(
                                 buf_.data() +
                                 secs_[static_cast<std::size_t>(s)].off_words));
  }
  // Marks the segment holding the byte at `p` (inside the buffer) dirty.
  void mark(const void* p) noexcept {
    const auto seg = static_cast<std::size_t>(
                         static_cast<const std::uint8_t*>(p) -
                         reinterpret_cast<const std::uint8_t*>(buf_.data())) /
                     (kSegWords * 8);
    dirty_[seg / 64] |= std::uint64_t{1} << (seg % 64);
  }

  [[nodiscard]] std::uint64_t fingerprint() const noexcept { return fp_; }
  [[nodiscard]] std::size_t ff_words() const noexcept { return ff_words_; }
  [[nodiscard]] std::size_t total_words() const noexcept {
    return buf_.size();
  }
  [[nodiscard]] std::size_t fwd_words() const noexcept { return fwd_words_; }
  // ---- snapshot plumbing (the few bounded memcpys) ----
  // Both make the snapshot last_snap_ and clear every dirty bit.
  void snapshot_to(ArenaSnapshot* out) const {
    const SpanView spans[2] = {{ff_base_, ff_words_},
                               {buf_.data(), buf_.size()}};
    const std::uint64_t* dirty[2] = {nullptr, tracked_dirty()};
    out->capture(spans, 2, last_snap_.empty() ? nullptr : &last_snap_, dirty);
    last_snap_ = *out;
    clean();
  }
  void restore_from(const ArenaSnapshot& snap) {
    const SpanViewMut spans[2] = {{ff_base_, ff_words_},
                                  {buf_.data(), buf_.size()}};
    const std::uint64_t* dirty[2] = {nullptr, tracked_dirty()};
    snap.restore_to(spans, 2, &last_snap_, dirty);
    last_snap_ = snap;
    clean();
  }
  // Comparison of the forward region: the fwd sections word-exact (the
  // dirty segments and those last_snap_ does not share with `snap`),
  // the FF pool word-exact too unless `live_ff` (one bit per pool slot)
  // narrows it to the slots set there.
  [[nodiscard]] bool matches_fwd(const ArenaSnapshot& snap,
                                 const std::uint64_t* live_ff) const {
    const bool ff_ok = live_ff != nullptr
                           ? snap.matches_live(0, ff_base_, live_ff)
                           : snap.matches_prefix(0, ff_base_, ff_words_);
    return ff_ok &&
           snap.matches_prefix(1, buf_.data(), fwd_words_, &last_snap_,
                               tracked_dirty());
  }

  // Raw mutable view of the serialized image (state-corruption fuzzing).
  // Writes through it bypass the dirty bits, so from here until the next
  // begin_layout() every segment counts as dirty.
  [[nodiscard]] std::uint64_t* raw_buf() noexcept {
    raw_ = true;
    return buf_.data();
  }

 private:
  friend struct ArenaAccess;

  struct Section {
    std::size_t elem_size = 0;  // 1, 4 or 8
    std::size_t count = 0;
    std::size_t off_words = 0;
    std::size_t words = 0;
  };

  int add(std::size_t elem_size, std::size_t count) {
    assert(!laid_out_);
    Section s;
    s.elem_size = elem_size;
    s.count = count;
    s.words = (elem_size * count + 7) / 8;
    secs_.push_back(s);
    return static_cast<int>(secs_.size() - 1);
  }
  // The dirty mask of the buffer span, or nullptr while nothing is known.
  [[nodiscard]] const std::uint64_t* tracked_dirty() const noexcept {
    return last_snap_.empty() || raw_ ? nullptr : dirty_.data();
  }
  void clean() const noexcept {
    std::fill(dirty_.begin(), dirty_.end(), std::uint64_t{0});
  }

  std::uint64_t* ff_base_ = nullptr;
  std::size_t ff_words_ = 0;
  std::vector<Section> secs_;
  std::size_t aux_from_ = static_cast<std::size_t>(-1);
  std::vector<std::uint64_t> buf_;
  std::size_t fwd_words_ = 0;
  std::uint64_t fp_ = 0;
  bool laid_out_ = false;
  // Dirty tracking (see the class comment).  Mutable: snapshotting a core
  // is logically const but re-bases the tracking.
  mutable ArenaSnapshot last_snap_;
  mutable std::vector<std::uint64_t> dirty_;
  bool raw_ = false;
};

// Typed pointer into one StateArena section.  Reads are plain loads;
// every write goes through set(), which marks the written segment dirty
// first.  The cores hold no other mutable pointer into the arena, so a
// write that would skip the mark does not compile.
template <class T>
class ArenaPtr {
 public:
  ArenaPtr() = default;
  ArenaPtr(StateArena* arena, T* p) noexcept : arena_(arena), p_(p) {}
  [[nodiscard]] T operator[](std::size_t i) const noexcept { return p_[i]; }
  void set(std::size_t i, T v) const noexcept {
    arena_->mark(p_ + i);
    p_[i] = v;
  }
  [[nodiscard]] const T* get() const noexcept { return p_; }
  [[nodiscard]] ArenaPtr operator+(std::size_t n) const noexcept {
    return ArenaPtr(arena_, p_ + n);
  }

 private:
  StateArena* arena_ = nullptr;
  T* p_ = nullptr;
};

// Arena-resident OUT stream.  Slot 0 of the bound region is the length;
// data lives in slots 1..cap.  The stream is part of the forward region, so
// overflow past the fixed capacity spills into a core-owned vector that the
// checkpoint stores (and state_matches compares) separately.  Shrinking
// zero-fills the dropped arena slots so stale bytes cannot defeat the
// word-exact convergence compare.
class OutputBuf {
 public:
  void bind(ArenaPtr<std::uint32_t> base, std::uint32_t cap,
            std::vector<std::uint32_t>* spill) noexcept {
    base_ = base;
    cap_ = cap;
    spill_ = spill;
  }
  [[nodiscard]] std::size_t size() const noexcept { return base_[0]; }
  void push(std::uint32_t v) {
    const std::uint32_t n = base_[0];
    if (n < cap_) {
      base_.set(1 + n, v);
    } else {
      spill_->push_back(v);
    }
    base_.set(0, n + 1);
  }
  void resize(std::size_t n) {
    const std::size_t cur = base_[0];
    if (n < cur) {
      const std::size_t hi = cur < cap_ ? cur : cap_;
      for (std::size_t i = n; i < hi; ++i) base_.set(1 + i, 0);
      spill_->resize(n > cap_ ? n - cap_ : 0);
    } else {
      for (std::size_t i = cur; i < n; ++i) push(0);
    }
    base_.set(0, static_cast<std::uint32_t>(n));
  }
  [[nodiscard]] std::vector<std::uint32_t> to_vector() const {
    std::vector<std::uint32_t> out;
    const std::size_t n = base_[0];
    out.reserve(n);
    const std::size_t in_arena = n < cap_ ? n : cap_;
    const std::uint32_t* data = base_.get() + 1;
    out.insert(out.end(), data, data + in_arena);
    out.insert(out.end(), spill_->begin(), spill_->end());
    return out;
  }

 private:
  ArenaPtr<std::uint32_t> base_;
  std::uint32_t cap_ = 0;
  std::vector<std::uint32_t>* spill_ = nullptr;
};

// Identity seed for the layout fingerprint: core model + program image +
// resilience configuration.  Two cores whose identities differ must never
// exchange checkpoints even if their section tables coincide.
[[nodiscard]] std::uint64_t layout_identity(const char* core_name,
                                            const isa::Program& prog,
                                            const ResilienceConfig* cfg);

}  // namespace clear::arch

#endif  // CLEAR_ARCH_ARENA_H
