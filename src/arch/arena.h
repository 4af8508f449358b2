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
//     latches) excluded from state_matches()/state_hash().
//   * The convergence compare (matches_fwd) is word-exact on the forward
//     region and, given a boundary's FF live set (arch/liveness.h), on
//     the live FF-pool slots only: an FF slot golden writes before it
//     next reads it cannot influence the rest of a quiescent run.
//   * ArenaSnapshot captures the two flat spans of a core -- the FFRegistry
//     pool and the arena buffer -- as refcounted fixed-size segments drawn
//     from a process-wide pool.  Capture compares each segment against a
//     previous snapshot of the same layout and shares the segment when the
//     bytes are unchanged (copy-on-write without MMU tricks: snapshots are
//     immutable, so sharing is safe across campaign worker threads).
//     Restore copies only the segments that differ from the live state.
//   * The layout fingerprint hashes the arena's section table together with
//     an identity seed (core model, program image, resilience config), so
//     restore() into a core begun with a different (program, config) --
//     previously documented UB -- is detected and refused.
#ifndef CLEAR_ARCH_ARENA_H
#define CLEAR_ARCH_ARENA_H

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
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
inline constexpr std::size_t kSegWords = 256;

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
  // Diagnostics (tests/bench): segments currently live outside the pool.
  [[nodiscard]] std::size_t live() const noexcept {
    return live_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kMaxFree = 8192;  // 16 MiB of pooled segments
  std::atomic<std::size_t> live_{0};
  // Mutex-free stack would need ABA care; a mutex is fine at snapshot rate.
  struct Impl;
  Impl* impl_;
  SegPool();
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
  [[nodiscard]] explicit operator bool() const noexcept {
    return s_ != nullptr;
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
class ArenaSnapshot {
 public:
  // Captures `n` spans.  When `prev` is a snapshot of the same span shape,
  // segments whose bytes are unchanged are shared instead of copied --
  // consecutive golden checkpoints typically share almost all of memory.
  void capture(const SpanView* spans, std::size_t n, const ArenaSnapshot* prev);
  // Writes the snapshot back, copying only segments that differ from the
  // destination's current contents.
  void restore_to(const SpanViewMut* spans, std::size_t n) const;
  // True iff the first `nwords` words of `base` equal the snapshot's span.
  // Rejects at the first divergent segment (memcmp word-wise underneath).
  [[nodiscard]] bool matches_prefix(std::size_t span, const std::uint64_t* base,
                                    std::size_t nwords) const;
  // Liveness-masked form: word i of the span is compared only when bit i
  // of `live` is set (live[i / 64] >> (i % 64)); the span must be whole.
  [[nodiscard]] bool matches_live(std::size_t span, const std::uint64_t* base,
                                  const std::uint64_t* live) const;

  [[nodiscard]] bool empty() const noexcept { return spans_.empty(); }
  void clear() noexcept { spans_.clear(); }

  [[nodiscard]] std::size_t span_words(std::size_t span) const noexcept {
    return spans_[span].words;
  }
  // Logical payload size (what a non-COW copy would have stored).
  [[nodiscard]] std::size_t size_bytes() const noexcept;
  [[nodiscard]] std::size_t segment_count() const noexcept;
  // Segments physically shared with `o` (pointer-equal refs).
  [[nodiscard]] std::size_t segments_shared_with(
      const ArenaSnapshot& o) const noexcept;

 private:
  struct Span {
    std::size_t words = 0;
    std::vector<detail::SegRef> segs;
  };
  std::vector<Span> spans_;
};

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
//   regs_ = arena.u32(regs); ...       // fetch stable typed pointers
//
// Sections are padded to u64 words; pointers stay valid until the next
// begin_layout().  finish_layout() zero-fills the buffer, which doubles as
// the reset of everything arena-resident.
class StateArena {
 public:
  void begin_layout(std::uint64_t* ff_base, std::size_t ff_words) {
    ff_base_ = ff_base;
    ff_words_ = ff_words;
    secs_.clear();
    aux_from_ = static_cast<std::size_t>(-1);
    laid_out_ = false;
  }
  int add_u64(std::size_t n) { return add(8, n); }
  int add_u32(std::size_t n) { return add(4, n); }
  int add_u8(std::size_t n) { return add(1, n); }
  // Everything added after this call is bookkeeping: excluded from
  // matches_fwd()/hash_fwd(), still snapshotted and restored.
  void mark_aux() { aux_from_ = secs_.size(); }
  void finish_layout(std::uint64_t identity);

  [[nodiscard]] std::uint64_t* u64(int s) noexcept {
    return buf_.data() + secs_[static_cast<std::size_t>(s)].off_words;
  }
  [[nodiscard]] std::uint32_t* u32(int s) noexcept {
    return reinterpret_cast<std::uint32_t*>(u64(s));
  }
  [[nodiscard]] std::uint8_t* u8(int s) noexcept {
    return reinterpret_cast<std::uint8_t*>(u64(s));
  }

  [[nodiscard]] std::uint64_t fingerprint() const noexcept { return fp_; }
  [[nodiscard]] std::size_t ff_words() const noexcept { return ff_words_; }
  [[nodiscard]] std::size_t total_words() const noexcept {
    return buf_.size();
  }
  [[nodiscard]] std::size_t fwd_words() const noexcept { return fwd_words_; }
  // Declared payload bytes of one section (no padding).
  [[nodiscard]] std::size_t section_bytes(int s) const noexcept {
    const Section& sec = secs_[static_cast<std::size_t>(s)];
    return sec.elem_size * sec.count;
  }

  // ---- snapshot plumbing (the few bounded memcpys) ----
  void snapshot_to(ArenaSnapshot* out, const ArenaSnapshot* prev) const {
    const SpanView spans[2] = {{ff_base_, ff_words_},
                               {buf_.data(), buf_.size()}};
    out->capture(spans, 2, prev);
  }
  void restore_from(const ArenaSnapshot& snap) {
    const SpanViewMut spans[2] = {{ff_base_, ff_words_},
                                  {buf_.data(), buf_.size()}};
    snap.restore_to(spans, 2);
  }
  // Comparison of the forward region: the fwd sections word-exact, the FF
  // pool word-exact too unless `live_ff` (one bit per pool slot) narrows
  // it to the slots set there.
  [[nodiscard]] bool matches_fwd(const ArenaSnapshot& snap,
                                 const std::uint64_t* live_ff) const {
    const bool ff_ok = live_ff != nullptr
                           ? snap.matches_live(0, ff_base_, live_ff)
                           : snap.matches_prefix(0, ff_base_, ff_words_);
    return ff_ok && snap.matches_prefix(1, buf_.data(), fwd_words_);
  }
  // Word-wise hash of the forward region.
  [[nodiscard]] std::uint64_t hash_fwd(std::uint64_t seed) const noexcept;

  // Raw mutable view of the serialized image (state-corruption fuzzing).
  [[nodiscard]] std::uint64_t* raw_buf() noexcept { return buf_.data(); }

 private:
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

  std::uint64_t* ff_base_ = nullptr;
  std::size_t ff_words_ = 0;
  std::vector<Section> secs_;
  std::size_t aux_from_ = static_cast<std::size_t>(-1);
  std::vector<std::uint64_t> buf_;
  std::size_t fwd_words_ = 0;
  std::uint64_t fp_ = 0;
  bool laid_out_ = false;
};

// Arena-resident OUT stream.  Slot 0 of the bound region is the length;
// data lives in slots 1..cap.  The stream is part of the forward region, so
// overflow past the fixed capacity spills into a core-owned vector that the
// checkpoint stores (and state_matches compares) separately.  Shrinking
// zero-fills the dropped arena slots so stale bytes cannot defeat the
// word-exact convergence compare.
class OutputBuf {
 public:
  void bind(std::uint32_t* base, std::uint32_t cap,
            std::vector<std::uint32_t>* spill) noexcept {
    base_ = base;
    cap_ = cap;
    spill_ = spill;
  }
  [[nodiscard]] std::size_t size() const noexcept { return base_[0]; }
  void push(std::uint32_t v) {
    const std::uint32_t n = base_[0];
    if (n < cap_) {
      base_[1 + n] = v;
    } else {
      spill_->push_back(v);
    }
    base_[0] = n + 1;
  }
  void resize(std::size_t n) {
    const std::size_t cur = base_[0];
    if (n < cur) {
      const std::size_t hi = cur < cap_ ? cur : cap_;
      for (std::size_t i = n; i < hi; ++i) base_[1 + i] = 0;
      spill_->resize(n > cap_ ? n - cap_ : 0);
    } else {
      for (std::size_t i = cur; i < n; ++i) push(0);
    }
    base_[0] = static_cast<std::uint32_t>(n);
  }
  [[nodiscard]] std::vector<std::uint32_t> to_vector() const {
    std::vector<std::uint32_t> out;
    const std::size_t n = base_[0];
    out.reserve(n);
    const std::size_t in_arena = n < cap_ ? n : cap_;
    out.insert(out.end(), base_ + 1, base_ + 1 + in_arena);
    out.insert(out.end(), spill_->begin(), spill_->end());
    return out;
  }

 private:
  std::uint32_t* base_ = nullptr;
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
