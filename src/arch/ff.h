// Flip-flop registry: the foundation of flip-flop-level fault injection.
//
// The paper's reliability analysis injects single bit-flips into the flip-
// flops of real RTL (Leon3, Alpha IVM).  Here, every bit of microarchitec-
// tural state in the reproduction cores is registered as a named flip-flop
// "structure" (mirroring the lowest hierarchical-level RTL components named
// in the paper's Appendix A, e.g. "e.ctrl.inst", "rob.entry3.result").  The
// registry owns the backing storage, so:
//   * injection can flip any single bit, which the core logic then consumes
//     exactly as it would a radiation-induced upset;
//   * the whole sequential state can be snapshotted/restored in one memcpy,
//     which implements checkpoint-based recovery (IR/EIR) faithfully;
//   * per-structure metadata (pipeline flushability, post-commit placement,
//     recovery-hardware membership) drives Heuristic 1 and the monitor-core
//     escape model.
#ifndef CLEAR_ARCH_FF_H
#define CLEAR_ARCH_FF_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace clear::arch {

// Structure-level attributes used by resilience techniques.
struct FFFlags {
  // An error here can be repaired by flush/RoB recovery (pre-commit state).
  bool flushable = true;
  // State past the commit/validation point (store buffer, memory write
  // path): escapes monitor-core checking and flush/RoB recovery.
  bool post_commit = false;
  // Belongs to added recovery/checker hardware (single point of failure;
  // the paper hardens these with LEAP-DICE by construction).
  bool recovery_hw = false;
  // Sink: the value is read only to compute other sink fields (a
  // performance counter, a diagnostic shadow register).  It never reaches
  // a non-sink field, the arena, control flow, an outcome latch or the
  // output, so the convergence compares ignore sink slots (docs/
  // ARCHITECTURE.md, "FF liveness").  Flag a field only after checking
  // every use of it in the core.
  bool sink = false;
};

// Golden-pass access tracing (docs/ARCHITECTURE.md, "FF liveness"): per
// FF-pool slot, the kind of the first access since the registry's access
// log was last drained.
enum class FirstAccess : std::uint8_t { kNone = 0, kRead = 1, kWrite = 2 };

namespace detail {
// Untraced handles carry no log pointer: the empty base adds no bytes and
// note() compiles away, so BasicReg<false> holds just a (slot, mask) pair.
template <bool kTraced>
struct RegTrace {
  void note(FirstAccess /*a*/) const noexcept {}
};
template <>
struct RegTrace<true> {
  std::uint8_t* first = nullptr;  // this slot's byte in the access log
  void note(FirstAccess a) const noexcept {
    if (*first == 0) *first = static_cast<std::uint8_t>(a);
  }
};

// The same for an array of consecutive slots: untraced, nothing; traced,
// the access-log byte of the first slot.
template <bool kTraced>
struct ArrayTrace {
  [[nodiscard]] RegTrace<false> at(std::size_t /*i*/) const noexcept {
    return {};
  }
  void note(std::uint32_t /*slots*/, FirstAccess /*a*/) const noexcept {}
};
template <>
struct ArrayTrace<true> {
  std::uint8_t* first = nullptr;
  [[nodiscard]] RegTrace<true> at(std::size_t i) const noexcept {
    return {first + i};
  }
  void note(std::uint32_t slots, FirstAccess a) const noexcept {
    for (; slots != 0; slots &= slots - 1) at(__builtin_ctz(slots)).note(a);
  }
};
}  // namespace detail

// A handle to one registered multi-bit state field.  Behaves like an
// unsigned integer; writes are masked to the declared width so that core
// logic cannot smuggle state outside the declared flip-flop bits.
//
// Every read and write of FF state in the core models goes through these
// operators, which is what makes the traced form (kTraced = true, built
// only for golden recording) a complete record of FF accesses: a
// conversion or u32() is a read, assignment a full-width write, and a
// read-modify-write (+=, ^=, ...) a read; read_if() is a read where the
// short-circuit form would have made one.  Each core model is one source
// templated on this parameter; the untraced form is the production core.
template <bool kTraced>
class BasicReg : private detail::RegTrace<kTraced> {
 public:
  BasicReg() = default;
  BasicReg(std::uint64_t* slot, std::uint64_t mask,
           detail::RegTrace<kTraced> trace = {})
      : detail::RegTrace<kTraced>(trace), slot_(slot), mask_(mask) {}

  operator std::uint64_t() const noexcept {
    this->note(FirstAccess::kRead);
    return *slot_;
  }
  [[nodiscard]] std::uint32_t u32() const noexcept {
    this->note(FirstAccess::kRead);
    return static_cast<std::uint32_t>(*slot_);
  }
  // A read for branch-free scans: always reads the slot, but logs the
  // read only when `reached`, the condition under which the short-circuit
  // form (`a != 0 && b != 0`, `if (a) use(b)`) would have read it.  The
  // untraced build thus may read more slots than the traced build logs,
  // and the traced build logs exactly what the short-circuit form read.
  // Reading an FF slot has no side effect, so the extra reads change no
  // result.
  [[nodiscard]] std::uint64_t read_if(bool reached) const noexcept {
    if (reached) this->note(FirstAccess::kRead);
    return *slot_;
  }
  BasicReg& operator=(std::uint64_t v) noexcept {
    this->note(FirstAccess::kWrite);
    *slot_ = v & mask_;
    return *this;
  }
  BasicReg& operator+=(std::uint64_t v) noexcept { return *this = get() + v; }
  BasicReg& operator^=(std::uint64_t v) noexcept { return *this = get() ^ v; }
  BasicReg& operator|=(std::uint64_t v) noexcept { return *this = get() | v; }
  BasicReg& operator&=(std::uint64_t v) noexcept { return *this = get() & v; }

 private:
  [[nodiscard]] std::uint64_t get() const noexcept {
    return static_cast<std::uint64_t>(*this);
  }
  std::uint64_t* slot_ = nullptr;
  std::uint64_t mask_ = 0;
};
using Reg = BasicReg<false>;

// A handle to N registered fields of one width in consecutive pool slots
// (FFRegistry::add_array): one base pointer and one mask, plus the access
// log's base pointer in the traced build.  operator[] yields the field's
// BasicReg view; the scans read every slot at once and return a bitmask
// (bit i = field i), logging a read only for the fields in `reached`,
// where the branching form (`valid && !rdy && tag == t`) would have read
// them.  A scan that stands in for reads the branching form made later
// (a mask kept up to date through the cycle) leaves the log to note_read()
// at each of those program points, so the traced build logs exactly the
// branching form's first accesses.
template <bool kTraced, std::size_t N>
class BasicRegArray : private detail::ArrayTrace<kTraced> {
  static_assert(N > 0 && N <= 32, "a scan's bitmask holds 32 fields");

 public:
  static constexpr std::uint32_t kAll =
      N == 32 ? ~std::uint32_t{0} : (std::uint32_t{1} << N) - 1;

  BasicRegArray() = default;
  BasicRegArray(std::uint64_t* base, std::uint64_t mask,
                detail::ArrayTrace<kTraced> trace = {})
      : detail::ArrayTrace<kTraced>(trace), base_(base), mask_(mask) {}

  static constexpr std::size_t kSize = N;
  BasicReg<kTraced> operator[](std::size_t i) const noexcept {
    assert(i < N);
    return BasicReg<kTraced>(base_ + i, mask_, this->at(i));
  }

  // Bit i set when pred(field i).  Logs a read of the fields in `reached`.
  template <class Pred>
  [[nodiscard]] std::uint32_t scan_if(std::uint32_t reached,
                                      Pred pred) const noexcept {
    note_read(reached);
    std::uint32_t bits = 0;
    for (std::size_t i = 0; i < N; ++i) {
      bits |= static_cast<std::uint32_t>(pred(base_[i])) << i;
    }
    return bits;
  }
  // scan_if(reached, v != 0) for 1-bit fields, whose values are the bits.
  [[nodiscard]] std::uint32_t bits_if(std::uint32_t reached) const noexcept {
    assert(mask_ == 1);
    note_read(reached);
    std::uint32_t bits = 0;
    for (std::size_t i = 0; i < N; ++i) {
      bits |= static_cast<std::uint32_t>(base_[i]) << i;
    }
    return bits;
  }
  // Logs a read of the fields in `reached` without reading them.
  void note_read(std::uint32_t reached) const noexcept {
    this->note(reached, FirstAccess::kRead);
  }
  // Writes `v` to every field.
  void fill(std::uint64_t v) noexcept {
    this->note(kAll, FirstAccess::kWrite);
    for (std::size_t i = 0; i < N; ++i) base_[i] = v & mask_;
  }

 private:
  std::uint64_t* base_ = nullptr;
  std::uint64_t mask_ = 0;
};

struct FFStructure {
  std::string name;
  std::uint32_t first_ff = 0;  // global index of this structure's bit 0
  std::uint8_t width = 0;
  std::uint32_t slot = 0;  // index into the storage pool
  FFFlags flags;
};

class FFRegistry {
 public:
  // Pool capacity: handles keep raw pointers, so the pool never grows
  // past it.
  static constexpr std::size_t kMaxSlots = 1u << 15;

  FFRegistry() { pool_.reserve(kMaxSlots); }

  // Registers a `width`-bit field and returns its handle.  Must only be
  // called during core construction (before snapshots are taken).  A
  // traced handle (kTraced = true) also logs its first access per
  // interval into this registry's access log.
  template <bool kTraced = false>
  BasicReg<kTraced> add(std::string name, int width, FFFlags flags = {}) {
    const std::uint32_t s = add_slot(std::move(name), width, flags);
    const std::uint64_t mask = width == 64 ? ~0ULL : ((1ULL << width) - 1);
    if constexpr (kTraced) {
      // Fixed capacity, like the pool: handles keep raw byte pointers.
      first_access_.reserve(kMaxSlots);
      first_access_.resize(pool_.size());
      return BasicReg<true>(&pool_[s], mask, {&first_access_[s]});
    } else {
      return BasicReg<false>(&pool_[s], mask);
    }
  }

  // Registers `N` fields named `prefix` + index + `suffix` in consecutive
  // slots, in index order (the same names, order and FF indices as N
  // add() calls), and returns one handle to them all.
  template <bool kTraced, std::size_t N>
  BasicRegArray<kTraced, N> add_array(const std::string& prefix,
                                      const std::string& suffix, int width,
                                      FFFlags flags = {}) {
    std::uint32_t s0 = 0;
    for (std::size_t i = 0; i < N; ++i) {
      const std::uint32_t s =
          add_slot(prefix + std::to_string(i) + suffix, width, flags);
      if (i == 0) s0 = s;
    }
    const std::uint64_t mask = width == 64 ? ~0ULL : ((1ULL << width) - 1);
    if constexpr (kTraced) {
      first_access_.reserve(kMaxSlots);
      first_access_.resize(pool_.size());
      return BasicRegArray<true, N>(&pool_[s0], mask, {&first_access_[s0]});
    } else {
      return BasicRegArray<false, N>(&pool_[s0], mask);
    }
  }

  [[nodiscard]] std::uint32_t ff_count() const noexcept { return ff_count_; }
  [[nodiscard]] const std::vector<FFStructure>& structures() const noexcept {
    return structures_;
  }

  // Flips a single bit.  This is the soft error.
  void flip(std::uint32_t ff_index) noexcept;

  // Bitset over pool slots (bit s = slot s) of the fields flagged sink.
  [[nodiscard]] std::vector<std::uint64_t> sink_slots() const;

  // Structure containing a global FF index (binary search).
  [[nodiscard]] const FFStructure& structure_of(std::uint32_t ff_index) const;

  // Whole-state snapshot/restore for checkpoint recovery.
  [[nodiscard]] std::vector<std::uint64_t> snapshot() const {
    return pool_;
  }
  // Direct read-only view of the storage pool (state hashing).
  [[nodiscard]] const std::vector<std::uint64_t>& pool() const noexcept {
    return pool_;
  }
  // Mutable base pointer for the arena snapshot machinery: the pool is the
  // first flat span of a core's serialized state image.  Stable for the
  // registry's lifetime (the buffer never reallocates after construction).
  [[nodiscard]] std::uint64_t* pool_data() noexcept { return pool_.data(); }
  void restore(const std::vector<std::uint64_t>& snap) noexcept {
    // Element-wise copy: Reg handles hold raw pointers into the pool, so
    // the pool's buffer must never reallocate after registration.
    assert(snap.size() == pool_.size());
    for (std::size_t i = 0; i < snap.size(); ++i) pool_[i] = snap[i];
  }

  // Zeroes every registered field (core reset).
  void clear_state() noexcept {
    for (auto& s : pool_) s = 0;
  }

  // True when the handles were registered traced (add<true>).
  [[nodiscard]] bool traced() const noexcept { return !first_access_.empty(); }
  // Moves the access log into two caller-zeroed bitsets (bit s = pool
  // slot s): slots whose first access since the previous drain was a read
  // go to `read_first`, a write to `written_first`.  Then clears the log.
  // Only traced handles log, so an untraced registry leaves both zero.
  void drain_access_log(std::uint64_t* read_first,
                        std::uint64_t* written_first) noexcept;
  // Moves slot `slot`'s entry out of the access log (kNone when it was
  // not accessed since the previous drain or take, or is untraced).
  FirstAccess take_access(std::size_t slot) noexcept {
    if (slot >= first_access_.size()) return FirstAccess::kNone;
    const auto a = static_cast<FirstAccess>(first_access_[slot]);
    first_access_[slot] = 0;
    return a;
  }

 private:
  std::uint32_t add_slot(std::string name, int width, FFFlags flags);

  std::vector<std::uint64_t> pool_;
  std::vector<FFStructure> structures_;
  std::uint32_t ff_count_ = 0;
  std::vector<std::uint8_t> first_access_;  // FirstAccess per slot (traced)
};

}  // namespace clear::arch

#endif  // CLEAR_ARCH_FF_H
