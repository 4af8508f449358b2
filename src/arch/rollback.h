// Checkpoint ring implementing Instruction-Replay-style recovery.
//
// IR/EIR recovery (paper Fig. 4, Table 15) keeps a shadow register file and
// a replay buffer so that, on detection, the pipeline rolls back to the
// last known-good architectural state and replays.  The simulator realizes
// the same semantics with per-cycle checkpoints of the complete sequential
// state (flip-flop pool + architectural registers + memory-write undo log +
// output length).  Restoring to the checkpoint preceding the upset erases
// the error exactly as replay does, at the recovery-latency cost charged by
// the caller.
//
// Entries are immutable once pushed and held by shared_ptr, so copying a
// ring into a CoreCheckpoint (or pruning one for serialization) shares the
// entries instead of deep-copying them -- with IR armed the ring is by far
// the largest part of a snapshot, and the checkpoint/fork engine copies
// rings on every snapshot() and restore().
#ifndef CLEAR_ARCH_ROLLBACK_H
#define CLEAR_ARCH_ROLLBACK_H

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "arch/ff.h"

namespace clear::arch {

// Test-side view of a ring's entries (a friend; defined in
// tests/test_liveness.cpp).
struct RingAccess;

class RollbackRing {
 public:
  struct Restored {
    std::vector<std::uint32_t> regs;
    std::uint64_t committed = 0;
    std::size_t out_len = 0;
    std::uint64_t extra = 0;  // core-specific word (e.g., DFC signature)
  };

  void reset(std::size_t depth) {
    depth_ = depth;
    ring_.clear();
    pending_writes_.clear();
  }

  [[nodiscard]] bool enabled() const noexcept { return depth_ > 0; }

  // Records a data-memory write performed during the current cycle
  // (old value, for undo).
  void record_write(std::uint32_t addr, std::uint32_t old_value) {
    if (enabled()) pending_writes_.emplace_back(addr, old_value);
  }

  // Captures state at the end of `cycle`.  `regs` points at the
  // architectural register file (arena-resident in the cores).
  void push(std::uint64_t cycle, const FFRegistry& reg,
            const std::uint32_t* regs, std::size_t nregs,
            std::uint64_t committed, std::size_t out_len,
            std::uint64_t extra) {
    if (!enabled()) return;
    auto e = std::make_shared<Entry>();
    e->cycle = cycle;
    e->ff = reg.snapshot();
    e->regs.assign(regs, regs + nregs);
    e->committed = committed;
    e->out_len = out_len;
    e->extra = extra;
    e->writes = std::move(pending_writes_);
    pending_writes_.clear();
    ring_.push_back(std::move(e));
    if (ring_.size() > depth_) ring_.pop_front();
  }

  // Restores all state to the end of `target_cycle`.  `undo(addr, old)` is
  // invoked for every logged memory write newer than the target, newest
  // first.  Returns false (no state change) when the target has aged out
  // of the replay window.
  template <typename UndoFn>
  bool restore(std::uint64_t target_cycle, FFRegistry& reg, Restored* out,
               UndoFn&& undo) {
    if (!enabled() || ring_.empty() || ring_.front()->cycle > target_cycle) {
      return false;
    }
    // Undo writes pending in the current (unpushed) cycle first.
    for (auto it = pending_writes_.rbegin(); it != pending_writes_.rend();
         ++it) {
      undo(it->first, it->second);
    }
    pending_writes_.clear();
    // Pop entries newer than the target, undoing their writes.
    while (!ring_.empty() && ring_.back()->cycle > target_cycle) {
      const Entry& e = *ring_.back();
      for (auto it = e.writes.rbegin(); it != e.writes.rend(); ++it) {
        undo(it->first, it->second);
      }
      ring_.pop_back();
    }
    if (ring_.empty()) return false;
    const Entry& t = *ring_.back();
    reg.restore(t.ff);
    out->regs = t.regs;
    out->committed = t.committed;
    out->out_len = t.out_len;
    out->extra = t.extra;
    return true;
  }

  // Serialization copy truncated to entries at or after `min_cycle`.
  // Entries older than every reachable restore target are dead weight in a
  // checkpoint (restoring to them is impossible).  The surviving entries
  // are shared, not copied.
  [[nodiscard]] RollbackRing pruned(std::uint64_t min_cycle) const {
    RollbackRing out;
    out.depth_ = depth_;
    out.pending_writes_ = pending_writes_;
    for (const auto& e : ring_) {
      if (e->cycle >= min_cycle) out.ring_.push_back(e);
    }
    return out;
  }

 private:
  friend struct RingAccess;

  struct Entry {
    std::uint64_t cycle = 0;
    std::vector<std::uint64_t> ff;
    std::vector<std::uint32_t> regs;
    std::uint64_t committed = 0;
    std::size_t out_len = 0;
    std::uint64_t extra = 0;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> writes;
  };

  std::size_t depth_ = 0;
  std::deque<std::shared_ptr<const Entry>> ring_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pending_writes_;
};

}  // namespace clear::arch

#endif  // CLEAR_ARCH_ROLLBACK_H
