// FF-pool liveness of a golden run: one bitset per checkpoint boundary.
//
// The convergence test of the checkpoint/fork engine compares a faulty
// run's state with golden's at a boundary.  A flipped bit that sits in
// state golden never reads again (a divider quotient already consumed, a
// BTB target that is overwritten before its next lookup) keeps that
// compare failing until the end of the program, although the run is
// already certain to end like golden.  Slot s is *live* at boundary b iff
// golden's first access to s at or after b is a read; nothing is live
// once the run has halted.  Core::state_matches() compares only live
// slots (soundness argument in docs/ARCHITECTURE.md, "FF liveness").
//
// Recording: golden runs once on a traced core (make_traced_core()),
// whose FF handles log each slot's first access per interval.  After
// every interval the recorder drains that log into two bitsets
// (read-first, written-first); finish() walks the intervals backwards,
//   live[b] = read_first[b] | (live[b+1] & ~written_first[b]),
// and keeps only the live sets: 1 bit per slot per boundary.  Sink
// slots (FFFlags::sink) are cleared from every live set: golden reads
// them, but only to compute other sinks, so their values cannot steer
// the rest of the run.
//
// Dead-at-flip queries ride on the same recording.  A query asks whether
// slot s is dead at cycle c: golden's first access to s at or after c is
// a write, or there is none (a sink counts as dead, as above).  The
// recorder stops at c and watches s there.  Watching takes s's entry out
// of the log (Core::take_access) and folds it into the open interval's
// sets, where a drain would have put it, so the interval's sets and the
// live sets come out unchanged, and the log then holds only accesses at
// or after c.  The next take or drain that finds one notes an event
// (cycle, kind) for s.  dead(s, c) is then the kind of s's first event
// after c, or dead when there is none.  Only the last event of a run of
// one kind is kept, since it answers every query the run answers: the
// events cost 4 bytes each, at most one per query, whatever the run's
// length.
#ifndef CLEAR_ARCH_LIVENESS_H
#define CLEAR_ARCH_LIVENESS_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/ff.h"

namespace clear::arch {

class Core;

class FFLiveness {
 public:
  // Starts a recording on `traced`, which has just begun its run from
  // cycle 0 (boundary 0): whatever it logged so far is forgotten.  Throws
  // std::logic_error for an untraced core (it logs nothing).
  void start(Core& traced);
  // Closes the interval that began at the previous boundary: drains the
  // access log of `traced` (the core start() was given).
  void end_interval(Core& traced);
  // Backward pass over the recorded intervals; the last one is taken to
  // end with the run (nothing is live after it).  Sink slots end up
  // dead everywhere.
  void finish();

  // Watches `slot` from the current cycle of `traced` (the core start()
  // was given), which sits at a cycle boundary, so that dead() can answer
  // for this (slot, cycle) after finish().  Sinks need no watching.
  void watch(Core& traced, std::size_t slot);
  // After finish(), for a (slot, cycle) watched during the recording:
  // true iff golden's first access to `slot` at or after `cycle` is a
  // write or there is none, or `slot` is a sink.  False when nothing was
  // recorded.
  [[nodiscard]] bool dead(std::size_t slot, std::uint64_t cycle) const;

  // Live set at boundary b (bit s = FF-pool slot s), or nullptr when
  // nothing was recorded for b -- callers then compare every slot.
  [[nodiscard]] const std::uint64_t* at(std::size_t b) const noexcept {
    return b < boundaries_ ? live_.data() + b * words_ : nullptr;
  }

 private:
  // The open interval's offset in live_ and written_ (opening it if
  // needed).
  std::size_t open_interval();
  // `slot` was accessed (first access `a`) since it was last drained or
  // taken: notes the event at `cycle` when the slot is watched.
  void note(std::size_t slot, FirstAccess a, std::uint64_t cycle);

  std::size_t words_ = 0;       // u64 words per bitset
  std::size_t closed_ = 0;      // intervals closed by end_interval()
  std::size_t boundaries_ = 0;  // set by finish()
  // Interval-major.  live_ holds the read-first sets until finish()
  // turns them into live sets in place; written_ is dropped there.
  std::vector<std::uint64_t> live_;
  std::vector<std::uint64_t> written_;
  std::vector<std::uint64_t> sink_;  // FFRegistry::sink_slots() of the core
  // The last drain: read-first, then written-first.
  std::vector<std::uint64_t> drained_;
  // Dead-at-flip events: cycle * 2 + (1 if a write), per slot while
  // recording, then one array with each slot's range in event_begin_.
  std::vector<std::uint64_t> watched_;  // slots watched since their last event
  std::vector<std::vector<std::uint32_t>> slot_events_;
  std::vector<std::uint32_t> events_;
  std::vector<std::uint32_t> event_begin_;
};

}  // namespace clear::arch

#endif  // CLEAR_ARCH_LIVENESS_H
