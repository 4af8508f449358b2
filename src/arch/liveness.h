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
#ifndef CLEAR_ARCH_LIVENESS_H
#define CLEAR_ARCH_LIVENESS_H

#include <cstddef>
#include <cstdint>
#include <vector>

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

  // Live set at boundary b (bit s = FF-pool slot s), or nullptr when
  // nothing was recorded for b -- callers then compare every slot.
  [[nodiscard]] const std::uint64_t* at(std::size_t b) const noexcept {
    return b < boundaries_ ? live_.data() + b * words_ : nullptr;
  }
  [[nodiscard]] bool live(std::size_t b, std::size_t slot) const noexcept {
    return ((at(b)[slot / 64] >> (slot % 64)) & 1U) != 0;
  }
  [[nodiscard]] std::size_t boundaries() const noexcept { return boundaries_; }

 private:
  std::size_t words_ = 0;       // u64 words per bitset
  std::size_t boundaries_ = 0;  // set by finish()
  // Interval-major.  live_ holds the read-first sets until finish()
  // turns them into live sets in place; written_ is dropped there.
  std::vector<std::uint64_t> live_;
  std::vector<std::uint64_t> written_;
  std::vector<std::uint64_t> sink_;  // FFRegistry::sink_slots() of the core
};

}  // namespace clear::arch

#endif  // CLEAR_ARCH_LIVENESS_H
