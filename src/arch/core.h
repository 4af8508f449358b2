// Abstract processor-core model interface.
//
// Two concrete models mirror the paper's two study designs (Table 1):
//   * InOCore -- a simple 7-stage in-order pipeline ("Leon3-class"):
//       fetch / decode / register-access / execute / memory / exception /
//       writeback, blocking memory interface, iterative mul/div.
//   * OoOCore -- a complex 2-wide superscalar out-of-order core
//       ("IVM-class"): gshare + BTB + RAS front end, register renaming,
//       issue queue, reorder buffer, load/store queues, store buffer,
//       L1D staging pipeline with a miss queue.
//
// Both execute the same CRISC ISA; outcomes of corrupted runs are compared
// against the ISS golden model by the injection engine.
//
// Each model is only its pipeline: its FFs, its stage functions and its
// own recovery mechanism (InO flush, OoO RoB squash and the monitor
// shadow).  Everything else -- the FF registry, the state arena, run
// control, flip injection, EDS/parity/DFC detection, IR/EIR rollback and
// the checkpoint API below -- lives once in CoreShell (arch/core_shell.h),
// which the pipelines derive from through CRTP; the header comment there
// lists the hooks a pipeline provides.
//
// Execution is segmented: begin() arms a run, step_to() advances it in
// cycle-bounded increments, and current_result() reads the outcome.  The
// complete execution state is serializable at any cycle boundary
// (snapshot()/restore()), which is what the checkpoint/fork injection
// engine builds on: the golden run is snapshotted at intervals, each
// faulty run forks from the snapshot nearest its injection cycle, and
// state_matches()/quiescent() let a faulty run terminate early once it has
// provably re-converged to the golden trajectory.
#ifndef CLEAR_ARCH_CORE_H
#define CLEAR_ARCH_CORE_H

#include <memory>
#include <vector>

#include "arch/arena.h"
#include "arch/ff.h"
#include "arch/rollback.h"
#include "arch/types.h"
#include "isa/iss.h"
#include "isa/program.h"

namespace clear::arch {

// Complete serialized execution state of a core at a cycle boundary.
// restore() into a core that has begun the same (program, config) resumes
// execution bit-exactly; any other core refuses (layout fingerprint).
// Snapshots are immutable once taken and may be shared read-only across
// campaign worker threads: the arena segments, the ring entries and the
// shadow delta all alias freely between checkpoints.
struct CoreCheckpoint {
  // The two flat state spans (FF pool + arena buffer) as refcounted COW
  // segments; consecutive snapshots of one run share unchanged segments.
  ArenaSnapshot state;
  // Fingerprint of (arena layout, core model, program, config); restore()
  // throws std::logic_error when it does not match the live core's.
  std::uint64_t layout_fp = 0;
  // Mirrors of the arena's bookkeeping cycle and committed-instruction
  // slots, for callers that index checkpoints without restoring them.
  std::uint64_t cycle = 0;
  std::uint64_t committed = 0;
  std::vector<std::uint32_t> output_spill;  // OUT beyond the arena region
  std::vector<PendingDetection> dets;  // latched, not-yet-acted detections
  RollbackRing ring;                   // IR/EIR replay window (shared entries)
  // Monitor-core checker state (OoO only), delta-encoded against the
  // checkpointed data memory image inside `state`.
  isa::MachineDelta shadow;
};

class Core {
 public:
  virtual ~Core() = default;

  [[nodiscard]] virtual const char* name() const noexcept = 0;
  // Nominal clock from the physical design (paper Table 1: InO 2.0 GHz,
  // OoO 600 MHz); used to convert cycles to wall time and power to energy.
  [[nodiscard]] virtual double clock_ghz() const noexcept = 0;
  [[nodiscard]] virtual const FFRegistry& registry() const noexcept = 0;

  // ---- segmented execution ----
  // Resets all state and arms a run of `prog`.
  //   cfg  - optional in-simulator resilience configuration
  //   plan - optional soft errors to apply (cycle, flip-flop)
  // A Core instance is reused across runs but is not thread-safe
  // (campaigns give each worker its own instance).
  virtual void begin(const isa::Program& prog, const ResilienceConfig* cfg,
                     const InjectionPlan* plan) = 0;
  // Advances until cycle() >= target_cycle, the run ends, or cycle() >=
  // max_cycles (watchdog).  Returns true iff the run can still advance.
  bool step_to(std::uint64_t target_cycle, std::uint64_t max_cycles) {
    return step_until(target_cycle, max_cycles, ~std::uint64_t{0});
  }
  // step_to() that also stops at the first cycle boundary where
  // committed() >= commit_target, so a caller can stop a run at an
  // instruction count without stepping it cycle by cycle.
  virtual bool step_until(std::uint64_t target_cycle, std::uint64_t max_cycles,
                          std::uint64_t commit_target) = 0;
  // Outcome of the (possibly still segmented) run; a run that is still
  // within budget reports Watchdog, so call this only once step_to()
  // returned false or the caller has given up on the run.
  [[nodiscard]] virtual CoreRunResult current_result() const = 0;
  [[nodiscard]] virtual std::uint64_t cycle() const noexcept = 0;
  // Instructions committed so far (rolled back by IR/EIR recovery).
  [[nodiscard]] virtual std::uint64_t committed() const noexcept = 0;
  [[nodiscard]] virtual std::uint32_t recovery_count() const noexcept = 0;

  // ---- serializable state ----
  // Captures the complete execution state (valid at cycle boundaries, i.e.
  // between step_to() calls).
  virtual void snapshot(CoreCheckpoint* out) const = 0;
  // Restores a snapshot taken by the same core model after a begin() with
  // the same program/config, then re-arms `plan` (flips scheduled before
  // the snapshot cycle are dropped; they can no longer occur).  Throws
  // std::logic_error when the checkpoint's layout fingerprint does not
  // match the live core's (different model, program or config).
  virtual void restore(const CoreCheckpoint& cp, const InjectionPlan* plan) = 0;
  // True iff every state bit that can influence the remainder of the run
  // (the flip-flop pool, memory, registers, output, detector accumulators,
  // timing-relevant SRAM and the monitor checker) equals the checkpoint's.
  // Two runs of the same (program, config) that both match one checkpoint
  // at the same cycle boundary -- and are quiescent() -- evolve identically
  // from that point on.  Cheap to reject (returns at the first divergent
  // word) and cheap to accept: the arena compares only the segments
  // written since the last snapshot()/restore() and those that differ
  // between that snapshot and `cp` (arch/arena.h).
  [[nodiscard]] bool state_matches(const CoreCheckpoint& cp) const {
    return state_matches(cp, nullptr);
  }
  // Liveness-masked form.  `live_ff` (one bit per FF-pool slot, see
  // arch/liveness.h) narrows the FF-pool compare to the slots golden
  // still reads after the checkpoint: a slot whose next golden access is
  // a write, that golden never touches again, or that is a sink
  // (FFFlags::sink) cannot influence the rest of a quiescent run -- even
  // one that reaches this state at another cycle (soundness argument in
  // docs/ARCHITECTURE.md, "FF liveness").  Everything else -- the arena's
  // forward region, the OUT spill, the monitor shadow -- stays
  // word-exact.  nullptr compares every slot.
  [[nodiscard]] virtual bool state_matches(
      const CoreCheckpoint& cp, const std::uint64_t* live_ff) const = 0;
  // True when nothing besides the serialized state can perturb the future:
  // the run is live, every planned flip has been applied and no detection
  // is pending.  Together with a state_matches() hit at a boundary this
  // is the convergence rule: no flip is left to corrupt state and no
  // detection can trigger a recovery that would read the rollback ring.
  [[nodiscard]] virtual bool quiescent() const noexcept = 0;

  // Golden-pass liveness recording.  A traced core (make_traced_core())
  // logs, per FF-pool slot, whether its first access since the previous
  // drain was a read or a write; this moves that log into two
  // caller-zeroed bitsets (FFRegistry::drain_access_log) and clears it.
  // Untraced cores log nothing and leave both bitsets zero.
  virtual void drain_access_log(std::uint64_t* read_first,
                                std::uint64_t* written_first) noexcept = 0;
  // Moves one slot's entry out of that log: its first access since the
  // previous drain or take (kNone for an untraced core).
  virtual FirstAccess take_access(std::size_t slot) noexcept = 0;

  // Direct mutable view of the serialized state image: the FF pool span,
  // the arena span, and the forward-region boundary within the arena.
  // Exposed so state-corruption fuzz tests can flip arbitrary state bytes
  // (beyond single-FF flips) and assert the convergence compare sees them.
  // Raw writes bypass the arena's dirty bits, so once a core has handed
  // out this view it treats every arena segment as dirty -- restores copy
  // and compares read the whole arena -- until the next begin().
  struct StateView {
    std::uint64_t* ff = nullptr;
    std::size_t ff_words = 0;
    std::uint64_t* arena = nullptr;
    std::size_t fwd_words = 0;    // forward region: [0, fwd_words)
    std::size_t arena_words = 0;  // whole buffer incl. bookkeeping
  };
  [[nodiscard]] virtual StateView state_view() noexcept = 0;
  // Read-only access to the state arena (and through it the FF pool):
  // leaves the dirty tracking alone, so tests can check the tracked
  // restore and compare against a full memcmp.
  [[nodiscard]] virtual const StateArena& arena() const noexcept = 0;

  // Runs `prog` to completion (or to max_cycles -> watchdog/Hang).
  CoreRunResult run(const isa::Program& prog, const ResilienceConfig* cfg,
                    const InjectionPlan* plan, std::uint64_t max_cycles) {
    begin(prog, cfg, plan);
    step_to(max_cycles, max_cycles);
    return current_result();
  }

  // Convenience: error-free, unprotected run.
  CoreRunResult run_clean(const isa::Program& prog,
                          std::uint64_t max_cycles = 0) {
    return run(prog, nullptr, nullptr,
               max_cycles == 0 ? 20'000'000 : max_cycles);
  }
};

[[nodiscard]] std::unique_ptr<Core> make_ino_core();
[[nodiscard]] std::unique_ptr<Core> make_ooo_core();
[[nodiscard]] std::unique_ptr<Core> make_core(const std::string& name);
// FF count of the core model make_core(name) builds (0 for an unknown
// name).  Each model is built once per process to count its registry;
// later calls only read the count.
[[nodiscard]] std::uint32_t core_ff_count(const std::string& name);
// The same core models built with traced FF handles (BasicReg<true>):
// bit-identical execution, plus the access log drain_access_log() reads.
// Slower; only golden recording uses it.
[[nodiscard]] std::unique_ptr<Core> make_traced_ino_core();
[[nodiscard]] std::unique_ptr<Core> make_traced_ooo_core();
[[nodiscard]] std::unique_ptr<Core> make_traced_core(const std::string& name);

}  // namespace clear::arch

#endif  // CLEAR_ARCH_CORE_H
