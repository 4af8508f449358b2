// Instruction-set simulator: the golden functional model.
//
// Used for: golden outputs (SDC classification compares a faulty run's
// output against this model's), the monitor-core checker's shadow execution
// (DIVA-style commit validation), software-assertion training runs, and the
// architecture-/program-variable-level injection studies of Tables 11/14.
#ifndef CLEAR_ISA_ISS_H
#define CLEAR_ISA_ISS_H

#include <cstdint>
#include <functional>
#include <vector>

#include "isa/isa.h"
#include "isa/program.h"

namespace clear::isa {

enum class RunStatus : std::uint8_t {
  kRunning,
  kHalted,    // normal termination (halt)
  kTrapped,   // abnormal termination -> Unexpected Termination (DUE)
  kWatchdog,  // exceeded cycle budget -> Hang (DUE)
  kDetected,  // a resilience technique flagged the error -> ED (DUE)
};

[[nodiscard]] const char* run_status_name(RunStatus s) noexcept;

struct RunResult {
  RunStatus status = RunStatus::kRunning;
  Trap trap = Trap::kNone;
  std::int32_t exit_code = 0;
  std::int32_t det_id = 0;
  std::uint64_t steps = 0;
  std::vector<std::uint32_t> output;
};

// Machine state delta-encoded against a reference memory image.  The
// monitor-core checker's shadow Machine trails the main core by at most the
// in-flight window, so its memory differs from the main core's image in a
// handful of words; a checkpoint stores only those words plus the scalar
// state instead of a full deep Machine copy (which used to dominate
// checkpoint bytes on the OoO core).  The reference image must be captured
// and re-supplied atomically with the delta -- the cores use their own
// checkpointed data memory, restored first.
struct MachineDelta {
  bool present = false;  // false: no shadow machine existed at the snapshot
  std::uint32_t pc = 0;
  RunStatus status = RunStatus::kRunning;
  Trap trap = Trap::kNone;
  std::int32_t exit_code = 0;
  std::int32_t det_id = 0;
  std::uint64_t steps = 0;
  std::uint32_t regs[kNumRegs] = {};
  std::vector<std::uint32_t> output;
  // Words where shadow memory differs from the reference:
  // (word_index << 32) | value.
  std::vector<std::uint64_t> mem_delta;
};

// Architectural machine state with single-instruction stepping.
class Machine {
 public:
  explicit Machine(const Program& prog);

  // Executes one instruction.  Returns false once the machine has stopped
  // (halted / trapped / detected); status() reports why.
  bool step();

  [[nodiscard]] RunStatus status() const noexcept { return status_; }
  [[nodiscard]] Trap trap() const noexcept { return trap_; }
  [[nodiscard]] std::int32_t exit_code() const noexcept { return exit_code_; }
  [[nodiscard]] std::int32_t det_id() const noexcept { return det_id_; }
  [[nodiscard]] std::uint64_t steps() const noexcept { return steps_; }

  [[nodiscard]] std::uint32_t pc() const noexcept { return pc_; }
  [[nodiscard]] std::uint32_t reg(int i) const noexcept { return regs_[i]; }
  void set_reg(int i, std::uint32_t v) noexcept {
    if (i != 0) regs_[i] = v;
  }

  [[nodiscard]] const std::vector<std::uint32_t>& output() const noexcept {
    return output_;
  }

  // Data memory access (word granularity; addr is a byte address).  Reads
  // or writes outside memory return 0 / are dropped -- the *step* path
  // traps instead; these accessors are for injectors and checkers.
  [[nodiscard]] std::uint32_t peek_word(std::uint32_t addr) const noexcept;
  void poke_word(std::uint32_t addr, std::uint32_t value) noexcept;
  [[nodiscard]] std::uint32_t mem_bytes() const noexcept {
    return static_cast<std::uint32_t>(mem_.size()) * 4;
  }
  // ---- delta checkpointing against a reference memory image ----
  // `ref`/`ref_words` is the image the delta is relative to (the main
  // core's checkpointed data memory).  Hooks are untouched by all three.
  void capture_delta(const std::uint32_t* ref, std::size_t ref_words,
                     MachineDelta* out) const;
  void restore_delta(const MachineDelta& d, const std::uint32_t* ref,
                     std::size_t ref_words);
  // Equality of the forward-relevant state only (pc, status, registers,
  // output, memory) -- mirrors what the cores' state_matches() compared
  // when checkpoints held full Machine copies.
  [[nodiscard]] bool matches_delta(const MachineDelta& d,
                                   const std::uint32_t* ref,
                                   std::size_t ref_words) const;

  // Called before each instruction executes (after fetch+decode).  Used by
  // injection drivers and assertion trainers.  Must not dangle: hooks are
  // only set by drivers that outlive the machine.
  std::function<void(Machine&, const Instr&)> pre_exec_hook;
  // Called after an instruction that wrote rd, with the value written.
  std::function<void(Machine&, const Instr&, std::uint32_t)> post_write_hook;
  // Called after a store committed to memory (addr, value-word-after).
  std::function<void(Machine&, std::uint32_t, std::uint32_t)> post_store_hook;

 private:
  void do_trap(Trap t) noexcept {
    status_ = RunStatus::kTrapped;
    trap_ = t;
  }

  const Program* prog_;
  std::vector<std::uint32_t> mem_;
  std::uint32_t regs_[kNumRegs] = {};
  std::uint32_t pc_ = 0;
  RunStatus status_ = RunStatus::kRunning;
  Trap trap_ = Trap::kNone;
  std::int32_t exit_code_ = 0;
  std::int32_t det_id_ = 0;
  std::uint64_t steps_ = 0;
  std::vector<std::uint32_t> output_;
};

// Runs a program to completion on the ISS.  max_steps = watchdog budget
// (0 means a generous default); the watchdog result maps to Hang.
[[nodiscard]] RunResult run_program(const Program& prog,
                                    std::uint64_t max_steps = 0);

}  // namespace clear::isa

#endif  // CLEAR_ISA_ISS_H
