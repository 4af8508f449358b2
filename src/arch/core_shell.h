// CoreShell: everything the two core models share, written once.
//
// A core model is a pipeline (its FFs and stage functions) inside a shell
// that owns the rest of the machine: the FF registry, the state arena and
// its handles (forward scalars, register file, data memory, OUT stream,
// bookkeeping), the run scalars, the armed injection plan, the latched
// detections and the IR/EIR rollback ring.  The shell implements every
// Core override -- segmented execution, results, snapshot/restore and the
// convergence compare -- plus flip injection, EDS/parity detection, the
// DFC commit-stream checker and the recovery rules both cores follow.
//
// The pipeline derives from CoreShell<Pipeline, kTraced> (CRTP) and is
// reached through static_cast, so a simulated cycle costs no virtual call.
// It provides:
//   kFwdWords     forward scalar slots; slot 0 (kFwdDfcSig) is the
//                 shell's DFC signature, the pipeline's own follow
//   kOwnRecovery  its squash mechanism (InO kFlush, OoO kRob)
//   kIrPenalty    IR/EIR replay latency in cycles (Table 15)
//   kRingDepth    rollback-ring depth when IR/EIR is armed
//   name(), clock_ghz()
//   step_pipeline()     one cycle of the stages; returns early once the
//                       run ends (status_ leaves kRunning)
//   recover_pipeline()  kOwnRecovery after a detection in a flushable FF,
//                       including any latency it charges
// and may hide these defaults (all no-ops):
//   add_sections()      extra forward arena sections (laid out after mem)
//   begin_pipeline()    after begin()'s reset: bind those sections, init
//   after_rollback()    after an IR/EIR rollback restored the ring entry
//   snapshot_extra(), restore_extra(), extra_matches()
//                       checkpoint parts beyond the arena (the monitor
//                       shadow); the default snapshot clears cp.shadow
#ifndef CLEAR_ARCH_CORE_SHELL_H
#define CLEAR_ARCH_CORE_SHELL_H

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "arch/arena.h"
#include "arch/core.h"
#include "arch/rollback.h"

namespace clear::arch {

// Decode predicates both pipelines apply to (possibly corrupted) latches.
constexpr bool valid_op(std::uint64_t v) noexcept {
  return v < static_cast<std::uint64_t>(isa::kOpCount);
}

inline bool uses_rs1(isa::Op op) noexcept {
  switch (isa::format_of(op)) {
    case isa::Format::kR:
    case isa::Format::kI:
    case isa::Format::kS:
    case isa::Format::kB:
      return true;
    case isa::Format::kX:
      return op == isa::Op::kOut;
    default:
      return false;
  }
}

inline bool uses_rs2(isa::Op op) noexcept {
  switch (isa::format_of(op)) {
    case isa::Format::kR:
    case isa::Format::kS:
    case isa::Format::kB:
      return true;
    default:
      return false;
  }
}

template <class Pipeline, bool kTraced>
class CoreShell : public Core {
 public:
  [[nodiscard]] const FFRegistry& registry() const noexcept override {
    return reg_;
  }

  void begin(const isa::Program& prog, const ResilienceConfig* cfg,
             const InjectionPlan* plan) override;

  bool step_until(std::uint64_t target_cycle, std::uint64_t max_cycles,
                  std::uint64_t commit_target) override {
    while (status_ == isa::RunStatus::kRunning && cycle_ < target_cycle &&
           cycle_ < max_cycles && committed_ < commit_target) {
      do_cycle();
    }
    return status_ == isa::RunStatus::kRunning && cycle_ < max_cycles;
  }

  [[nodiscard]] CoreRunResult current_result() const override;
  [[nodiscard]] std::uint64_t cycle() const noexcept override {
    return cycle_;
  }
  [[nodiscard]] std::uint64_t committed() const noexcept override {
    return committed_;
  }
  [[nodiscard]] std::uint32_t recovery_count() const noexcept override {
    return recoveries_;
  }

  void snapshot(CoreCheckpoint* out) const override;
  void restore(const CoreCheckpoint& cp, const InjectionPlan* plan) override;
  [[nodiscard]] bool state_matches(const CoreCheckpoint& cp,
                                   const std::uint64_t* live_ff) const override;
  [[nodiscard]] bool quiescent() const noexcept override {
    return status_ == isa::RunStatus::kRunning &&
           next_flip_ >= flips_.size() && dets_.empty();
  }
  void drain_access_log(std::uint64_t* read_first,
                        std::uint64_t* written_first) noexcept override {
    reg_.drain_access_log(read_first, written_first);
  }
  FirstAccess take_access(std::size_t slot) noexcept override {
    return reg_.take_access(slot);
  }
  [[nodiscard]] StateView state_view() noexcept override {
    return {reg_.pool_data(), arena_.ff_words(), arena_.raw_buf(),
            arena_.fwd_words(), arena_.total_words()};
  }
  [[nodiscard]] const StateArena& arena() const noexcept override {
    return arena_;
  }

 protected:
  using Reg = BasicReg<kTraced>;
  static constexpr std::size_t kFwdDfcSig = 0;

  // ---- default pipeline hooks (see the header comment) ----
  void add_sections() {}
  void begin_pipeline() {}
  void after_rollback() {}
  void snapshot_extra(CoreCheckpoint* out) const {
    out->shadow = isa::MachineDelta{};
  }
  void restore_extra(const CoreCheckpoint& /*cp*/) {}
  [[nodiscard]] bool extra_matches(const CoreCheckpoint& /*cp*/) const {
    return true;
  }

  // ---- DFC checker (both cores sign the same commit stream) ----
  [[nodiscard]] std::uint32_t dfc_sig() const noexcept {
    return static_cast<std::uint32_t>(fwd_[kFwdDfcSig]);
  }
  // Signs committed instruction word `inst` of `op`.  Block terminators
  // (control flow, halt, det) commit between a block's sigchk and the next
  // block's body; excluding them keeps each static signature window equal
  // to exactly one basic block regardless of the path taken into it.
  void dfc_sign(isa::Op op, const Reg& inst) {
    if (cfg_ != nullptr && cfg_->dfc && op != isa::Op::kSigchk &&
        op != isa::Op::kHalt && op != isa::Op::kDet && !isa::is_branch(op) &&
        !isa::is_jump(op)) {
      set_dfc_sig(rotl5(dfc_sig()) ^ inst.u32());
    }
  }
  // A committed sigchk whose low 16 bits of `imm` name the block: a
  // signature mismatch latches a DFC detection for the next cycle, blamed
  // on the last flip.
  void dfc_check(const Reg& imm) {
    if (cfg_ == nullptr || !cfg_->dfc) return;
    const auto id = static_cast<std::uint16_t>(imm.u32() & 0xffff);
    const auto it = prog_->dfc_signatures.find(id);
    const bool match =
        it != prog_->dfc_signatures.end() && it->second == dfc_sig();
    set_dfc_sig(0);
    if (!match) {
      dets_.push_back({cycle_ + 1, last_flip_cycle_, DetectionSource::kDfc,
                       last_flip_ff_});
    }
  }

  [[nodiscard]] std::uint32_t mem_bytes() const noexcept {
    return static_cast<std::uint32_t>(mem_words_) * 4;
  }

  FFRegistry reg_;
  const isa::Program* prog_ = nullptr;
  const ResilienceConfig* cfg_ = nullptr;
  StateArena arena_;
  // Arena handles: every write marks its segment dirty (ArenaPtr).
  ArenaPtr<std::uint64_t> fwd_;
  ArenaPtr<std::uint32_t> regs_;
  ArenaPtr<std::uint32_t> mem_;
  std::size_t mem_words_ = 0;
  OutputBuf out_;
  std::uint64_t cycle_ = 0;
  std::uint64_t committed_ = 0;
  isa::RunStatus status_ = isa::RunStatus::kRunning;
  isa::Trap trap_code_ = isa::Trap::kNone;
  std::int32_t exit_code_ = 0;
  std::int32_t det_id_ = 0;
  DetectionSource detected_by_ = DetectionSource::kNone;
  std::uint32_t recoveries_ = 0;
  RollbackRing ring_;

 private:
  static constexpr std::size_t kOutCapacity = 2048;  // OUT words in-arena
  // Bookkeeping slots (excluded from state_matches).  Neither pipeline
  // keeps state here: what it latches within a cycle is dead at the cycle
  // boundaries where snapshots are taken.
  enum AuxSlot : std::size_t {
    kAuxCycle, kAuxCommitted, kAuxStatus, kAuxTrap, kAuxExit, kAuxDetId,
    kAuxDetBy, kAuxRecoveries, kAuxLastFlipCycle, kAuxLastFlipFf, kAuxWords
  };

  static constexpr std::uint32_t rotl5(std::uint32_t x) noexcept {
    return (x << 5) | (x >> 27);
  }
  Pipeline& self() noexcept { return static_cast<Pipeline&>(*this); }
  const Pipeline& self() const noexcept {
    return static_cast<const Pipeline&>(*this);
  }
  void set_dfc_sig(std::uint32_t v) noexcept { fwd_.set(kFwdDfcSig, v); }

  void do_cycle() {
    apply_injections();
    process_detections();
    if (status_ != isa::RunStatus::kRunning) return;
    self().step_pipeline();
    if (status_ != isa::RunStatus::kRunning) return;
    if (ring_.enabled()) {
      ring_.push(cycle_, reg_, regs_.get(), isa::kNumRegs, committed_,
                 out_.size(), dfc_sig());
    }
    ++cycle_;
  }
  void layout(const isa::Program& prog, const ResilienceConfig* cfg);
  void flush_aux() const;
  void load_aux();
  void apply_injections();
  void process_detections();
  void attempt_recovery(const PendingDetection& d);
  [[nodiscard]] std::uint64_t earliest_rollback_target() const noexcept;

  ArenaPtr<std::uint64_t> aux_;
  std::vector<std::uint32_t> out_spill_;
  std::vector<PendingDetection> dets_;
  int sec_fwd_ = 0, sec_regs_ = 0, sec_mem_ = 0, sec_out_ = 0, sec_aux_ = 0;
  std::vector<InjectionPlan::Flip> flips_;
  std::size_t next_flip_ = 0;
  std::uint64_t last_flip_cycle_ = 0;
  std::uint32_t last_flip_ff_ = 0;
};

// Lays the non-FF state out in the flat arena (fwd scalars | regs | mem |
// pipeline sections | OUT | bookkeeping) and binds the typed pointers.
// finish_layout() zero-fills the buffer, which is the reset of everything
// arena-resident.
template <class Pipeline, bool kTraced>
void CoreShell<Pipeline, kTraced>::layout(const isa::Program& prog,
                                          const ResilienceConfig* cfg) {
  arena_.begin_layout(reg_.pool_data(), reg_.pool().size());
  sec_fwd_ = arena_.add_u64(Pipeline::kFwdWords);
  sec_regs_ = arena_.add_u32(isa::kNumRegs);
  sec_mem_ = arena_.add_u32(prog.mem_bytes / 4);
  self().add_sections();
  sec_out_ = arena_.add_u32(1 + kOutCapacity);
  arena_.mark_aux();
  sec_aux_ = arena_.add_u64(kAuxWords);
  arena_.finish_layout(layout_identity(self().name(), prog, cfg));
  fwd_ = arena_.section<std::uint64_t>(sec_fwd_);
  regs_ = arena_.section<std::uint32_t>(sec_regs_);
  mem_ = arena_.section<std::uint32_t>(sec_mem_);
  mem_words_ = prog.mem_bytes / 4;
  out_.bind(arena_.section<std::uint32_t>(sec_out_), kOutCapacity,
            &out_spill_);
  aux_ = arena_.section<std::uint64_t>(sec_aux_);
  out_spill_.clear();
}

template <class Pipeline, bool kTraced>
void CoreShell<Pipeline, kTraced>::flush_aux() const {
  aux_.set(kAuxCycle, cycle_);
  aux_.set(kAuxCommitted, committed_);
  aux_.set(kAuxStatus, static_cast<std::uint64_t>(status_));
  aux_.set(kAuxTrap, static_cast<std::uint64_t>(trap_code_));
  aux_.set(kAuxExit, static_cast<std::uint32_t>(exit_code_));
  aux_.set(kAuxDetId, static_cast<std::uint32_t>(det_id_));
  aux_.set(kAuxDetBy, static_cast<std::uint64_t>(detected_by_));
  aux_.set(kAuxRecoveries, recoveries_);
  aux_.set(kAuxLastFlipCycle, last_flip_cycle_);
  aux_.set(kAuxLastFlipFf, last_flip_ff_);
}

template <class Pipeline, bool kTraced>
void CoreShell<Pipeline, kTraced>::load_aux() {
  cycle_ = aux_[kAuxCycle];
  committed_ = aux_[kAuxCommitted];
  status_ = static_cast<isa::RunStatus>(aux_[kAuxStatus]);
  trap_code_ = static_cast<isa::Trap>(aux_[kAuxTrap]);
  exit_code_ = static_cast<std::int32_t>(
      static_cast<std::uint32_t>(aux_[kAuxExit]));
  det_id_ = static_cast<std::int32_t>(
      static_cast<std::uint32_t>(aux_[kAuxDetId]));
  detected_by_ = static_cast<DetectionSource>(aux_[kAuxDetBy]);
  recoveries_ = static_cast<std::uint32_t>(aux_[kAuxRecoveries]);
  last_flip_cycle_ = aux_[kAuxLastFlipCycle];
  last_flip_ff_ = static_cast<std::uint32_t>(aux_[kAuxLastFlipFf]);
}

template <class Pipeline, bool kTraced>
void CoreShell<Pipeline, kTraced>::begin(const isa::Program& prog,
                                         const ResilienceConfig* cfg,
                                         const InjectionPlan* plan) {
  prog_ = &prog;
  cfg_ = cfg;
  reg_.clear_state();
  layout(prog, cfg);  // zero-fills every arena section
  const std::uint32_t base = prog.data_base / 4;
  for (std::size_t i = 0; i < prog.data.size(); ++i) {
    mem_.set(base + i, prog.data[i]);
  }
  cycle_ = 0;
  committed_ = 0;
  status_ = isa::RunStatus::kRunning;
  trap_code_ = isa::Trap::kNone;
  exit_code_ = 0;
  det_id_ = 0;
  detected_by_ = DetectionSource::kNone;
  recoveries_ = 0;
  last_flip_cycle_ = 0;
  last_flip_ff_ = 0;
  flips_ = armed_flips(plan, 0);
  next_flip_ = 0;
  dets_.clear();
  const bool ir = cfg != nullptr && (cfg->recovery == RecoveryKind::kIr ||
                                     cfg->recovery == RecoveryKind::kEir);
  ring_.reset(ir ? Pipeline::kRingDepth : 0);
  self().begin_pipeline();
}

template <class Pipeline, bool kTraced>
void CoreShell<Pipeline, kTraced>::apply_injections() {
  if (next_flip_ >= flips_.size() || flips_[next_flip_].cycle != cycle_) return;
  // Collect this cycle's flips (>1 models a SEMU striking adjacent FFs).
  std::vector<std::uint32_t> struck;
  while (next_flip_ < flips_.size() && flips_[next_flip_].cycle == cycle_) {
    const std::uint32_t ff = flips_[next_flip_].ff;
    reg_.flip(ff);
    struck.push_back(ff);
    last_flip_cycle_ = cycle_;
    last_flip_ff_ = ff;
    ++next_flip_;
  }
  if (cfg_ == nullptr) return;
  // EDS detects the upset within the same cycle; parity compares the stored
  // predicted parity against the group's outputs.  Two upsets in the same
  // parity group cancel (this is why the layout enforces minimum spacing
  // between same-group flip-flops, Table 6).
  std::vector<std::pair<std::int32_t, std::uint32_t>> group_hits;
  for (const std::uint32_t ff : struck) {
    const FFProt p = cfg_->prot_of(ff);
    if (p == FFProt::kEds) {
      dets_.push_back({cycle_, cycle_, DetectionSource::kEds, ff});
    } else if (p == FFProt::kParity) {
      const std::int32_t g = cfg_->group_of(ff);
      if (g >= 0) group_hits.emplace_back(g, ff);
    }
  }
  std::sort(group_hits.begin(), group_hits.end());
  for (std::size_t i = 0; i < group_hits.size();) {
    std::size_t j = i;
    while (j < group_hits.size() && group_hits[j].first == group_hits[i].first) {
      ++j;
    }
    if ((j - i) % 2 == 1) {  // odd number of flips in the group: detected
      // The checker compares the group's outputs against the stored
      // predicted parity combinationally, within the same cycle the
      // corrupted flip-flop first drives logic -- so recovery engages
      // before the corruption is captured by a downstream latch.  (The
      // 1-cycle detection latency of Table 3 is recovery timing, charged
      // by the recovery mechanism.)
      dets_.push_back(
          {cycle_, cycle_, DetectionSource::kParity, group_hits[i].second});
    }
    i = j;
  }
}

template <class Pipeline, bool kTraced>
void CoreShell<Pipeline, kTraced>::process_detections() {
  for (std::size_t i = 0; i < dets_.size(); ++i) {
    if (dets_[i].due > cycle_) continue;
    const PendingDetection d = dets_[i];
    dets_.erase(dets_.begin() + static_cast<std::ptrdiff_t>(i));
    attempt_recovery(d);
    return;  // one recovery/ED per cycle; ED stops the run anyway
  }
}

// A detection the configured recovery cannot repair ends the run as a
// detected error (DUE).  Each pipeline's own squash repairs only
// flushable FFs -- errors that escaped to architectural or post-commit
// state stay (Heuristic 1 hardens those FFs instead) -- and is refused on
// the other core.  IR/EIR roll back to the cycle before the upset; DFC
// detections need EIR's extended replay buffers.
template <class Pipeline, bool kTraced>
void CoreShell<Pipeline, kTraced>::attempt_recovery(const PendingDetection& d) {
  const RecoveryKind rec =
      cfg_ != nullptr ? cfg_->recovery : RecoveryKind::kNone;
  switch (rec) {
    case RecoveryKind::kNone:
      break;
    case RecoveryKind::kFlush:
    case RecoveryKind::kRob:
      if (rec == Pipeline::kOwnRecovery &&
          reg_.structure_of(d.ff).flags.flushable) {
        self().recover_pipeline();
        ++recoveries_;
        return;
      }
      break;
    case RecoveryKind::kIr:
    case RecoveryKind::kEir: {
      if (d.src == DetectionSource::kDfc && rec != RecoveryKind::kEir) break;
      RollbackRing::Restored rs;
      const std::uint64_t target = d.flip_cycle == 0 ? 0 : d.flip_cycle - 1;
      const bool ok = ring_.restore(
          target, reg_, &rs, [this](std::uint32_t addr, std::uint32_t old) {
            mem_.set(addr / 4, old);
          });
      if (!ok) break;
      for (std::size_t r = 0; r < rs.regs.size(); ++r) regs_.set(r, rs.regs[r]);
      committed_ = rs.committed;
      out_.resize(rs.out_len);
      set_dfc_sig(static_cast<std::uint32_t>(rs.extra));
      self().after_rollback();
      dets_.clear();
      cycle_ += Pipeline::kIrPenalty;
      ++recoveries_;
      return;
    }
  }
  status_ = isa::RunStatus::kDetected;
  detected_by_ = d.src;
}

template <class Pipeline, bool kTraced>
CoreRunResult CoreShell<Pipeline, kTraced>::current_result() const {
  CoreRunResult r;
  r.status = status_ == isa::RunStatus::kRunning ? isa::RunStatus::kWatchdog
                                                 : status_;
  r.trap = trap_code_;
  r.exit_code = exit_code_;
  r.det_id = det_id_;
  r.cycles = cycle_;
  r.instrs = committed_;
  r.output = out_.to_vector();
  r.detected_by = detected_by_;
  r.recoveries = recoveries_;
  return r;
}

// Earliest cycle an IR/EIR rollback can still target from this state: a
// restore always aims at the cycle before a detection's causing flip, and
// the flips reachable from a snapshot are the pending detections, the
// last recorded flip, and plan flips re-armed by restore() (which drops
// flips older than the snapshot cycle).  Ring entries older than this are
// unreachable and are pruned from snapshots.
template <class Pipeline, bool kTraced>
std::uint64_t CoreShell<Pipeline, kTraced>::earliest_rollback_target()
    const noexcept {
  std::uint64_t t = cycle_ == 0 ? 0 : cycle_ - 1;
  for (const auto& d : dets_) {
    t = std::min<std::uint64_t>(t, d.flip_cycle == 0 ? 0 : d.flip_cycle - 1);
  }
  if (last_flip_cycle_ > 0) {
    t = std::min<std::uint64_t>(t, last_flip_cycle_ - 1);
  }
  return t;
}

template <class Pipeline, bool kTraced>
void CoreShell<Pipeline, kTraced>::snapshot(CoreCheckpoint* out) const {
  flush_aux();
  // COW capture against the last snapshot taken from / restored into this
  // core: segments it did not write since are shared, not copied.
  arena_.snapshot_to(&out->state);
  out->layout_fp = arena_.fingerprint();
  out->cycle = cycle_;
  out->committed = committed_;
  out->output_spill = out_spill_;
  out->dets = dets_;
  out->ring = ring_.pruned(earliest_rollback_target());
  self().snapshot_extra(out);
}

template <class Pipeline, bool kTraced>
void CoreShell<Pipeline, kTraced>::restore(const CoreCheckpoint& cp,
                                           const InjectionPlan* plan) {
  if (cp.layout_fp != arena_.fingerprint()) {
    throw std::logic_error(
        std::string(self().name()) +
        "Core::restore: checkpoint layout fingerprint mismatch (snapshot "
        "taken under a different core model, program or config)");
  }
  arena_.restore_from(cp.state);  // copies only written / differing segments
  load_aux();
  out_spill_ = cp.output_spill;
  dets_ = cp.dets;
  ring_ = cp.ring;
  self().restore_extra(cp);
  flips_ = armed_flips(plan, cycle_);
  next_flip_ = 0;
}

template <class Pipeline, bool kTraced>
bool CoreShell<Pipeline, kTraced>::state_matches(
    const CoreCheckpoint& cp, const std::uint64_t* live_ff) const {
  // Compare of the forward region (FF pool -- live slots only when
  // live_ff is given -- fwd scalars, regs, mem, pipeline sections, OUT),
  // rejecting at the first divergent segment; then the pipeline's extra
  // parts, which may rely on the arena already matching.
  return arena_.matches_fwd(cp.state, live_ff) &&
         out_spill_ == cp.output_spill && self().extra_matches(cp);
}

}  // namespace clear::arch

#endif  // CLEAR_ARCH_CORE_SHELL_H
