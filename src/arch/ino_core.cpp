// InOCore: a simple, 7-stage in-order pipeline ("Leon3-class", paper
// Table 1).  Stages: fetch (f) -> decode (d) -> register access (a) ->
// execute (e) -> memory (m) -> exception (x) -> writeback (w).  All
// sequential state is registered in the FF registry under Leon3-flavoured
// structure names (compare the paper's Appendix A), so single-bit soft
// errors can be injected into any state bit and propagate through real
// pipeline logic.
//
// Timing model (gives the low IPC the paper reports for the InO design):
//   * 1 instruction fetched/decoded per cycle, blocking stages
//   * memory ops occupy the memory stage for 2 cycles (wait state)
//   * mul occupies execute for 3 cycles, div/rem for 12
//   * branches/jumps resolve in execute; taken redirects annul d/a
//     (3-cycle penalty); branches predicted not-taken
//   * register hazards resolved by interlock (no forwarding), like the
//     throughput-bound configuration of the original design
//
// Resilience hooks implemented in-simulator:
//   * EDS (same-cycle) and parity (next-cycle) detection of injected flips,
//     with SEMU cancellation inside one parity group
//   * flush recovery: annul f..e, drain m/x/w, refetch from the committed
//     next-PC (errors in m/x/w latches are not flushable -- paper Sec. 2.4)
//   * IR/EIR recovery: checkpoint rollback via RollbackRing (47-cycle
//     replay penalty, Table 15)
//   * DFC: commit-stream signature accumulation checked at sigchk
//     boundaries against the compiler-embedded static signature table
#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/arena.h"
#include "arch/core.h"
#include "arch/rollback.h"
#include "util/rng.h"

namespace clear::arch {

namespace {

using isa::Op;
using isa::Trap;

constexpr int kMulCycles = 3;
constexpr int kDivCycles = 12;
constexpr int kMemWaitCycles = 1;   // extra cycles per memory access
constexpr int kFlushDrain = 3;      // m/x/w drain cycles during flush
constexpr std::uint64_t kIrPenalty = 47;  // Table 15 (InO IR/EIR latency)
constexpr std::size_t kRingDepth = 320;   // covers DFC detection latency

constexpr bool valid_op(std::uint64_t v) noexcept {
  return v < static_cast<std::uint64_t>(isa::kOpCount);
}

bool uses_rs1(Op op) noexcept {
  switch (isa::format_of(op)) {
    case isa::Format::kR:
    case isa::Format::kI:
    case isa::Format::kS:
    case isa::Format::kB:
      return true;
    case isa::Format::kX:
      return op == Op::kOut;
    default:
      return false;
  }
}

bool uses_rs2(Op op) noexcept {
  switch (isa::format_of(op)) {
    case isa::Format::kR:
    case isa::Format::kS:
    case isa::Format::kB:
      return true;
    default:
      return false;
  }
}

constexpr std::uint32_t rotl5(std::uint32_t x) noexcept {
  return (x << 5) | (x >> 27);
}

// Decoded-control pipeline latch shared by stages a/e/m/x/w.
template <bool kTraced>
struct StageCtl {
  using Reg = BasicReg<kTraced>;
  Reg valid, op, rd, rs1, rs2, imm, pc, inst, trap;

  void attach(FFRegistry& r, const std::string& p, FFFlags fl) {
    valid = r.add<kTraced>(p + ".valid", 1, fl);
    op = r.add<kTraced>(p + ".ctrl.op", 6, fl);
    rd = r.add<kTraced>(p + ".ctrl.rd", 5, fl);
    rs1 = r.add<kTraced>(p + ".ctrl.rs1", 5, fl);
    rs2 = r.add<kTraced>(p + ".ctrl.rs2", 5, fl);
    imm = r.add<kTraced>(p + ".ctrl.imm", 32, fl);
    pc = r.add<kTraced>(p + ".ctrl.pc", 32, fl);
    inst = r.add<kTraced>(p + ".ctrl.inst", 32, fl);
    trap = r.add<kTraced>(p + ".ctrl.tt", 4, fl);
  }

  [[nodiscard]] bool live() const noexcept { return valid != 0; }
  void bubble() noexcept { valid = 0; }
  void copy_from(const StageCtl& o) noexcept {
    valid = static_cast<std::uint64_t>(o.valid);
    op = static_cast<std::uint64_t>(o.op);
    rd = static_cast<std::uint64_t>(o.rd);
    rs1 = static_cast<std::uint64_t>(o.rs1);
    rs2 = static_cast<std::uint64_t>(o.rs2);
    imm = static_cast<std::uint64_t>(o.imm);
    pc = static_cast<std::uint64_t>(o.pc);
    inst = static_cast<std::uint64_t>(o.inst);
    trap = static_cast<std::uint64_t>(o.trap);
  }
};

// One source, two builds: InOCore<false> is the production core,
// InOCore<true> the traced twin golden recording uses (see BasicReg).
template <bool kTraced>
class InOCore final : public Core {
  using Reg = BasicReg<kTraced>;
  using Stage = StageCtl<kTraced>;

 public:
  InOCore() { build(); }

  [[nodiscard]] const char* name() const noexcept override { return "InO"; }
  [[nodiscard]] double clock_ghz() const noexcept override { return 2.0; }
  [[nodiscard]] const FFRegistry& registry() const noexcept override {
    return reg_;
  }

  void begin(const isa::Program& prog, const ResilienceConfig* cfg,
             const InjectionPlan* plan) override {
    reset(prog, cfg, plan);
  }

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
  [[nodiscard]] StateView state_view() noexcept override {
    return {reg_.pool_data(), arena_.ff_words(), arena_.raw_buf(),
            arena_.fwd_words(), arena_.total_words()};
  }
  [[nodiscard]] const StateArena& arena() const noexcept override {
    return arena_;
  }

 private:
  void build();
  void reset(const isa::Program& prog, const ResilienceConfig* cfg,
             const InjectionPlan* plan);
  void do_cycle();
  void apply_injections();
  void process_detections();
  void attempt_recovery(DetectionSource src, std::uint32_t ff,
                        std::uint64_t flip_cycle);
  void do_wb();
  void stage_x_to_w();
  void stage_m_to_x();
  void stage_e_to_m();
  void stage_a_to_e();
  void stage_d_to_a();
  void fetch();
  [[nodiscard]] bool ra_hazard() const;
  void mem_undo(std::uint32_t addr, std::uint32_t old) {
    mem_.set(addr / 4, old);
  }

  FFRegistry reg_;
  // fetch
  Reg f_pc_;
  // decode input latch
  Reg d_valid_, d_inst_, d_pc_, d_trap_, d_pv_;
  // stage control latches
  Stage a_, e_, m_, x_, w_;
  // register-access extras (window bookkeeping: unused by this ISA)
  Reg a_cwp_, a_rfe1_, a_rfe2_;
  // execute extras
  Reg e_op1_, e_op2_, e_cwp_, e_y_, e_ymsb_, e_mulstep_, e_mac_, e_su_, e_et_;
  Reg e_mul_busy_, e_mul_cnt_, e_mul_lo_, e_mul_hi_;
  Reg e_div_busy_, e_div_cnt_, e_div_q_, e_div_r_;
  // memory extras
  Reg m_result_, m_addr_, m_wdata_, m_npcr_, m_memcnt_, m_y_, m_wicc_, m_wy_;
  Reg m_dci_asi_, m_dci_lock_, m_dci_signed_, m_irqen_, m_irqen2_;
  // exception extras
  Reg x_result_, x_npcr_, x_icc_, x_y_, x_debug_, x_ipend_, x_intack_;
  Reg x_rett_, x_pv_, x_wicc_, x_wy_;
  // writeback / special registers
  Reg w_result_, w_npcr_, w_s_icc_, w_s_tt_, w_s_tba_, w_s_pil_, w_s_ps_;
  Reg w_s_ef_, w_s_ec_, w_s_et_, w_s_dwt_, w_s_y_, w_cwp_;
  Reg arch_npc_;  // committed next-PC: the flush-recovery refetch anchor

  // ---- non-FF state: flat arena layout ----
  // Forward scalar slots (influence the remainder of the run).
  enum FwdSlot : std::size_t { kFwdDfcSig, kFwdFlushDrain, kFwdWords };
  // Bookkeeping slots (excluded from state_matches; redirect_*
  // is dead at cycle boundaries -- do_cycle() clears it before any read).
  enum AuxSlot : std::size_t {
    kAuxCycle, kAuxCommitted, kAuxStatus, kAuxTrap, kAuxExit, kAuxDetId,
    kAuxDetBy, kAuxRecoveries, kAuxRedirect, kAuxRedirectPc,
    kAuxLastFlipCycle, kAuxLastFlipFf, kAuxWords
  };
  static constexpr std::size_t kOutCapacity = 2048;  // OUT words in-arena

  void layout(const isa::Program& prog, const ResilienceConfig* cfg);
  void flush_aux() const;
  void load_aux();

  [[nodiscard]] std::uint32_t dfc_sig() const noexcept {
    return static_cast<std::uint32_t>(fwd_[kFwdDfcSig]);
  }
  void set_dfc_sig(std::uint32_t v) noexcept { fwd_.set(kFwdDfcSig, v); }
  [[nodiscard]] std::int64_t flush_drain() const noexcept {
    return static_cast<std::int64_t>(fwd_[kFwdFlushDrain]);
  }
  void set_flush_drain(std::int64_t v) noexcept {
    fwd_.set(kFwdFlushDrain, static_cast<std::uint64_t>(v));
  }

  const isa::Program* prog_ = nullptr;
  const ResilienceConfig* cfg_ = nullptr;
  StateArena arena_;
  int sec_fwd_ = 0, sec_regs_ = 0, sec_mem_ = 0, sec_out_ = 0, sec_aux_ = 0;
  // Arena handles: every write marks its segment dirty (ArenaPtr).
  ArenaPtr<std::uint64_t> fwd_;
  ArenaPtr<std::uint32_t> regs_;
  ArenaPtr<std::uint32_t> mem_;
  std::size_t mem_words_ = 0;
  ArenaPtr<std::uint64_t> aux_;
  OutputBuf out_;
  std::vector<std::uint32_t> out_spill_;
  std::uint64_t cycle_ = 0;
  std::uint64_t committed_ = 0;
  isa::RunStatus status_ = isa::RunStatus::kRunning;
  Trap trap_code_ = Trap::kNone;
  std::int32_t exit_code_ = 0;
  std::int32_t det_id_ = 0;
  DetectionSource detected_by_ = DetectionSource::kNone;
  std::uint32_t recoveries_ = 0;
  bool redirect_ = false;
  std::uint32_t redirect_pc_ = 0;

  using PendingDet = PendingDetection;
  std::vector<InjectionPlan::Flip> flips_;
  std::size_t next_flip_ = 0;
  std::uint64_t last_flip_cycle_ = 0;
  std::uint32_t last_flip_ff_ = 0;
  std::vector<PendingDet> dets_;
  RollbackRing ring_;
};

template <bool kTraced>
void InOCore<kTraced>::build() {
  const FFFlags fl_front{/*flushable=*/true, false, false};
  const FFFlags fl_back{/*flushable=*/false, false, false};
  // Sinks (FFFlags::sink): the window, Y and condition-code shadows and
  // the debug trace.  Each is read only to feed the next one of its
  // chain -- a.cwp -> e.cwp, a.rfe2 -> a.rfe1, e.y -> m.y -> x.y ->
  // w.s.y, x.icc -> w.s.icc -- or itself (x.debug); every use is in
  // stage_d_to_a/a_to_e/e_to_m/m_to_x/x_to_w below.
  FFFlags sink_front = fl_front;
  sink_front.sink = true;
  FFFlags sink_back = fl_back;
  sink_back.sink = true;

  f_pc_ = reg_.add<kTraced>("f.pc", 32, fl_front);
  d_valid_ = reg_.add<kTraced>("d.valid", 1, fl_front);
  d_inst_ = reg_.add<kTraced>("d.inst", 32, fl_front);
  d_pc_ = reg_.add<kTraced>("d.pc", 32, fl_front);
  d_trap_ = reg_.add<kTraced>("d.tt", 4, fl_front);
  d_pv_ = reg_.add<kTraced>("d.pv", 1, fl_front);

  a_.attach(reg_, "a", fl_front);
  a_cwp_ = reg_.add<kTraced>("a.cwp", 3, sink_front);
  a_rfe1_ = reg_.add<kTraced>("a.rfe1", 1, sink_front);
  a_rfe2_ = reg_.add<kTraced>("a.rfe2", 1, sink_front);

  e_.attach(reg_, "e", fl_front);
  e_op1_ = reg_.add<kTraced>("e.op1", 32, fl_front);
  e_op2_ = reg_.add<kTraced>("e.op2", 32, fl_front);
  e_cwp_ = reg_.add<kTraced>("e.cwp", 3, sink_front);
  e_y_ = reg_.add<kTraced>("e.y", 32, sink_front);
  e_ymsb_ = reg_.add<kTraced>("e.ymsb", 1, fl_front);
  e_mulstep_ = reg_.add<kTraced>("e.mulstep", 3, fl_front);
  e_mac_ = reg_.add<kTraced>("e.mac", 32, fl_front);
  e_su_ = reg_.add<kTraced>("e.su", 1, fl_front);
  e_et_ = reg_.add<kTraced>("e.et", 1, fl_front);
  e_mul_busy_ = reg_.add<kTraced>("e.mul.busy", 1, fl_front);
  e_mul_cnt_ = reg_.add<kTraced>("e.mul.cnt", 3, fl_front);
  e_mul_lo_ = reg_.add<kTraced>("e.mul.lo", 32, fl_front);
  e_mul_hi_ = reg_.add<kTraced>("e.mul.hi", 32, fl_front);
  e_div_busy_ = reg_.add<kTraced>("e.div.busy", 1, fl_front);
  e_div_cnt_ = reg_.add<kTraced>("e.div.cnt", 4, fl_front);
  e_div_q_ = reg_.add<kTraced>("e.div.q", 32, fl_front);
  e_div_r_ = reg_.add<kTraced>("e.div.r", 32, fl_front);

  m_.attach(reg_, "m", fl_back);
  m_result_ = reg_.add<kTraced>("m.result", 32, fl_back);
  m_addr_ = reg_.add<kTraced>("m.addr", 32, fl_back);
  m_wdata_ = reg_.add<kTraced>("m.wdata", 32, fl_back);
  m_npcr_ = reg_.add<kTraced>("m.npc", 32, fl_back);
  m_memcnt_ = reg_.add<kTraced>("m.memcnt", 1, fl_back);
  m_y_ = reg_.add<kTraced>("m.y", 32, sink_back);
  m_wicc_ = reg_.add<kTraced>("m.ctrl.wicc", 1, fl_back);
  m_wy_ = reg_.add<kTraced>("m.ctrl.wy", 1, fl_back);
  m_dci_asi_ = reg_.add<kTraced>("m.dci.asi", 8, fl_back);
  m_dci_lock_ = reg_.add<kTraced>("m.dci.lock", 1, fl_back);
  m_dci_signed_ = reg_.add<kTraced>("m.dci.signed", 1, fl_back);
  m_irqen_ = reg_.add<kTraced>("m.irqen", 1, fl_back);
  m_irqen2_ = reg_.add<kTraced>("m.irqen2", 1, fl_back);

  x_.attach(reg_, "x", fl_back);
  x_result_ = reg_.add<kTraced>("x.result", 32, fl_back);
  x_npcr_ = reg_.add<kTraced>("x.npc", 32, fl_back);
  x_icc_ = reg_.add<kTraced>("x.icc", 4, sink_back);
  x_y_ = reg_.add<kTraced>("x.y", 32, sink_back);
  x_debug_ = reg_.add<kTraced>("x.debug", 48, sink_back);
  x_ipend_ = reg_.add<kTraced>("x.ipend", 4, fl_back);
  x_intack_ = reg_.add<kTraced>("x.intack", 1, fl_back);
  x_rett_ = reg_.add<kTraced>("x.ctrl.rett", 1, fl_back);
  x_pv_ = reg_.add<kTraced>("x.ctrl.pv", 1, fl_back);
  x_wicc_ = reg_.add<kTraced>("x.ctrl.wicc", 1, fl_back);
  x_wy_ = reg_.add<kTraced>("x.ctrl.wy", 1, fl_back);

  w_.attach(reg_, "w", fl_back);
  w_result_ = reg_.add<kTraced>("w.result", 32, fl_back);
  w_npcr_ = reg_.add<kTraced>("w.npc", 32, fl_back);
  w_s_icc_ = reg_.add<kTraced>("w.s.icc", 4, sink_back);
  w_s_tt_ = reg_.add<kTraced>("w.s.tt", 8, fl_back);
  w_s_tba_ = reg_.add<kTraced>("w.s.tba", 20, fl_back);
  w_s_pil_ = reg_.add<kTraced>("w.s.pil", 4, fl_back);
  w_s_ps_ = reg_.add<kTraced>("w.s.ps", 1, fl_back);
  w_s_ef_ = reg_.add<kTraced>("w.s.ef", 1, fl_back);
  w_s_ec_ = reg_.add<kTraced>("w.s.ec", 1, fl_back);
  w_s_et_ = reg_.add<kTraced>("w.s.et", 1, fl_back);
  w_s_dwt_ = reg_.add<kTraced>("w.s.dwt", 1, fl_back);
  w_s_y_ = reg_.add<kTraced>("w.s.y", 32, sink_back);
  w_cwp_ = reg_.add<kTraced>("w.cwp", 3, fl_back);
  arch_npc_ = reg_.add<kTraced>("w.s.npc", 32, fl_back);
}

// Lays the non-FF state out in the flat arena (fwd scalars | regs | mem |
// OUT | bookkeeping) and binds the typed pointers.  finish_layout()
// zero-fills the buffer, which is the reset of everything arena-resident.
template <bool kTraced>
void InOCore<kTraced>::layout(const isa::Program& prog,
                              const ResilienceConfig* cfg) {
  arena_.begin_layout(reg_.pool_data(), reg_.pool().size());
  sec_fwd_ = arena_.add_u64(kFwdWords);
  sec_regs_ = arena_.add_u32(isa::kNumRegs);
  sec_mem_ = arena_.add_u32(prog.mem_bytes / 4);
  sec_out_ = arena_.add_u32(1 + kOutCapacity);
  arena_.mark_aux();
  sec_aux_ = arena_.add_u64(kAuxWords);
  arena_.finish_layout(layout_identity(name(), prog, cfg));
  fwd_ = arena_.section<std::uint64_t>(sec_fwd_);
  regs_ = arena_.section<std::uint32_t>(sec_regs_);
  mem_ = arena_.section<std::uint32_t>(sec_mem_);
  mem_words_ = prog.mem_bytes / 4;
  out_.bind(arena_.section<std::uint32_t>(sec_out_), kOutCapacity,
            &out_spill_);
  aux_ = arena_.section<std::uint64_t>(sec_aux_);
  out_spill_.clear();
}

template <bool kTraced>
void InOCore<kTraced>::flush_aux() const {
  aux_.set(kAuxCycle, cycle_);
  aux_.set(kAuxCommitted, committed_);
  aux_.set(kAuxStatus, static_cast<std::uint64_t>(status_));
  aux_.set(kAuxTrap, static_cast<std::uint64_t>(trap_code_));
  aux_.set(kAuxExit, static_cast<std::uint32_t>(exit_code_));
  aux_.set(kAuxDetId, static_cast<std::uint32_t>(det_id_));
  aux_.set(kAuxDetBy, static_cast<std::uint64_t>(detected_by_));
  aux_.set(kAuxRecoveries, recoveries_);
  aux_.set(kAuxRedirect, redirect_ ? 1 : 0);
  aux_.set(kAuxRedirectPc, redirect_pc_);
  aux_.set(kAuxLastFlipCycle, last_flip_cycle_);
  aux_.set(kAuxLastFlipFf, last_flip_ff_);
}

template <bool kTraced>
void InOCore<kTraced>::load_aux() {
  cycle_ = aux_[kAuxCycle];
  committed_ = aux_[kAuxCommitted];
  status_ = static_cast<isa::RunStatus>(aux_[kAuxStatus]);
  trap_code_ = static_cast<Trap>(aux_[kAuxTrap]);
  exit_code_ = static_cast<std::int32_t>(
      static_cast<std::uint32_t>(aux_[kAuxExit]));
  det_id_ = static_cast<std::int32_t>(
      static_cast<std::uint32_t>(aux_[kAuxDetId]));
  detected_by_ = static_cast<DetectionSource>(aux_[kAuxDetBy]);
  recoveries_ = static_cast<std::uint32_t>(aux_[kAuxRecoveries]);
  redirect_ = aux_[kAuxRedirect] != 0;
  redirect_pc_ = static_cast<std::uint32_t>(aux_[kAuxRedirectPc]);
  last_flip_cycle_ = aux_[kAuxLastFlipCycle];
  last_flip_ff_ = static_cast<std::uint32_t>(aux_[kAuxLastFlipFf]);
}

template <bool kTraced>
void InOCore<kTraced>::reset(const isa::Program& prog,
                             const ResilienceConfig* cfg,
                             const InjectionPlan* plan) {
  prog_ = &prog;
  cfg_ = cfg;
  reg_.clear_state();
  layout(prog, cfg);  // zero-fills mem/regs/OUT/scalars
  const std::uint32_t base = prog.data_base / 4;
  for (std::size_t i = 0; i < prog.data.size(); ++i) {
    mem_.set(base + i, prog.data[i]);
  }
  cycle_ = 0;
  committed_ = 0;
  status_ = isa::RunStatus::kRunning;
  trap_code_ = Trap::kNone;
  exit_code_ = 0;
  det_id_ = 0;
  detected_by_ = DetectionSource::kNone;
  recoveries_ = 0;
  redirect_ = false;
  redirect_pc_ = 0;
  last_flip_cycle_ = 0;
  last_flip_ff_ = 0;
  flips_ = armed_flips(plan, 0);
  next_flip_ = 0;
  dets_.clear();
  const bool ir = cfg != nullptr && (cfg->recovery == RecoveryKind::kIr ||
                                     cfg->recovery == RecoveryKind::kEir);
  ring_.reset(ir ? kRingDepth : 0);
}

template <bool kTraced>
void InOCore<kTraced>::apply_injections() {
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
  // predicted parity against the group's outputs and fires one cycle later.
  // Two upsets in the same parity group cancel (this is why the layout
  // enforces minimum spacing between same-group flip-flops, Table 6).
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

template <bool kTraced>
void InOCore<kTraced>::process_detections() {
  for (std::size_t i = 0; i < dets_.size(); ++i) {
    if (dets_[i].due > cycle_) continue;
    const PendingDet d = dets_[i];
    dets_.erase(dets_.begin() + static_cast<std::ptrdiff_t>(i));
    attempt_recovery(d.src, d.ff, d.flip_cycle);
    return;  // one recovery/ED per cycle; ED stops the run anyway
  }
}

template <bool kTraced>
void InOCore<kTraced>::attempt_recovery(DetectionSource src,
                                        std::uint32_t ff,
                                        std::uint64_t flip_cycle) {
  const RecoveryKind rec =
      cfg_ != nullptr ? cfg_->recovery : RecoveryKind::kNone;
  auto fail_detected = [&] {
    status_ = isa::RunStatus::kDetected;
    detected_by_ = src;
  };
  switch (rec) {
    case RecoveryKind::kNone:
      fail_detected();
      return;
    case RecoveryKind::kFlush: {
      // Errors at or past the memory stage have escaped to architectural
      // state; flush cannot help (Heuristic 1 hardens those FFs instead).
      if (!reg_.structure_of(ff).flags.flushable) {
        fail_detected();
        return;
      }
      d_valid_ = 0;
      a_.bubble();
      e_.bubble();
      e_mul_busy_ = 0;
      e_div_busy_ = 0;
      set_flush_drain(kFlushDrain);
      ++recoveries_;
      return;
    }
    case RecoveryKind::kIr:
    case RecoveryKind::kEir: {
      // DFC recovery requires the extended replay buffers of EIR.
      if (src == DetectionSource::kDfc && rec != RecoveryKind::kEir) {
        fail_detected();
        return;
      }
      RollbackRing::Restored rs;
      const std::uint64_t target = flip_cycle == 0 ? 0 : flip_cycle - 1;
      const bool ok = ring_.restore(
          target, reg_, &rs,
          [this](std::uint32_t addr, std::uint32_t old) { mem_undo(addr, old); });
      if (!ok) {
        fail_detected();
        return;
      }
      for (std::size_t r = 0; r < rs.regs.size(); ++r) regs_.set(r, rs.regs[r]);
      committed_ = rs.committed;
      out_.resize(rs.out_len);
      set_dfc_sig(static_cast<std::uint32_t>(rs.extra));
      set_flush_drain(0);
      dets_.clear();
      cycle_ += kIrPenalty;
      ++recoveries_;
      return;
    }
    case RecoveryKind::kRob:
      // RoB recovery is an OoO mechanism; on InO treat as unrecoverable.
      fail_detected();
      return;
  }
}

template <bool kTraced>
bool InOCore<kTraced>::ra_hazard() const {
  if (!valid_op(a_.op)) return false;
  const Op op = static_cast<Op>(static_cast<std::uint64_t>(a_.op));
  const std::uint64_t s1 = uses_rs1(op) ? static_cast<std::uint64_t>(a_.rs1) : 0;
  const std::uint64_t s2 = uses_rs2(op) ? static_cast<std::uint64_t>(a_.rs2) : 0;
  auto writes = [](const Stage& st) -> std::uint64_t {
    if (!st.live() || st.trap != 0 || !valid_op(st.op)) return 0;
    const Op sop = static_cast<Op>(static_cast<std::uint64_t>(st.op));
    if (!isa::writes_rd(sop)) return 0;
    return st.rd;
  };
  // w is included because its register write happens at the *next* cycle's
  // writeback, after register-access has already read the file this cycle.
  for (const Stage* st : {&e_, &m_, &x_, &w_}) {
    const std::uint64_t rd = writes(*st);
    if (rd != 0 && (rd == s1 || rd == s2)) return true;
  }
  return false;
}

template <bool kTraced>
void InOCore<kTraced>::do_wb() {
  if (!w_.live()) return;
  if (w_.trap != 0) {
    status_ = isa::RunStatus::kTrapped;
    trap_code_ = static_cast<Trap>(static_cast<std::uint64_t>(w_.trap) & 7);
    w_s_tt_ = static_cast<std::uint64_t>(w_.trap);
    return;
  }
  if (!valid_op(w_.op)) {
    status_ = isa::RunStatus::kTrapped;
    trap_code_ = Trap::kInvalidOpcode;
    return;
  }
  const Op op = static_cast<Op>(static_cast<std::uint64_t>(w_.op));
  const bool dfc = cfg_ != nullptr && cfg_->dfc;
  // Block terminators (control flow, halt, det) commit between a block's
  // sigchk and the next block's body; excluding them keeps each static
  // signature window equal to exactly one basic block regardless of the
  // path taken into it.
  if (dfc && op != Op::kSigchk && op != Op::kHalt && op != Op::kDet &&
      !isa::is_branch(op) && !isa::is_jump(op)) {
    set_dfc_sig(rotl5(dfc_sig()) ^ w_.inst.u32());
  }
  switch (op) {
    case Op::kOut:
      out_.push(w_result_.u32());
      break;
    case Op::kHalt:
      status_ = isa::RunStatus::kHalted;
      exit_code_ = static_cast<std::int32_t>(
          static_cast<std::int16_t>(w_.imm.u32() & 0xffff));
      ++committed_;
      return;
    case Op::kDet:
      status_ = isa::RunStatus::kDetected;
      detected_by_ = DetectionSource::kSoftware;
      det_id_ = static_cast<std::int32_t>(w_.imm.u32() & 0xffff);
      ++committed_;
      return;
    case Op::kSigchk:
      if (dfc) {
        const auto id = static_cast<std::uint16_t>(w_.imm.u32() & 0xffff);
        const auto it = prog_->dfc_signatures.find(id);
        const bool match = it != prog_->dfc_signatures.end() &&
                           it->second == dfc_sig();
        set_dfc_sig(0);
        if (!match) {
          dets_.push_back(
              {cycle_ + 1, last_flip_cycle_, DetectionSource::kDfc,
               last_flip_ff_});
        }
      }
      break;
    default:
      if (isa::writes_rd(op) && w_.rd != 0) {
        regs_.set(w_.rd, w_result_.u32());
      }
      break;
  }
  // Commit bookkeeping: the committed next-PC anchors flush recovery.
  arch_npc_ = static_cast<std::uint64_t>(w_npcr_);
  ++committed_;
  w_.bubble();
}

template <bool kTraced>
void InOCore<kTraced>::stage_x_to_w() {
  w_.bubble();
  if (!x_.live()) return;
  w_.copy_from(x_);
  w_result_ = static_cast<std::uint64_t>(x_result_);
  w_npcr_ = static_cast<std::uint64_t>(x_npcr_);
  // Special-register shadow writes (architecturally unused by this ISA).
  w_s_icc_ = static_cast<std::uint64_t>(x_icc_);
  w_s_y_ = static_cast<std::uint64_t>(x_y_);
  x_.bubble();
}

template <bool kTraced>
void InOCore<kTraced>::stage_m_to_x() {
  if (!m_.live()) return;
  const bool has_trap = m_.trap != 0;
  const bool op_ok = valid_op(m_.op);
  const Op op = op_ok ? static_cast<Op>(static_cast<std::uint64_t>(m_.op))
                      : Op::kHalt;
  const bool memop = op_ok && !has_trap &&
                     (isa::is_load(op) || isa::is_store(op));
  if (memop && m_memcnt_ == 0) {
    // First memory-stage cycle: wait state (cache access latency).
    m_memcnt_ = kMemWaitCycles;
    return;  // stall: x stays bubble, m holds
  }
  std::uint64_t result = m_result_;
  std::uint64_t trap = m_.trap;
  if (memop) {
    m_memcnt_ = 0;
    const std::uint32_t addr = m_addr_.u32();
    const std::uint32_t bytes = static_cast<std::uint32_t>(mem_words_) * 4;
    if (isa::is_load(op)) {
      if (op == Op::kLw && (addr & 3u) != 0) {
        trap = static_cast<std::uint64_t>(Trap::kMisalignedLoad);
      } else if (addr >= bytes) {
        trap = static_cast<std::uint64_t>(Trap::kLoadOutOfBounds);
      } else {
        std::uint32_t v = mem_[addr / 4];
        if (op != Op::kLw) {
          const std::uint32_t byte = (v >> ((addr & 3u) * 8)) & 0xffu;
          v = op == Op::kLb ? static_cast<std::uint32_t>(static_cast<std::int32_t>(
                                  static_cast<std::int8_t>(byte)))
                            : byte;
        }
        result = v;
      }
    } else {  // store
      if (op == Op::kSw && (addr & 3u) != 0) {
        trap = static_cast<std::uint64_t>(Trap::kMisalignedStore);
      } else if (addr >= bytes) {
        trap = static_cast<std::uint64_t>(Trap::kStoreOutOfBounds);
      } else {
        const std::uint32_t old = mem_[addr / 4];
        std::uint32_t w = old;
        if (op == Op::kSw) {
          w = m_wdata_.u32();
        } else {
          const std::uint32_t shift = (addr & 3u) * 8;
          w = (w & ~(0xffu << shift)) | ((m_wdata_.u32() & 0xffu) << shift);
        }
        mem_.set(addr / 4, w);
        ring_.record_write(addr & ~3u, old);
      }
    }
  }
  x_.copy_from(m_);
  x_.trap = trap;
  x_result_ = result;
  x_npcr_ = static_cast<std::uint64_t>(m_npcr_);
  // Condition codes / diagnostic registers (written, never consumed).
  x_icc_ = ((result == 0) ? 4u : 0u) | ((result >> 31) & 1u ? 8u : 0u);
  x_y_ = static_cast<std::uint64_t>(m_y_);
  x_debug_ = (static_cast<std::uint64_t>(x_debug_) << 16) ^ m_.pc;
  m_.bubble();
}

template <bool kTraced>
void InOCore<kTraced>::stage_e_to_m() {
  if (m_.live() || !e_.live()) return;  // memory stage busy -> hold
  const bool op_ok = valid_op(e_.op);
  std::uint64_t trap = e_.trap;
  if (!op_ok && trap == 0) {
    trap = static_cast<std::uint64_t>(Trap::kInvalidOpcode);
  }
  const Op op = op_ok ? static_cast<Op>(static_cast<std::uint64_t>(e_.op))
                      : Op::kHalt;
  const std::uint32_t op1 = e_op1_.u32();
  const std::uint32_t op2 = e_op2_.u32();
  const std::uint32_t imm = e_.imm.u32();
  const std::uint32_t pc = e_.pc.u32();
  std::uint32_t result = 0;
  std::uint32_t npcr = pc + 4;
  std::uint32_t addr = 0;
  std::uint32_t wdata = 0;

  if (trap == 0) {
    // Multi-cycle units: occupy execute until the count elapses.
    if (isa::is_mul(op)) {
      if (e_mul_busy_ == 0) {
        e_mul_busy_ = 1;
        e_mul_cnt_ = kMulCycles - 1;
        e_mul_lo_ = isa::alu_eval(Op::kMul, op1, op2);
        e_mul_hi_ = isa::alu_eval(Op::kMulh, op1, op2);
        e_y_ = static_cast<std::uint64_t>(e_mul_hi_);
        e_ymsb_ = (static_cast<std::uint64_t>(e_mul_hi_) >> 31) & 1;
        return;  // stall
      }
      if (e_mul_cnt_ != 0) {
        e_mul_cnt_ = static_cast<std::uint64_t>(e_mul_cnt_) - 1;
        return;  // stall
      }
      result = op == Op::kMul ? e_mul_lo_.u32() : e_mul_hi_.u32();
      e_mul_busy_ = 0;
    } else if (isa::is_div(op)) {
      if (op2 == 0) {
        trap = static_cast<std::uint64_t>(Trap::kDivByZero);
      } else if (e_div_busy_ == 0) {
        e_div_busy_ = 1;
        e_div_cnt_ = kDivCycles - 1;
        e_div_q_ = isa::alu_eval(Op::kDiv, op1, op2);
        e_div_r_ = isa::alu_eval(Op::kRem, op1, op2);
        return;  // stall
      } else if (e_div_cnt_ != 0) {
        e_div_cnt_ = static_cast<std::uint64_t>(e_div_cnt_) - 1;
        return;  // stall
      } else {
        result = op == Op::kDiv ? e_div_q_.u32() : e_div_r_.u32();
        e_div_busy_ = 0;
      }
    } else {
      switch (isa::format_of(op)) {
        case isa::Format::kR:
          result = isa::alu_eval(op, op1, op2);
          break;
        case isa::Format::kI:
          if (isa::is_load(op)) {
            addr = op1 + imm;
          } else if (op == Op::kJalr) {
            const std::uint32_t t = op1 + imm;
            if ((t & 3u) != 0 ||
                t / 4 >= static_cast<std::uint32_t>(prog_->code.size())) {
              trap = static_cast<std::uint64_t>(Trap::kPcOutOfBounds);
            } else {
              result = pc + 4;
              npcr = t;
              redirect_ = true;
              redirect_pc_ = t;
            }
          } else {
            result = isa::alu_eval(op, op1, imm);
          }
          break;
        case isa::Format::kS:
          addr = op1 + imm;
          wdata = op2;
          break;
        case isa::Format::kB:
          if (isa::branch_taken(op, op1, op2)) {
            npcr = pc + imm * 4;
            redirect_ = true;
            redirect_pc_ = npcr;
          }
          break;
        case isa::Format::kJ:
          result = pc + 4;
          npcr = pc + imm * 4;
          redirect_ = true;
          redirect_pc_ = npcr;
          break;
        case isa::Format::kU:
          result = imm << 16;
          break;
        case isa::Format::kX:
          if (op == Op::kOut) result = op1;
          break;
      }
    }
  }
  m_.copy_from(e_);
  m_.trap = trap;
  m_result_ = result;
  m_addr_ = addr;
  m_wdata_ = wdata;
  m_npcr_ = npcr;
  m_memcnt_ = 0;
  // Decorative data-cache-interface / Y-register staging (never consumed).
  m_y_ = static_cast<std::uint64_t>(e_y_);
  m_wicc_ = isa::format_of(op) == isa::Format::kR ? 1u : 0u;
  m_wy_ = isa::is_mul(op) ? 1u : 0u;
  m_dci_asi_ = 0x0b;
  m_dci_lock_ = 0;
  m_dci_signed_ = op == Op::kLb ? 1u : 0u;
  e_.bubble();
}

template <bool kTraced>
void InOCore<kTraced>::stage_a_to_e() {
  if (e_.live() || !a_.live() || redirect_) return;
  if (ra_hazard()) return;  // interlock: wait for writeback
  e_.copy_from(a_);
  e_op1_ = regs_[a_.rs1];
  e_op2_ = regs_[a_.rs2];
  e_cwp_ = static_cast<std::uint64_t>(a_cwp_);
  a_.bubble();
}

template <bool kTraced>
void InOCore<kTraced>::stage_d_to_a() {
  if (a_.live() || d_valid_ == 0 || redirect_) return;
  const auto dec = isa::decode(d_inst_.u32());
  a_.valid = 1;
  a_.pc = static_cast<std::uint64_t>(d_pc_);
  a_.inst = static_cast<std::uint64_t>(d_inst_);
  if (d_trap_ != 0) {
    a_.trap = static_cast<std::uint64_t>(d_trap_);
    a_.op = 0;
    a_.rd = 0;
    a_.rs1 = 0;
    a_.rs2 = 0;
    a_.imm = 0;
  } else if (!dec) {
    a_.trap = static_cast<std::uint64_t>(Trap::kInvalidOpcode);
    a_.op = 0;
    a_.rd = 0;
    a_.rs1 = 0;
    a_.rs2 = 0;
    a_.imm = 0;
  } else {
    a_.trap = 0;
    a_.op = static_cast<std::uint64_t>(dec->op);
    a_.rd = dec->rd;
    a_.rs1 = dec->rs1;
    a_.rs2 = dec->rs2;
    a_.imm = static_cast<std::uint32_t>(dec->imm);
  }
  a_rfe1_ = static_cast<std::uint64_t>(a_rfe2_);
  a_rfe2_ = 0;
  d_valid_ = 0;
}

template <bool kTraced>
void InOCore<kTraced>::fetch() {
  if (d_valid_ != 0 || redirect_ || flush_drain() > 0) return;
  const std::uint32_t pc = f_pc_.u32();
  d_valid_ = 1;
  d_pc_ = pc;
  if ((pc & 3u) != 0 ||
      pc / 4 >= static_cast<std::uint32_t>(prog_->code.size())) {
    d_inst_ = 0;
    d_trap_ = static_cast<std::uint64_t>(Trap::kPcOutOfBounds);
  } else {
    d_inst_ = prog_->code[pc / 4];
    d_trap_ = 0;
  }
  d_pv_ = 1;
  f_pc_ = pc + 4;
}

template <bool kTraced>
void InOCore<kTraced>::do_cycle() {
  apply_injections();
  process_detections();
  if (status_ != isa::RunStatus::kRunning) return;

  redirect_ = false;
  do_wb();
  if (status_ != isa::RunStatus::kRunning) return;
  stage_x_to_w();
  stage_m_to_x();
  stage_e_to_m();
  stage_a_to_e();
  stage_d_to_a();
  fetch();

  if (redirect_) {
    // Taken branch/jump resolved in execute: annul the younger stages.
    d_valid_ = 0;
    a_.bubble();
    f_pc_ = redirect_pc_;
  }
  if (flush_drain() > 0) {
    set_flush_drain(flush_drain() - 1);
    if (flush_drain() == 0) {
      // Drain finished: refetch from the committed next-PC.
      f_pc_ = static_cast<std::uint64_t>(arch_npc_);
      d_valid_ = 0;
      a_.bubble();
      e_.bubble();
    }
  }
  if (ring_.enabled()) {
    ring_.push(cycle_, reg_, regs_.get(), isa::kNumRegs, committed_, out_.size(),
               dfc_sig());
  }
  ++cycle_;
}

template <bool kTraced>
CoreRunResult InOCore<kTraced>::current_result() const {
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

template <bool kTraced>
void InOCore<kTraced>::snapshot(CoreCheckpoint* out) const {
  flush_aux();
  // COW capture against the last snapshot taken from / restored into this
  // core: segments it did not write since are shared, not copied.
  arena_.snapshot_to(&out->state);
  out->layout_fp = arena_.fingerprint();
  out->cycle = cycle_;
  out->committed = committed_;
  out->output_spill = out_spill_;
  out->dets = dets_;
  out->ring =
      ring_.pruned(earliest_rollback_target(cycle_, dets_, last_flip_cycle_));
  out->shadow = isa::MachineDelta{};
  CheckpointSizes& sz = out->sizes;
  sz = CheckpointSizes{};
  sz.ff = arena_.ff_words() * 8;
  sz.scalars = arena_.section_bytes(sec_fwd_);
  sz.regs = arena_.section_bytes(sec_regs_);
  sz.mem = arena_.section_bytes(sec_mem_);
  sz.output = arena_.section_bytes(sec_out_) + out_spill_.size() * 4;
  sz.aux = arena_.section_bytes(sec_aux_);
  sz.ring = out->ring.size_bytes();
  sz.dets = out->dets.size() * sizeof(PendingDetection);
}

template <bool kTraced>
void InOCore<kTraced>::restore(const CoreCheckpoint& cp,
                               const InjectionPlan* plan) {
  if (cp.layout_fp != arena_.fingerprint()) {
    throw std::logic_error(
        "InOCore::restore: checkpoint layout fingerprint mismatch (snapshot "
        "taken under a different core model, program or config)");
  }
  arena_.restore_from(cp.state);  // copies only written / differing segments
  load_aux();
  out_spill_ = cp.output_spill;
  dets_ = cp.dets;
  ring_ = cp.ring;
  flips_ = armed_flips(plan, cycle_);
  next_flip_ = 0;
}

template <bool kTraced>
bool InOCore<kTraced>::state_matches(const CoreCheckpoint& cp,
                                     const std::uint64_t* live_ff) const {
  // Compare of the forward region (FF pool -- live slots only when
  // live_ff is given -- fwd scalars, regs, mem, OUT), rejecting at the
  // first divergent segment.
  return arena_.matches_fwd(cp.state, live_ff) &&
         out_spill_ == cp.output_spill;
}

}  // namespace

std::unique_ptr<Core> make_ino_core() {
  return std::make_unique<InOCore<false>>();
}
std::unique_ptr<Core> make_traced_ino_core() {
  return std::make_unique<InOCore<true>>();
}

}  // namespace clear::arch
