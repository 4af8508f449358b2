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
// Resilience: the core shell (arch/core_shell.h) applies flips, runs EDS,
// parity and the DFC checker, and rolls back for IR/EIR (47-cycle replay
// penalty, Table 15).  This pipeline adds flush recovery: annul f..e,
// drain m/x/w, refetch from the committed next-PC (errors in m/x/w latches
// are not flushable -- paper Sec. 2.4).
#include <memory>
#include <string>

#include "arch/core_shell.h"

namespace clear::arch {

namespace {

using isa::Op;
using isa::Trap;

constexpr int kMulCycles = 3;
constexpr int kDivCycles = 12;
constexpr int kMemWaitCycles = 1;   // extra cycles per memory access
constexpr int kFlushDrain = 3;      // m/x/w drain cycles during flush

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
class InOCore final : public CoreShell<InOCore<kTraced>, kTraced> {
  using Shell = CoreShell<InOCore<kTraced>, kTraced>;
  friend Shell;
  using typename Shell::Reg;
  using Stage = StageCtl<kTraced>;
  using Shell::reg_, Shell::prog_, Shell::cfg_, Shell::fwd_, Shell::regs_,
      Shell::mem_, Shell::out_, Shell::committed_, Shell::status_,
      Shell::trap_code_, Shell::exit_code_, Shell::det_id_,
      Shell::detected_by_, Shell::ring_, Shell::dfc_sign, Shell::dfc_check,
      Shell::mem_bytes;

 public:
  InOCore() { build(); }

  [[nodiscard]] const char* name() const noexcept override { return "InO"; }
  [[nodiscard]] double clock_ghz() const noexcept override { return 2.0; }

 private:
  static constexpr RecoveryKind kOwnRecovery = RecoveryKind::kFlush;
  static constexpr std::uint64_t kIrPenalty = 47;  // Table 15 (InO IR/EIR)
  static constexpr std::size_t kRingDepth = 320;   // covers DFC latency
  // Forward scalar slots after the shell's DFC signature.
  enum FwdSlot : std::size_t {
    kFwdFlushDrain = Shell::kFwdDfcSig + 1,
    kFwdWords
  };

  void build();
  void step_pipeline();
  // Flush: annul f..e and drain m/x/w, then refetch from the committed
  // next-PC (see step_pipeline).
  void recover_pipeline() {
    d_valid_ = 0;
    a_.bubble();
    e_.bubble();
    e_mul_busy_ = 0;
    e_div_busy_ = 0;
    set_flush_drain(kFlushDrain);
  }
  // A rollback lands before any flush that was draining.
  void after_rollback() { set_flush_drain(0); }
  void do_wb();
  void stage_x_to_w();
  void stage_m_to_x();
  void stage_e_to_m();
  void stage_a_to_e();
  void stage_d_to_a();
  void fetch();
  [[nodiscard]] bool ra_hazard() const;

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

  [[nodiscard]] std::int64_t flush_drain() const noexcept {
    return static_cast<std::int64_t>(fwd_[kFwdFlushDrain]);
  }
  void set_flush_drain(std::int64_t v) noexcept {
    fwd_.set(kFwdFlushDrain, static_cast<std::uint64_t>(v));
  }

  // Taken-branch redirect resolved in execute this cycle.  Not serialized:
  // step_pipeline() clears it before any read, and nothing between a
  // restore() and that point (injection, detection, recovery) reads it.
  bool redirect_ = false;
  std::uint32_t redirect_pc_ = 0;
};

template <bool kTraced>
void InOCore<kTraced>::build() {
  FFRegistry& ffs = reg_;  // non-dependent: add<>() needs no `template`
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

  f_pc_ = ffs.add<kTraced>("f.pc", 32, fl_front);
  d_valid_ = ffs.add<kTraced>("d.valid", 1, fl_front);
  d_inst_ = ffs.add<kTraced>("d.inst", 32, fl_front);
  d_pc_ = ffs.add<kTraced>("d.pc", 32, fl_front);
  d_trap_ = ffs.add<kTraced>("d.tt", 4, fl_front);
  d_pv_ = ffs.add<kTraced>("d.pv", 1, fl_front);

  a_.attach(ffs, "a", fl_front);
  a_cwp_ = ffs.add<kTraced>("a.cwp", 3, sink_front);
  a_rfe1_ = ffs.add<kTraced>("a.rfe1", 1, sink_front);
  a_rfe2_ = ffs.add<kTraced>("a.rfe2", 1, sink_front);

  e_.attach(ffs, "e", fl_front);
  e_op1_ = ffs.add<kTraced>("e.op1", 32, fl_front);
  e_op2_ = ffs.add<kTraced>("e.op2", 32, fl_front);
  e_cwp_ = ffs.add<kTraced>("e.cwp", 3, sink_front);
  e_y_ = ffs.add<kTraced>("e.y", 32, sink_front);
  e_ymsb_ = ffs.add<kTraced>("e.ymsb", 1, fl_front);
  e_mulstep_ = ffs.add<kTraced>("e.mulstep", 3, fl_front);
  e_mac_ = ffs.add<kTraced>("e.mac", 32, fl_front);
  e_su_ = ffs.add<kTraced>("e.su", 1, fl_front);
  e_et_ = ffs.add<kTraced>("e.et", 1, fl_front);
  e_mul_busy_ = ffs.add<kTraced>("e.mul.busy", 1, fl_front);
  e_mul_cnt_ = ffs.add<kTraced>("e.mul.cnt", 3, fl_front);
  e_mul_lo_ = ffs.add<kTraced>("e.mul.lo", 32, fl_front);
  e_mul_hi_ = ffs.add<kTraced>("e.mul.hi", 32, fl_front);
  e_div_busy_ = ffs.add<kTraced>("e.div.busy", 1, fl_front);
  e_div_cnt_ = ffs.add<kTraced>("e.div.cnt", 4, fl_front);
  e_div_q_ = ffs.add<kTraced>("e.div.q", 32, fl_front);
  e_div_r_ = ffs.add<kTraced>("e.div.r", 32, fl_front);

  m_.attach(ffs, "m", fl_back);
  m_result_ = ffs.add<kTraced>("m.result", 32, fl_back);
  m_addr_ = ffs.add<kTraced>("m.addr", 32, fl_back);
  m_wdata_ = ffs.add<kTraced>("m.wdata", 32, fl_back);
  m_npcr_ = ffs.add<kTraced>("m.npc", 32, fl_back);
  m_memcnt_ = ffs.add<kTraced>("m.memcnt", 1, fl_back);
  m_y_ = ffs.add<kTraced>("m.y", 32, sink_back);
  m_wicc_ = ffs.add<kTraced>("m.ctrl.wicc", 1, fl_back);
  m_wy_ = ffs.add<kTraced>("m.ctrl.wy", 1, fl_back);
  m_dci_asi_ = ffs.add<kTraced>("m.dci.asi", 8, fl_back);
  m_dci_lock_ = ffs.add<kTraced>("m.dci.lock", 1, fl_back);
  m_dci_signed_ = ffs.add<kTraced>("m.dci.signed", 1, fl_back);
  m_irqen_ = ffs.add<kTraced>("m.irqen", 1, fl_back);
  m_irqen2_ = ffs.add<kTraced>("m.irqen2", 1, fl_back);

  x_.attach(ffs, "x", fl_back);
  x_result_ = ffs.add<kTraced>("x.result", 32, fl_back);
  x_npcr_ = ffs.add<kTraced>("x.npc", 32, fl_back);
  x_icc_ = ffs.add<kTraced>("x.icc", 4, sink_back);
  x_y_ = ffs.add<kTraced>("x.y", 32, sink_back);
  x_debug_ = ffs.add<kTraced>("x.debug", 48, sink_back);
  x_ipend_ = ffs.add<kTraced>("x.ipend", 4, fl_back);
  x_intack_ = ffs.add<kTraced>("x.intack", 1, fl_back);
  x_rett_ = ffs.add<kTraced>("x.ctrl.rett", 1, fl_back);
  x_pv_ = ffs.add<kTraced>("x.ctrl.pv", 1, fl_back);
  x_wicc_ = ffs.add<kTraced>("x.ctrl.wicc", 1, fl_back);
  x_wy_ = ffs.add<kTraced>("x.ctrl.wy", 1, fl_back);

  w_.attach(ffs, "w", fl_back);
  w_result_ = ffs.add<kTraced>("w.result", 32, fl_back);
  w_npcr_ = ffs.add<kTraced>("w.npc", 32, fl_back);
  w_s_icc_ = ffs.add<kTraced>("w.s.icc", 4, sink_back);
  w_s_tt_ = ffs.add<kTraced>("w.s.tt", 8, fl_back);
  w_s_tba_ = ffs.add<kTraced>("w.s.tba", 20, fl_back);
  w_s_pil_ = ffs.add<kTraced>("w.s.pil", 4, fl_back);
  w_s_ps_ = ffs.add<kTraced>("w.s.ps", 1, fl_back);
  w_s_ef_ = ffs.add<kTraced>("w.s.ef", 1, fl_back);
  w_s_ec_ = ffs.add<kTraced>("w.s.ec", 1, fl_back);
  w_s_et_ = ffs.add<kTraced>("w.s.et", 1, fl_back);
  w_s_dwt_ = ffs.add<kTraced>("w.s.dwt", 1, fl_back);
  w_s_y_ = ffs.add<kTraced>("w.s.y", 32, sink_back);
  w_cwp_ = ffs.add<kTraced>("w.cwp", 3, fl_back);
  arch_npc_ = ffs.add<kTraced>("w.s.npc", 32, fl_back);
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
  dfc_sign(op, w_.inst);
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
      dfc_check(w_.imm);
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
    const std::uint32_t bytes = mem_bytes();
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
void InOCore<kTraced>::step_pipeline() {
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
}

}  // namespace

std::unique_ptr<Core> make_ino_core() {
  return std::make_unique<InOCore<false>>();
}
std::unique_ptr<Core> make_traced_ino_core() {
  return std::make_unique<InOCore<true>>();
}

}  // namespace clear::arch
