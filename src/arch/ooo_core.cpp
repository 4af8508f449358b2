// OoOCore: a complex, 2-wide superscalar out-of-order core ("IVM-class",
// paper Table 1).  Microarchitecture:
//
//   fetch (2-wide, predecode + gshare direction predictor + BTB for
//   indirect jumps + return address stack)
//     -> fetch buffer (8)
//     -> rename (2-wide; RAT of busy/tag pairs over the 32 arch registers)
//     -> issue queue (16, oldest-first select, 2 issues/cycle)
//     -> execute (2 ALU pipes; iterative mul/div unit; load unit with an
//        L1D staging pipeline + miss queue; stores write the store queue)
//     -> reorder buffer (32, 2-wide in-order commit)
//     -> store buffer (4, post-commit; drains 1 store/cycle to memory)
//
// Control transfers are predicted at fetch and verified at commit: a
// commit-time next-PC mismatch squashes all speculative state and refetches
// (simple, precise, and exactly the redirect machinery reused by RoB
// recovery and the monitor core).
//
// Resilience: the core shell (arch/core_shell.h) applies flips, runs EDS,
// parity and the DFC checker, and rolls back for IR/EIR (104-cycle replay
// penalty, Table 15).  This pipeline adds:
//   * RoB recovery: squash speculative state, refetch from the commit PC --
//     errors in post-commit structures (store buffer) are unrecoverable
//   * monitor core: a DIVA-style checker validating every commit against a
//     shadow golden machine; the checker's architectural state repairs the
//     main core on mismatch.  Flips that land in post-commit structures
//     (store buffer) escape validation -- the escape path that bounds the
//     monitor's SDC improvement (paper Table 3: 19x).
#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/core_shell.h"
#include "isa/iss.h"

namespace clear::arch {

namespace {

using isa::Op;
using isa::Trap;

constexpr int kFetchWidth = 2;
constexpr int kCommitWidth = 2;
constexpr int kRobSize = 32;
constexpr int kIqSize = 16;
constexpr int kStqSize = 8;
constexpr int kSbSize = 4;
constexpr int kFbSize = 8;
constexpr int kBtbSize = 16;
constexpr int kRasSize = 8;
constexpr int kMqSize = 4;
constexpr int kL1dSets = 64;
constexpr int kMulCycles = 3;
constexpr int kDivCycles = 10;
constexpr int kHitCycles = 1;    // extra cycles for an L1D hit
constexpr int kMissCycles = 9;   // extra cycles for an L1D miss
constexpr int kPhtBits = 10;
constexpr std::uint64_t kRobPenalty = 64;  // Table 15 (RoB recovery)
constexpr std::uint32_t kAllIq = (1u << kIqSize) - 1;

// Bits 0 up to and including the lowest set bit of `stop`; `all` when none
// is set: the entries a scan that breaks at the first `stop` reaches.
constexpr std::uint32_t up_to_first(std::uint32_t stop,
                                    std::uint32_t all) noexcept {
  return stop != 0 ? stop ^ (stop - 1) : all;
}

// Ops handled entirely at rename (no issue-queue entry).
bool rename_only(Op op) noexcept {
  return op == Op::kJal || op == Op::kLui || op == Op::kHalt ||
         op == Op::kDet || op == Op::kSigchk;
}

// One source, two builds: OoOCore<false> is the production core,
// OoOCore<true> the traced twin golden recording uses (see BasicReg).
template <bool kTraced>
class OoOCore final : public CoreShell<OoOCore<kTraced>, kTraced> {
  using Shell = CoreShell<OoOCore<kTraced>, kTraced>;
  friend Shell;
  using typename Shell::Reg;
  template <std::size_t N>
  using RegArray = BasicRegArray<kTraced, N>;
  using Shell::reg_, Shell::prog_, Shell::cfg_, Shell::regs_, Shell::mem_,
      Shell::mem_words_, Shell::arena_, Shell::out_, Shell::cycle_,
      Shell::committed_, Shell::status_, Shell::trap_code_, Shell::exit_code_,
      Shell::det_id_, Shell::detected_by_, Shell::recoveries_, Shell::ring_,
      Shell::dfc_sign, Shell::dfc_check, Shell::mem_bytes;

 public:
  OoOCore() { build(); }

  [[nodiscard]] const char* name() const noexcept override { return "OoO"; }
  [[nodiscard]] double clock_ghz() const noexcept override { return 0.6; }

 private:
  static constexpr RecoveryKind kOwnRecovery = RecoveryKind::kRob;
  static constexpr std::uint64_t kIrPenalty = 104;  // Table 15 (OoO IR/EIR)
  static constexpr std::size_t kRingDepth = 640;    // covers DFC latency
  static constexpr std::size_t kFwdWords = 1;       // the DFC signature

  void build();
  void add_sections();
  void begin_pipeline();
  void step_pipeline();
  // RoB recovery: squash and refetch from the commit anchor.
  void recover_pipeline() {
    squash_all(commit_pc_.u32());
    cycle_ += kRobPenalty;
  }
  void snapshot_extra(CoreCheckpoint* out) const;
  void restore_extra(const CoreCheckpoint& cp);
  [[nodiscard]] bool extra_matches(const CoreCheckpoint& cp) const;
  void bind_shadow_hook();
  void squash_all(std::uint32_t new_pc);
  void do_commit();
  bool monitor_validate_and_apply(int robid);
  void drain_store_buffer();
  void do_execute();
  void do_load_unit();
  void do_issue();
  void do_rename();
  void do_fetch();
  void broadcast(std::uint64_t robid, std::uint32_t value);
  void leave_iq(int i) {
    iq_valid_[i] = 0;
    iq_live_ &= ~(1u << i);
  }
  [[nodiscard]] std::uint32_t rob_age(std::uint64_t robid) const {
    return static_cast<std::uint32_t>((robid - rob_head_) &
                                      (kRobSize - 1));
  }
  void mem_write(std::uint32_t addr, std::uint32_t data, bool byte);
  // ---- front end ----
  Reg f_pc_;
  Reg bhr_;
  RegArray<kBtbSize> btb_valid_, btb_tag_, btb_target_;
  RegArray<kRasSize> ras_;
  Reg ras_sp_;
  RegArray<kFbSize> fb_valid_, fb_inst_, fb_pc_, fb_pred_;
  Reg fb_head_, fb_tail_, fb_count_;
  // decorative fetch/decode staging arrays (IVM RF1.F2.* / RF2.D0.*)
  RegArray<8> rf1_f2_inst_;
  RegArray<4> rf2_d0_reg_;
  // ---- rename ----
  RegArray<isa::kNumRegs> rat_busy_, rat_tag_;
  // ---- issue queue ----
  RegArray<kIqSize> iq_valid_, iq_op_, iq_rd_, iq_robid_, iq_imm_, iq_pc_,
      iq_s1rdy_, iq_s1tag_, iq_s1val_, iq_s2rdy_, iq_s2tag_, iq_s2val_,
      iq_stq_;
  // ---- reorder buffer ----
  RegArray<kRobSize> rob_valid_, rob_done_, rob_op_, rob_rd_, rob_result_,
      rob_pc_, rob_npc_, rob_pred_, rob_trap_, rob_inst_, rob_stq_;
  Reg rob_head_, rob_tail_, rob_count_;
  // ---- store queue (pre-commit) ----
  RegArray<kStqSize> stq_valid_, stq_addr_, stq_data_, stq_ready_,
      stq_robid_, stq_byte_;
  Reg stq_head_, stq_tail_, stq_count_;
  // ---- store buffer (post-commit) ----
  RegArray<kSbSize> sb_valid_, sb_addr_, sb_data_, sb_byte_;
  Reg sb_head_, sb_tail_, sb_count_;
  // ---- execute ----
  RegArray<2> ex_valid_, ex_op_, ex_robid_, ex_a_, ex_b_, ex_imm_, ex_pc_,
      ex_stq_;
  Reg mul_busy_, mul_cnt_, mul_robid_, mul_op_, mul_lo_, mul_hi_;
  Reg div_busy_, div_cnt_, div_robid_, div_op_, div_q_, div_r_;
  // ---- load unit + L1D staging ----
  Reg lu_valid_, lu_op_, lu_robid_, lu_addr_, lu_cnt_, lu_fwd_, lu_fwdval_;
  RegArray<4> l1d_addr_in_, l1d_data_in_, l1d_write_in_;
  RegArray<2> l1d_accessaddr_;
  Reg l1d_accesshit0_, l1d_addr1_out_, l1d_data2_out_, l1d_mobid2_out_;
  RegArray<kMqSize> mq_valid_, mq_addr_, mq_cnt_;
  // ---- commit ----
  Reg commit_pc_;  // next PC to commit: the RoB-recovery refetch anchor
  RegArray<2> perf_;  // performance counters (never consumed)

  // ---- SRAM arrays (arena sections: timing state, not FFs) ----
  int sec_sram8_ = 0, sec_sram32_ = 0;
  ArenaPtr<std::uint8_t> pht_;        // gshare counters
  ArenaPtr<std::uint8_t> l1d_valid_;
  ArenaPtr<std::uint32_t> l1d_tag_;   // L1D tags (timing only)

  // The issue queue's valid entries and those waiting on source 1 / 2,
  // read once per cycle before execute (the first stage that reads them)
  // and kept up to date by every write to those fields until rename, which
  // takes its free entries from them.  Scratch, like the checker's store
  // latch below: dead at every cycle boundary.
  std::uint32_t iq_live_ = 0, iq_wait1_ = 0, iq_wait2_ = 0;

  // The program's words and their decodes, rebuilt by begin_pipeline()
  // only when the program differs: fetch's predecode and the checker read
  // program memory, and rename decodes a fetch-buffer word through them
  // when it is the program's word (decode is a pure function of the word).
  std::vector<std::uint32_t> code_;
  std::vector<std::optional<isa::Instr>> decoded_;
  // isa::decode(word) for a word fetched from program index k: the table's
  // entry when it is the program's word there, else decoded into *scratch.
  // (A reference, not a copy: a copied optional<Instr> is rebuilt byte by
  // byte on the stack and read back whole, which stalls store forwarding.)
  [[nodiscard]] const std::optional<isa::Instr>& decode_at(
      std::uint32_t k, std::uint32_t word,
      std::optional<isa::Instr>* scratch) const {
    if (k < code_.size() && code_[k] == word) return decoded_[k];
    *scratch = isa::decode(word);
    return *scratch;
  }

  std::unique_ptr<isa::Machine> shadow_;  // monitor core golden model
  // The checker's store latch.  Not serialized: it is written only by the
  // shadow's post-store hook, which runs inside monitor_validate_and_apply
  // after shadow_stored_ is cleared there, and read only later in that
  // same call -- so it is dead at every cycle boundary.
  std::uint32_t shadow_store_addr_ = 0;
  std::uint32_t shadow_store_word_ = 0;
  bool shadow_stored_ = false;
};

template <bool kTraced>
void OoOCore<kTraced>::build() {
  FFRegistry& ffs = reg_;  // non-dependent: add<>() needs no `template`
  const FFFlags spec{/*flushable=*/true, false, false};        // speculative
  const FFFlags post{/*flushable=*/false, /*post_commit=*/true, false};

  auto add_array = [&ffs](auto& arr, const std::string& prefix,
                          const std::string& suffix, int width, FFFlags fl) {
    constexpr std::size_t n = std::remove_reference_t<decltype(arr)>::kSize;
    arr = ffs.add_array<kTraced, n>(prefix, suffix, width, fl);
  };

  f_pc_ = ffs.add<kTraced>("RF0.PCreg", 32, spec);
  bhr_ = ffs.add<kTraced>("RF0.F1.lhist", 12, spec);
  add_array(btb_valid_, "RF0.btb", ".valid", 1, spec);
  add_array(btb_tag_, "RF0.btb", ".tag", 20, spec);
  add_array(btb_target_, "RF0.btb", ".target", 32, spec);
  add_array(ras_, "RF0.F1.ras", ".reg", 32, spec);
  ras_sp_ = ffs.add<kTraced>("RF0.F1.ras.sp", 3, spec);
  add_array(fb_valid_, "F1.fb", ".valid", 1, spec);
  add_array(fb_inst_, "F1.fb", ".inst", 32, spec);
  add_array(fb_pc_, "F1.fb", ".pc", 32, spec);
  add_array(fb_pred_, "F1.fb", ".pred", 32, spec);
  fb_head_ = ffs.add<kTraced>("F1.fb.head", 3, spec);
  fb_tail_ = ffs.add<kTraced>("F1.fb.tail", 3, spec);
  fb_count_ = ffs.add<kTraced>("F1.fb.count", 4, spec);
  add_array(rf1_f2_inst_, "RF1.F2.inst", ".reg", 32, spec);
  add_array(rf2_d0_reg_, "RF2.D0.reg", ".reg", 32, spec);

  add_array(rat_busy_, "rename.rat", ".busy", 1, spec);
  add_array(rat_tag_, "rename.rat", ".tag", 5, spec);

  add_array(iq_valid_, "sched0.iq", ".valid", 1, spec);
  add_array(iq_op_, "sched0.iq", ".op", 6, spec);
  add_array(iq_rd_, "sched0.iq", ".rd", 5, spec);
  add_array(iq_robid_, "sched0.iq", ".robid", 5, spec);
  add_array(iq_imm_, "sched0.iq", ".imm", 32, spec);
  add_array(iq_pc_, "sched0.iq", ".pc", 32, spec);
  add_array(iq_s1rdy_, "sched0.iq", ".s1rdy", 1, spec);
  add_array(iq_s1tag_, "sched0.iq", ".s1tag", 5, spec);
  add_array(iq_s1val_, "sched0.iq", ".s1val", 32, spec);
  add_array(iq_s2rdy_, "sched0.iq", ".s2rdy", 1, spec);
  add_array(iq_s2tag_, "sched0.iq", ".s2tag", 5, spec);
  add_array(iq_s2val_, "sched0.iq", ".s2val", 32, spec);
  add_array(iq_stq_, "sched0.iq", ".stq", 3, spec);

  add_array(rob_valid_, "rob.e", ".valid", 1, spec);
  add_array(rob_done_, "rob.e", ".done", 1, spec);
  add_array(rob_op_, "rob.e", ".op", 6, spec);
  add_array(rob_rd_, "rob.e", ".rd", 5, spec);
  add_array(rob_result_, "rob.e", ".result", 32, spec);
  add_array(rob_pc_, "rob.e", ".pc", 32, spec);
  add_array(rob_npc_, "rob.e", ".npc", 32, spec);
  add_array(rob_pred_, "rob.e", ".pred", 32, spec);
  add_array(rob_trap_, "rob.e", ".tt", 4, spec);
  add_array(rob_inst_, "rob.e", ".inst", 32, spec);
  add_array(rob_stq_, "rob.e", ".stq", 3, spec);
  rob_head_ = ffs.add<kTraced>("rob.head", 5, spec);
  rob_tail_ = ffs.add<kTraced>("rob.tail", 5, spec);
  rob_count_ = ffs.add<kTraced>("rob.count", 6, spec);

  add_array(stq_valid_, "mem.stq", ".valid", 1, spec);
  add_array(stq_addr_, "mem.stq", ".addr", 32, spec);
  add_array(stq_data_, "mem.stq", ".data", 32, spec);
  add_array(stq_ready_, "mem.stq", ".ready", 1, spec);
  add_array(stq_robid_, "mem.stq", ".robid", 5, spec);
  add_array(stq_byte_, "mem.stq", ".byte", 1, spec);
  stq_head_ = ffs.add<kTraced>("mem.stq.head", 3, spec);
  stq_tail_ = ffs.add<kTraced>("mem.stq.tail", 3, spec);
  stq_count_ = ffs.add<kTraced>("mem.stq.count", 4, spec);

  add_array(sb_valid_, "mem.stb", ".valid", 1, post);
  add_array(sb_addr_, "mem.stb", ".addr", 32, post);
  add_array(sb_data_, "mem.stb", ".data", 32, post);
  add_array(sb_byte_, "mem.stb", ".byte", 1, post);
  sb_head_ = ffs.add<kTraced>("mem.stb.head", 2, post);
  sb_tail_ = ffs.add<kTraced>("mem.stb.tail", 2, post);
  sb_count_ = ffs.add<kTraced>("mem.stb.count", 3, post);

  add_array(ex_valid_, "exec.ca", ".valid", 1, spec);
  add_array(ex_op_, "exec.ca", ".op", 6, spec);
  add_array(ex_robid_, "exec.ca", ".robid", 5, spec);
  add_array(ex_a_, "exec.ca", ".a", 32, spec);
  add_array(ex_b_, "exec.ca", ".b", 32, spec);
  add_array(ex_imm_, "exec.ca", ".imm", 32, spec);
  add_array(ex_pc_, "exec.ca", ".pc", 32, spec);
  add_array(ex_stq_, "exec.ca", ".stq", 3, spec);
  mul_busy_ = ffs.add<kTraced>("exec.mu0.busy", 1, spec);
  mul_cnt_ = ffs.add<kTraced>("exec.mu0.cnt", 3, spec);
  mul_robid_ = ffs.add<kTraced>("exec.mu0.robid", 5, spec);
  mul_op_ = ffs.add<kTraced>("exec.mu0.op", 6, spec);
  mul_lo_ = ffs.add<kTraced>("exec.mu0.a01", 32, spec);
  mul_hi_ = ffs.add<kTraced>("exec.mu0.a12", 32, spec);
  div_busy_ = ffs.add<kTraced>("exec.du0.busy", 1, spec);
  div_cnt_ = ffs.add<kTraced>("exec.du0.cnt", 4, spec);
  div_robid_ = ffs.add<kTraced>("exec.du0.robid", 5, spec);
  div_op_ = ffs.add<kTraced>("exec.du0.op", 6, spec);
  div_q_ = ffs.add<kTraced>("exec.du0.q", 32, spec);
  div_r_ = ffs.add<kTraced>("exec.du0.r", 32, spec);

  lu_valid_ = ffs.add<kTraced>("mem.ldq.valid", 1, spec);
  lu_op_ = ffs.add<kTraced>("mem.ldq.op", 6, spec);
  lu_robid_ = ffs.add<kTraced>("mem.ldq.robid", 5, spec);
  lu_addr_ = ffs.add<kTraced>("mem.ldq.address.phys", 32, spec);
  lu_cnt_ = ffs.add<kTraced>("mem.ldq.cnt", 4, spec);
  lu_fwd_ = ffs.add<kTraced>("mem.ldq.forward", 1, spec);
  lu_fwdval_ = ffs.add<kTraced>("mem.ldq.fwdval", 32, spec);
  add_array(l1d_addr_in_, "mem.l1dcache.addr.in", ".reg", 32, spec);
  add_array(l1d_data_in_, "mem.l1dcache.data.in", ".reg", 32, spec);
  add_array(l1d_write_in_, "mem.l1dcache.write.in", ".reg", 1, spec);
  add_array(l1d_accessaddr_, "mem.l1dcache.accessaddr", ".reg", 32, spec);
  l1d_accesshit0_ = ffs.add<kTraced>("mem.l1dcache.accesshit0.reg", 1, spec);
  l1d_addr1_out_ = ffs.add<kTraced>("mem.l1dcache.addr1.out.reg", 32, spec);
  l1d_data2_out_ = ffs.add<kTraced>("mem.l1dcache.data2.out.reg", 32, spec);
  l1d_mobid2_out_ = ffs.add<kTraced>("mem.l1dcache.mobid2.out.reg", 5, spec);
  add_array(mq_valid_, "mem.l1dcache.missqueue.q", ".valid", 1, spec);
  add_array(mq_addr_, "mem.l1dcache.missqueue.q", ".addr", 32, spec);
  add_array(mq_cnt_, "mem.l1dcache.missqueue.q", ".cnt", 4, spec);

  commit_pc_ = ffs.add<kTraced>("regs.wb.wb.flushpc", 32,
                        FFFlags{false, false, false});
  // Sinks (FFFlags::sink): each counter is read only by its own
  // increment (do_commit, step_pipeline).
  FFFlags counter{true, false, false};
  counter.sink = true;
  add_array(perf_, "perf.counter", "", 32, counter);
}

// SRAM sections of the forward arena region: PHT ++ l1d_valid, l1d_tag.
template <bool kTraced>
void OoOCore<kTraced>::add_sections() {
  sec_sram8_ = arena_.add_u8((1u << kPhtBits) + kL1dSets);
  sec_sram32_ = arena_.add_u32(kL1dSets);
}

template <bool kTraced>
void OoOCore<kTraced>::begin_pipeline() {
  pht_ = arena_.template section<std::uint8_t>(sec_sram8_);
  l1d_valid_ = pht_ + (1u << kPhtBits);
  l1d_tag_ = arena_.template section<std::uint32_t>(sec_sram32_);
  for (std::size_t i = 0; i < (1u << kPhtBits); ++i) pht_.set(i, 1);
  if (code_ != prog_->code) {
    code_ = prog_->code;
    decoded_.clear();
    for (const std::uint32_t w : code_) decoded_.push_back(isa::decode(w));
  }
  shadow_.reset();
  if (cfg_ != nullptr && cfg_->monitor) {
    shadow_ = std::make_unique<isa::Machine>(*prog_);
    bind_shadow_hook();
  }
}

template <bool kTraced>
void OoOCore<kTraced>::bind_shadow_hook() {
  shadow_->post_store_hook = [this](isa::Machine&, std::uint32_t addr,
                                    std::uint32_t word) {
    shadow_store_addr_ = addr;
    shadow_store_word_ = word;
    shadow_stored_ = true;
  };
}

template <bool kTraced>
void OoOCore<kTraced>::squash_all(std::uint32_t new_pc) {
  fb_valid_.fill(0);
  fb_head_ = 0;
  fb_tail_ = 0;
  fb_count_ = 0;
  iq_valid_.fill(0);
  rob_valid_.fill(0);
  rob_done_.fill(0);
  rob_head_ = 0;
  rob_tail_ = 0;
  rob_count_ = 0;
  stq_valid_.fill(0);
  stq_head_ = 0;
  stq_tail_ = 0;
  stq_count_ = 0;
  rat_busy_.fill(0);
  ex_valid_.fill(0);
  mul_busy_ = 0;
  div_busy_ = 0;
  lu_valid_ = 0;
  mq_valid_.fill(0);
  f_pc_ = new_pc;
  // The store buffer survives: its entries are committed (validated) state.
}

template <bool kTraced>
void OoOCore<kTraced>::broadcast(std::uint64_t robid, std::uint32_t value) {
  rob_result_[robid & (kRobSize - 1)] = value;
  rob_done_[robid & (kRobSize - 1)] = 1;
  // Tag match over the waiting entries (the log gets what `valid && !rdy
  // && tag == robid` read), then wake up the hits.
  iq_valid_.note_read(kAllIq);
  iq_s1rdy_.note_read(iq_live_);
  iq_s2rdy_.note_read(iq_live_);
  std::uint32_t hit1 = 0, hit2 = 0;
  for (std::uint32_t m = iq_wait1_ | iq_wait2_; m != 0; m &= m - 1) {
    const int i = __builtin_ctz(m);
    const bool wait1 = ((iq_wait1_ >> i) & 1u) != 0;
    const bool wait2 = ((iq_wait2_ >> i) & 1u) != 0;
    hit1 |= static_cast<std::uint32_t>(
                wait1 & (iq_s1tag_[i].read_if(wait1) == robid)) << i;
    hit2 |= static_cast<std::uint32_t>(
                wait2 & (iq_s2tag_[i].read_if(wait2) == robid)) << i;
  }
  iq_wait1_ &= ~hit1;
  iq_wait2_ &= ~hit2;
  for (; hit1 != 0; hit1 &= hit1 - 1) {
    const int i = __builtin_ctz(hit1);
    iq_s1val_[i] = value;
    iq_s1rdy_[i] = 1;
  }
  for (; hit2 != 0; hit2 &= hit2 - 1) {
    const int i = __builtin_ctz(hit2);
    iq_s2val_[i] = value;
    iq_s2rdy_[i] = 1;
  }
}

template <bool kTraced>
void OoOCore<kTraced>::mem_write(std::uint32_t addr, std::uint32_t data,
                                 bool byte) {
  if (addr >= mem_bytes()) return;  // bounds were checked pre-commit
  const std::uint32_t old = mem_[addr / 4];
  std::uint32_t w = old;
  if (byte) {
    const std::uint32_t shift = (addr & 3u) * 8;
    w = (w & ~(0xffu << shift)) | ((data & 0xffu) << shift);
  } else {
    w = data;
  }
  mem_.set(addr / 4, w);
  ring_.record_write(addr & ~3u, old);
}

template <bool kTraced>
void OoOCore<kTraced>::drain_store_buffer() {
  if (sb_count_ == 0) return;
  const std::uint64_t h = sb_head_;
  if (sb_valid_[h] != 0) {
    mem_write(sb_addr_[h].u32(), sb_data_[h].u32(), sb_byte_[h] != 0);
    sb_valid_[h] = 0;
  }
  sb_head_ = (h + 1) & (kSbSize - 1);
  sb_count_ = static_cast<std::uint64_t>(sb_count_) - 1;
}

template <bool kTraced>
bool OoOCore<kTraced>::monitor_validate_and_apply(int robid) {
  // Returns true when the commit is valid (or no monitor); false when the
  // checker caught a mismatch and repaired the core from its own state.
  if (!shadow_) return true;
  shadow_stored_ = false;
  const std::uint32_t expect_pc = shadow_->pc();
  const std::size_t out_before = shadow_->output().size();
  // DIVA fidelity: the checker re-executes loads against the *real*
  // memory hierarchy (main memory as seen through the store buffer), not
  // a private copy.  Post-validation corruption in the store buffer is
  // therefore invisible to the checker -- the escape path that bounds the
  // monitor's improvement (paper Table 3: 19x).
  if (expect_pc / 4 < prog_->code.size()) {
    const auto& dec = decoded_[expect_pc / 4];
    if (dec && isa::is_load(dec->op)) {
      const std::uint32_t addr =
          shadow_->reg(dec->rs1) + static_cast<std::uint32_t>(dec->imm);
      if (addr < mem_bytes()) {
        std::uint32_t word = mem_[addr / 4];
        // Overlay committed-but-undrained stores, oldest first.
        for (int k = 0; k < kSbSize; ++k) {
          const std::uint64_t idx = (sb_head_ + k) & (kSbSize - 1);
          if (sb_valid_[idx] == 0) continue;
          if ((sb_addr_[idx].u32() & ~3u) != (addr & ~3u)) continue;
          if (sb_byte_[idx] != 0) {
            const std::uint32_t shift = (sb_addr_[idx].u32() & 3u) * 8;
            word = (word & ~(0xffu << shift)) |
                   ((sb_data_[idx].u32() & 0xffu) << shift);
          } else {
            word = sb_data_[idx].u32();
          }
        }
        shadow_->poke_word(addr, word);
      }
    }
  }
  shadow_->step();

  bool ok = rob_pc_[robid].u32() == expect_pc;
  const std::uint64_t opv = rob_op_[robid];
  if (ok && valid_op(opv)) {
    const Op op = static_cast<Op>(opv);
    if (rob_trap_[robid] != 0) {
      ok = shadow_->status() == isa::RunStatus::kTrapped;
    } else if (isa::writes_rd(op) && rob_rd_[robid] != 0) {
      ok = shadow_->reg(static_cast<int>(rob_rd_[robid])) ==
           rob_result_[robid].u32();
    } else if (isa::is_store(op)) {
      const std::uint64_t si = rob_stq_[robid];
      const std::uint32_t addr = stq_addr_[si & (kStqSize - 1)].u32();
      ok = shadow_stored_ && shadow_store_addr_ == addr;
      if (ok && op == Op::kSw) {
        ok = shadow_store_word_ == stq_data_[si & (kStqSize - 1)].u32();
      } else if (ok) {
        const std::uint32_t shift = (addr & 3u) * 8;
        ok = ((shadow_store_word_ >> shift) & 0xffu) ==
             (stq_data_[si & (kStqSize - 1)].u32() & 0xffu);
      }
    } else if (op == Op::kOut) {
      ok = shadow_->output().size() == out_before + 1 &&
           shadow_->output().back() == rob_result_[robid].u32();
    }
  } else if (ok) {
    // Corrupted opcode field at commit: the shadow knows the true program.
    ok = false;
  }
  if (ok) return true;

  // DIVA-style repair: the checker's architectural state is authoritative.
  if (shadow_->status() == isa::RunStatus::kTrapped) {
    status_ = isa::RunStatus::kTrapped;
    trap_code_ = shadow_->trap();
    return false;
  }
  for (int r = 0; r < isa::kNumRegs; ++r) {
    regs_.set(static_cast<std::size_t>(r), shadow_->reg(r));
  }
  if (shadow_stored_) {
    // Replay the checker-approved store into main memory.
    if (shadow_store_addr_ < mem_bytes()) {
      const std::uint32_t old = mem_[shadow_store_addr_ / 4];
      mem_.set(shadow_store_addr_ / 4, shadow_store_word_);
      ring_.record_write(shadow_store_addr_ & ~3u, old);
    }
  }
  if (shadow_->output().size() == out_before + 1) {
    out_.push(shadow_->output().back());
  }
  if (shadow_->status() == isa::RunStatus::kHalted) {
    status_ = isa::RunStatus::kHalted;
    exit_code_ = shadow_->exit_code();
    return false;
  }
  if (shadow_->status() == isa::RunStatus::kDetected) {
    status_ = isa::RunStatus::kDetected;
    detected_by_ = DetectionSource::kSoftware;
    det_id_ = shadow_->det_id();
    return false;
  }
  ++committed_;
  commit_pc_ = shadow_->pc();
  squash_all(shadow_->pc());
  cycle_ += kRobPenalty;
  ++recoveries_;
  detected_by_ = DetectionSource::kMonitor;
  return false;
}

template <bool kTraced>
void OoOCore<kTraced>::do_commit() {
  for (int slot = 0; slot < kCommitWidth; ++slot) {
    if (rob_count_ == 0) return;
    const std::uint64_t h = rob_head_;
    if (rob_valid_[h] == 0) {
      // Head entry lost its valid bit (e.g. an injected flip): the ROB can
      // no longer retire anything -- the pipeline wedges (Hang outcome).
      return;
    }
    if (rob_done_[h] == 0) return;

    const std::uint64_t opv = rob_op_[h];
    const bool op_ok = valid_op(opv);
    const Op op = op_ok ? static_cast<Op>(opv) : Op::kHalt;

    // Stores need store-buffer space before they can retire.
    if (op_ok && isa::is_store(op) && rob_trap_[h] == 0 &&
        sb_count_ >= kSbSize) {
      return;
    }

    if (!monitor_validate_and_apply(static_cast<int>(h))) return;

    if (rob_trap_[h] != 0) {
      status_ = isa::RunStatus::kTrapped;
      trap_code_ = static_cast<Trap>(static_cast<std::uint64_t>(rob_trap_[h]) & 7);
      return;
    }
    if (!op_ok) {
      status_ = isa::RunStatus::kTrapped;
      trap_code_ = Trap::kInvalidOpcode;
      return;
    }
    dfc_sign(op, rob_inst_[h]);
    bool squash_after = false;
    std::uint32_t redirect = 0;
    switch (op) {
      case Op::kHalt:
        status_ = isa::RunStatus::kHalted;
        exit_code_ = static_cast<std::int32_t>(static_cast<std::int16_t>(
            rob_result_[h].u32() & 0xffff));
        ++committed_;
        return;
      case Op::kDet:
        status_ = isa::RunStatus::kDetected;
        detected_by_ = DetectionSource::kSoftware;
        det_id_ = static_cast<std::int32_t>(rob_result_[h].u32() & 0xffff);
        ++committed_;
        return;
      case Op::kOut:
        out_.push(rob_result_[h].u32());
        break;
      case Op::kSigchk:
        dfc_check(rob_result_[h]);
        break;
      default:
        if (isa::is_store(op)) {
          const std::uint64_t si = rob_stq_[h] & (kStqSize - 1);
          // Move the store to the post-commit store buffer.
          const std::uint64_t t = sb_tail_;
          sb_valid_[t] = 1;
          sb_addr_[t] = static_cast<std::uint64_t>(stq_addr_[si]);
          sb_data_[t] = static_cast<std::uint64_t>(stq_data_[si]);
          sb_byte_[t] = static_cast<std::uint64_t>(stq_byte_[si]);
          sb_tail_ = (t + 1) & (kSbSize - 1);
          sb_count_ = static_cast<std::uint64_t>(sb_count_) + 1;
          stq_valid_[si] = 0;
          stq_head_ = (stq_head_ + 1) & (kStqSize - 1);
          if (stq_count_ != 0) {
            stq_count_ = static_cast<std::uint64_t>(stq_count_) - 1;
          }
        } else if (isa::writes_rd(op) && rob_rd_[h] != 0) {
          regs_.set(rob_rd_[h], rob_result_[h].u32());
          if (rat_busy_[rob_rd_[h]] != 0 && rat_tag_[rob_rd_[h]] == h) {
            rat_busy_[rob_rd_[h]] = 0;
          }
        }
        break;
    }
    // Branch-direction training (gshare + BTB + squash on mispredict).
    if (isa::is_branch(op)) {
      const bool taken = rob_npc_[h].u32() != rob_pc_[h].u32() + 4;
      const std::uint32_t idx =
          ((rob_pc_[h].u32() >> 2) ^ bhr_.u32()) & ((1u << kPhtBits) - 1);
      const std::uint8_t ctr = pht_[idx];
      if (taken && ctr < 3) pht_.set(idx, static_cast<std::uint8_t>(ctr + 1));
      if (!taken && ctr > 0) pht_.set(idx, static_cast<std::uint8_t>(ctr - 1));
      bhr_ = (static_cast<std::uint64_t>(bhr_) << 1) | (taken ? 1 : 0);
    }
    if (op == Op::kJalr) {
      const std::uint32_t slot_i = (rob_pc_[h].u32() >> 2) & (kBtbSize - 1);
      btb_valid_[slot_i] = 1;
      btb_tag_[slot_i] = (rob_pc_[h].u32() >> 2) & 0xfffff;
      btb_target_[slot_i] = static_cast<std::uint64_t>(rob_npc_[h]);
    }
    if (rob_npc_[h].u32() != rob_pred_[h].u32()) {
      squash_after = true;
      redirect = rob_npc_[h].u32();
    }
    commit_pc_ = static_cast<std::uint64_t>(rob_npc_[h]);
    perf_[0] = static_cast<std::uint64_t>(perf_[0]) + 1;
    ++committed_;
    rob_valid_[h] = 0;
    rob_done_[h] = 0;
    rob_head_ = (h + 1) & (kRobSize - 1);
    rob_count_ = static_cast<std::uint64_t>(rob_count_) - 1;
    if (squash_after) {
      squash_all(redirect);
      return;
    }
  }
}

template <bool kTraced>
void OoOCore<kTraced>::do_execute() {
  // ALU pipes (filled by issue in the previous cycle).
  for (int p = 0; p < 2; ++p) {
    if (ex_valid_[p] == 0) continue;
    ex_valid_[p] = 0;
    const std::uint64_t opv = ex_op_[p];
    const std::uint64_t robid = ex_robid_[p];
    if (!valid_op(opv)) {
      rob_trap_[robid & (kRobSize - 1)] =
          static_cast<std::uint64_t>(Trap::kInvalidOpcode);
      broadcast(robid, 0);
      continue;
    }
    const Op op = static_cast<Op>(opv);
    const std::uint32_t a = ex_a_[p].u32();
    const std::uint32_t b = ex_b_[p].u32();
    const std::uint32_t imm = ex_imm_[p].u32();
    const std::uint32_t pc = ex_pc_[p].u32();
    const std::uint64_t ri = robid & (kRobSize - 1);
    switch (isa::format_of(op)) {
      case isa::Format::kR:
        // mul/div normally go to the iterative units at issue; an injected
        // flip in the pipe's opcode latch can morph an in-flight ALU op
        // into one.  A zero divisor then raises the arithmetic trap
        // instead of crashing the host.
        if (isa::is_div(op) && b == 0) {
          rob_trap_[ri] = static_cast<std::uint64_t>(Trap::kDivByZero);
          broadcast(robid, 0);
        } else {
          broadcast(robid, isa::alu_eval(op, a, b));
        }
        break;
      case isa::Format::kI:
        if (op == Op::kJalr) {
          const std::uint32_t t = a + imm;
          if ((t & 3u) != 0 ||
              t / 4 >= static_cast<std::uint32_t>(prog_->code.size())) {
            rob_trap_[ri] = static_cast<std::uint64_t>(Trap::kPcOutOfBounds);
            broadcast(robid, 0);
          } else {
            rob_npc_[ri] = t;
            broadcast(robid, pc + 4);
          }
        } else {
          broadcast(robid, isa::alu_eval(op, a, imm));
        }
        break;
      case isa::Format::kS: {
        const std::uint32_t addr = a + imm;
        if ((op == Op::kSw && (addr & 3u) != 0)) {
          rob_trap_[ri] = static_cast<std::uint64_t>(Trap::kMisalignedStore);
        } else if (addr >= mem_bytes()) {
          rob_trap_[ri] = static_cast<std::uint64_t>(Trap::kStoreOutOfBounds);
        } else {
          const std::uint64_t si = ex_stq_[p] & (kStqSize - 1);
          stq_addr_[si] = addr;
          stq_data_[si] = b;
          stq_ready_[si] = 1;
          // decorative L1D write-port staging
          l1d_addr_in_[si & 3] = addr;
          l1d_data_in_[si & 3] = b;
          l1d_write_in_[si & 3] = 1;
        }
        broadcast(robid, 0);
        break;
      }
      case isa::Format::kB: {
        const bool taken = isa::branch_taken(op, a, b);
        rob_npc_[ri] = taken ? pc + imm * 4 : pc + 4;
        broadcast(robid, 0);
        break;
      }
      case isa::Format::kX:  // out
        broadcast(robid, a);
        break;
      default:
        broadcast(robid, 0);
        break;
    }
  }
  // Iterative multiplier / divider.
  if (mul_busy_ != 0) {
    if (mul_cnt_ != 0) {
      mul_cnt_ = static_cast<std::uint64_t>(mul_cnt_) - 1;
    } else {
      mul_busy_ = 0;
      const bool hi = valid_op(mul_op_) &&
                      static_cast<Op>(static_cast<std::uint64_t>(mul_op_)) ==
                          Op::kMulh;
      broadcast(mul_robid_, hi ? mul_hi_.u32() : mul_lo_.u32());
    }
  }
  if (div_busy_ != 0) {
    if (div_cnt_ != 0) {
      div_cnt_ = static_cast<std::uint64_t>(div_cnt_) - 1;
    } else {
      div_busy_ = 0;
      const bool rem = valid_op(div_op_) &&
                       static_cast<Op>(static_cast<std::uint64_t>(div_op_)) ==
                           Op::kRem;
      broadcast(div_robid_, rem ? div_r_.u32() : div_q_.u32());
    }
  }
}

template <bool kTraced>
void OoOCore<kTraced>::do_load_unit() {
  if (lu_valid_ == 0) return;
  if (lu_cnt_ != 0) {
    lu_cnt_ = static_cast<std::uint64_t>(lu_cnt_) - 1;
    return;
  }
  lu_valid_ = 0;
  const std::uint32_t addr = lu_addr_.u32();
  std::uint32_t v;
  if (lu_fwd_ != 0) {
    v = lu_fwdval_.u32();
  } else {
    v = addr < mem_bytes() ? mem_[addr / 4] : 0;
  }
  if (valid_op(lu_op_)) {
    const Op op = static_cast<Op>(static_cast<std::uint64_t>(lu_op_));
    if (op != Op::kLw) {
      const std::uint32_t byte = (v >> ((addr & 3u) * 8)) & 0xffu;
      v = op == Op::kLb ? static_cast<std::uint32_t>(static_cast<std::int32_t>(
                              static_cast<std::int8_t>(byte)))
                        : byte;
    }
  }
  l1d_data2_out_ = v;
  l1d_mobid2_out_ = static_cast<std::uint64_t>(lu_robid_);
  broadcast(lu_robid_, v);
}

template <bool kTraced>
void OoOCore<kTraced>::do_issue() {
  // Ready entries (the log gets what `valid && s1rdy && s2rdy` read).
  iq_valid_.note_read(kAllIq);
  iq_s1rdy_.note_read(iq_live_);
  const std::uint32_t rdy1 = iq_live_ & ~iq_wait1_;
  iq_s2rdy_.note_read(rdy1);
  std::uint32_t ready = rdy1 & ~iq_wait2_;
  // Oldest-first (by ROB age) selection of up to 2 ready entries: each
  // pick takes the smallest key (age, IQ index), so a flipped robid that
  // ties two ages goes to the lower index.  Ages count as read only when
  // two or more entries are ready: a lone candidate needs no age.
  const bool compared = (ready & (ready - 1)) != 0;
  const std::uint64_t head = rob_head_.read_if(compared);
  std::array<std::uint32_t, kIqSize> key;
  for (std::uint32_t m = ready; m != 0; m &= m - 1) {
    const int i = __builtin_ctz(m);
    const std::uint64_t age =
        (iq_robid_[i].read_if(compared) - head) & (kRobSize - 1);
    key[i] = static_cast<std::uint32_t>(age << 4 | i);
  }
  int issued = 0;
  while (ready != 0 && issued < 2) {
    // The smallest key: a linear min over the few ready entries.
    std::uint32_t best = ~0u;
    for (std::uint32_t m = ready; m != 0; m &= m - 1) {
      best = std::min(best, key[__builtin_ctz(m)]);
    }
    const int i = static_cast<int>(best & (kIqSize - 1));
    ready &= ~(1u << i);
    const std::uint64_t opv = iq_op_[i];
    const Op op = valid_op(opv) ? static_cast<Op>(opv) : Op::kHalt;

    if (valid_op(opv) && isa::is_mul(op)) {
      if (mul_busy_ != 0) continue;
      mul_busy_ = 1;
      mul_cnt_ = kMulCycles;
      mul_robid_ = static_cast<std::uint64_t>(iq_robid_[i]);
      mul_op_ = opv;
      mul_lo_ = isa::alu_eval(Op::kMul, iq_s1val_[i].u32(), iq_s2val_[i].u32());
      mul_hi_ = isa::alu_eval(Op::kMulh, iq_s1val_[i].u32(), iq_s2val_[i].u32());
      leave_iq(i);
      ++issued;
      continue;
    }
    if (valid_op(opv) && isa::is_div(op)) {
      if (div_busy_ != 0) continue;
      if (iq_s2val_[i].u32() == 0) {
        rob_trap_[iq_robid_[i] & (kRobSize - 1)] =
            static_cast<std::uint64_t>(Trap::kDivByZero);
        broadcast(iq_robid_[i], 0);
        leave_iq(i);
        ++issued;
        continue;
      }
      div_busy_ = 1;
      div_cnt_ = kDivCycles;
      div_robid_ = static_cast<std::uint64_t>(iq_robid_[i]);
      div_op_ = opv;
      div_q_ = isa::alu_eval(Op::kDiv, iq_s1val_[i].u32(), iq_s2val_[i].u32());
      div_r_ = isa::alu_eval(Op::kRem, iq_s1val_[i].u32(), iq_s2val_[i].u32());
      leave_iq(i);
      ++issued;
      continue;
    }
    if (valid_op(opv) && isa::is_load(op)) {
      if (lu_valid_ != 0) continue;  // one outstanding load
      const std::uint32_t addr = iq_s1val_[i].u32() + iq_imm_[i].u32();
      // Bounds/alignment resolve at issue (precise via the ROB).
      if (op == Op::kLw && (addr & 3u) != 0) {
        rob_trap_[iq_robid_[i] & (kRobSize - 1)] =
            static_cast<std::uint64_t>(Trap::kMisalignedLoad);
        broadcast(iq_robid_[i], 0);
        leave_iq(i);
        ++issued;
        continue;
      }
      if (addr >= mem_bytes()) {
        rob_trap_[iq_robid_[i] & (kRobSize - 1)] =
            static_cast<std::uint64_t>(Trap::kLoadOutOfBounds);
        broadcast(iq_robid_[i], 0);
        leave_iq(i);
        ++issued;
        continue;
      }
      // Memory disambiguation against older in-flight stores, in index
      // order: an older store with an unknown address stalls the load
      // (conservatively), one to the same word forwards when it is a whole
      // word to a lw (the last such store in index order wins) and stalls
      // it otherwise (partial overlap: wait for drain).  The scans read
      // every entry; the log gets what the in-order scan, which stops at
      // the first stall, read.
      const std::uint32_t my_age = rob_age(iq_robid_[i]);
      const auto same_word = [addr](std::uint64_t a) {
        return (static_cast<std::uint32_t>(a) & ~3u) == (addr & ~3u);
      };
      const std::uint32_t live = stq_valid_.bits_if(0);
      const std::uint32_t older =
          live & stq_robid_.scan_if(0, [head, my_age](std::uint64_t r) {
            return ((r - head) & (kRobSize - 1)) < my_age;
          });
      const std::uint32_t known = older & stq_ready_.bits_if(0);
      const std::uint32_t same = known & stq_addr_.scan_if(0, same_word);
      const std::uint32_t whole =
          op == Op::kLw ? same & ~stq_byte_.bits_if(0) : 0;
      const std::uint32_t stall = (older & ~known) | (same & ~whole);
      const std::uint32_t reached = up_to_first(stall, (1u << kStqSize) - 1);
      stq_valid_.note_read(reached);
      stq_robid_.note_read(live & reached);
      stq_ready_.note_read(older & reached);
      stq_addr_.note_read(known & reached);
      stq_byte_.note_read(same & reached);
      const std::uint32_t fwds = whole & reached;  // all before the stall
      bool blocked = stall != 0;
      std::uint32_t fwdval = 0;
      for (std::uint32_t m = fwds; m != 0; m &= m - 1) {
        fwdval = stq_data_[__builtin_ctz(m)].u32();
      }
      const bool fwd = fwds != 0;
      if (!blocked) {
        // Committed-but-undrained stores in the store buffer also overlap.
        const std::uint32_t sb_live = sb_valid_.bits_if(0);
        const std::uint32_t sb_same = sb_live & sb_addr_.scan_if(0, same_word);
        const std::uint32_t sb_reached =
            up_to_first(sb_same, (1u << kSbSize) - 1);
        sb_valid_.note_read(sb_reached);
        sb_addr_.note_read(sb_live & sb_reached);
        blocked = sb_same != 0;
      }
      if (blocked) continue;  // retry next cycle
      lu_valid_ = 1;
      lu_op_ = opv;
      lu_robid_ = static_cast<std::uint64_t>(iq_robid_[i]);
      lu_addr_ = addr;
      lu_fwd_ = fwd ? 1 : 0;
      lu_fwdval_ = fwdval;
      // L1D tag check (timing only; data functionally from memory).
      const std::uint32_t set = (addr >> 4) & 63u;
      const std::uint32_t tag = addr >> 10;
      const bool hit = l1d_valid_[set] != 0 && l1d_tag_[set] == tag;
      if (!hit) {
        l1d_valid_.set(set, 1);
        l1d_tag_.set(set, tag);
        for (int q = 0; q < kMqSize; ++q) {
          if (mq_valid_[q] == 0) {
            mq_valid_[q] = 1;
            mq_addr_[q] = addr;
            mq_cnt_[q] = kMissCycles;
            break;
          }
        }
      }
      lu_cnt_ = fwd ? 0 : (hit ? kHitCycles : kMissCycles);
      l1d_accessaddr_[0] = addr;
      l1d_accesshit0_ = hit ? 1 : 0;
      l1d_addr1_out_ = addr;
      leave_iq(i);
      ++issued;
      continue;
    }
    // Plain ALU / branch / jalr / store-agen / out -> a free ALU pipe.
    int pipe = -1;
    if (ex_valid_[0] == 0) {
      pipe = 0;
    } else if (ex_valid_[1] == 0) {
      pipe = 1;
    }
    if (pipe < 0) continue;
    ex_valid_[pipe] = 1;
    ex_op_[pipe] = opv;
    ex_robid_[pipe] = static_cast<std::uint64_t>(iq_robid_[i]);
    ex_a_[pipe] = static_cast<std::uint64_t>(iq_s1val_[i]);
    ex_b_[pipe] = static_cast<std::uint64_t>(iq_s2val_[i]);
    ex_imm_[pipe] = static_cast<std::uint64_t>(iq_imm_[i]);
    ex_pc_[pipe] = static_cast<std::uint64_t>(iq_pc_[i]);
    ex_stq_[pipe] = static_cast<std::uint64_t>(iq_stq_[i]);
    leave_iq(i);
    ++issued;
  }
  // Miss-queue countdown (decorative timing state).
  for (int q = 0; q < kMqSize; ++q) {
    if (mq_valid_[q] == 0) continue;
    if (mq_cnt_[q] != 0) {
      mq_cnt_[q] = static_cast<std::uint64_t>(mq_cnt_[q]) - 1;
    } else {
      mq_valid_[q] = 0;
    }
  }
}

template <bool kTraced>
void OoOCore<kTraced>::do_rename() {
  // Free IQ entries: until a slot below re-reads them, only this stage's
  // own allocations change them.
  std::uint32_t free_iq = ~iq_live_ & kAllIq;
  for (int slot = 0; slot < 2; ++slot) {
    if (fb_count_ == 0) return;
    if (rob_count_ >= kRobSize) return;
    const std::uint64_t h = fb_head_;
    if (fb_valid_[h] == 0) {
      // Corrupted FIFO bookkeeping: drop the slot to avoid wedging forever.
      fb_head_ = (h + 1) & (kFbSize - 1);
      fb_count_ = static_cast<std::uint64_t>(fb_count_) - 1;
      continue;
    }
    const std::uint32_t inst = fb_inst_[h].u32();
    const std::uint32_t pc = fb_pc_[h].u32();
    const std::uint32_t pred = fb_pred_[h].u32();
    std::optional<isa::Instr> scratch;
    const auto& dec = decode_at(pc / 4, inst, &scratch);

    const std::uint64_t robid = rob_tail_;
    const bool need_iq = dec && !rename_only(dec->op);
    const bool need_stq = dec && isa::is_store(dec->op);
    // The free-entry scan counts as read only when an entry is needed.
    iq_valid_.note_read(need_iq ? kAllIq : 0);
    if (need_iq && free_iq == 0) return;
    if (need_stq && stq_count_ >= kStqSize) return;

    // Allocate the ROB entry.
    rob_valid_[robid] = 1;
    rob_done_[robid] = 0;
    rob_op_[robid] = dec ? static_cast<std::uint64_t>(dec->op) : 0;
    rob_rd_[robid] = dec ? dec->rd : 0;
    rob_result_[robid] = 0;
    rob_pc_[robid] = pc;
    rob_npc_[robid] = pc + 4;
    rob_pred_[robid] = pred;
    rob_trap_[robid] = 0;
    rob_inst_[robid] = inst;
    rob_stq_[robid] = 0;
    rob_tail_ = (robid + 1) & (kRobSize - 1);
    rob_count_ = static_cast<std::uint64_t>(rob_count_) + 1;
    fb_valid_[h] = 0;
    fb_head_ = (h + 1) & (kFbSize - 1);
    fb_count_ = static_cast<std::uint64_t>(fb_count_) - 1;
    // decorative decode staging
    rf2_d0_reg_[robid & 3] = inst;

    if (!dec) {
      rob_trap_[robid] = static_cast<std::uint64_t>(Trap::kInvalidOpcode);
      rob_done_[robid] = 1;
      continue;
    }
    const Op op = dec->op;
    if (rename_only(op)) {
      switch (op) {
        case Op::kJal:
          rob_result_[robid] = pc + 4;
          rob_npc_[robid] = pc + static_cast<std::uint32_t>(dec->imm) * 4;
          break;
        case Op::kLui:
          rob_result_[robid] = static_cast<std::uint32_t>(dec->imm) << 16;
          break;
        case Op::kHalt:
        case Op::kDet:
        case Op::kSigchk:
          rob_result_[robid] = static_cast<std::uint32_t>(dec->imm) & 0xffff;
          break;
        default:
          break;
      }
      rob_done_[robid] = 1;
      if (isa::writes_rd(op) && dec->rd != 0) {
        rat_busy_[dec->rd] = 1;
        rat_tag_[dec->rd] = robid;
      }
      continue;
    }

    // Issue-queue entry with renamed sources: the lowest free one.
    const int iq = __builtin_ctz(free_iq);
    free_iq &= free_iq - 1;
    iq_valid_[iq] = 1;
    iq_op_[iq] = static_cast<std::uint64_t>(op);
    iq_rd_[iq] = dec->rd;
    iq_robid_[iq] = robid;
    iq_imm_[iq] = static_cast<std::uint32_t>(dec->imm);
    iq_pc_[iq] = pc;
    auto rename_src = [&](int r, Reg rdy, Reg tag, Reg val) {
      if (r == 0) {
        rdy = 1;
        val = 0;
        return;
      }
      if (rat_busy_[r] != 0) {
        const std::uint64_t t = rat_tag_[r];
        if (rob_done_[t & (kRobSize - 1)] != 0) {
          rdy = 1;
          val = static_cast<std::uint64_t>(rob_result_[t & (kRobSize - 1)]);
        } else {
          rdy = 0;
          tag = t;
          val = 0;
        }
      } else {
        rdy = 1;
        val = regs_[r];
      }
    };
    if (uses_rs1(op)) {
      rename_src(dec->rs1, iq_s1rdy_[iq], iq_s1tag_[iq], iq_s1val_[iq]);
    } else {
      iq_s1rdy_[iq] = 1;
      iq_s1val_[iq] = 0;
    }
    if (uses_rs2(op)) {
      rename_src(dec->rs2, iq_s2rdy_[iq], iq_s2tag_[iq], iq_s2val_[iq]);
    } else {
      iq_s2rdy_[iq] = 1;
      iq_s2val_[iq] = 0;
    }
    if (need_stq) {
      const std::uint64_t si = stq_tail_;
      stq_valid_[si] = 1;
      stq_ready_[si] = 0;
      stq_robid_[si] = robid;
      stq_byte_[si] = op == Op::kSb ? 1 : 0;
      stq_tail_ = (si + 1) & (kStqSize - 1);
      stq_count_ = static_cast<std::uint64_t>(stq_count_) + 1;
      iq_stq_[iq] = si;
      rob_stq_[robid] = si;
    }
    if (isa::writes_rd(op) && dec->rd != 0) {
      rat_busy_[dec->rd] = 1;
      rat_tag_[dec->rd] = robid;
    }
  }
}

template <bool kTraced>
void OoOCore<kTraced>::do_fetch() {
  for (int slot = 0; slot < kFetchWidth; ++slot) {
    if (fb_count_ >= kFbSize) return;
    const std::uint32_t pc = f_pc_.u32();
    std::uint32_t inst = 0;
    bool oob = false;
    if ((pc & 3u) != 0 ||
        pc / 4 >= static_cast<std::uint32_t>(code_.size())) {
      oob = true;
    } else {
      inst = code_[pc / 4];
    }
    // Predecode-based next-PC prediction.
    std::uint32_t pred = pc + 4;
    if (!oob) {
      const auto& dec = decoded_[pc / 4];
      if (dec) {
        if (dec->op == Op::kJal) {
          pred = pc + static_cast<std::uint32_t>(dec->imm) * 4;
          if (dec->rd == 1) {  // call: push return address
            const std::uint64_t sp = ras_sp_;
            ras_[sp & (kRasSize - 1)] = pc + 4;
            ras_sp_ = (sp + 1) & (kRasSize - 1);
          }
        } else if (dec->op == Op::kJalr) {
          if (dec->rd == 0 && dec->rs1 == 1) {  // return: pop RAS
            const std::uint64_t sp =
                (static_cast<std::uint64_t>(ras_sp_) - 1) & (kRasSize - 1);
            ras_sp_ = sp;
            pred = ras_[sp].u32();
          } else {
            const std::uint32_t bi = (pc >> 2) & (kBtbSize - 1);
            if (btb_valid_[bi] != 0 &&
                btb_tag_[bi] == ((pc >> 2) & 0xfffff)) {
              pred = btb_target_[bi].u32();
            }
          }
        } else if (isa::is_branch(dec->op)) {
          const std::uint32_t idx =
              ((pc >> 2) ^ bhr_.u32()) & ((1u << kPhtBits) - 1);
          if (pht_[idx] >= 2) {
            pred = pc + static_cast<std::uint32_t>(dec->imm) * 4;
          }
        }
      }
    }
    const std::uint64_t t = fb_tail_;
    fb_valid_[t] = 1;
    fb_inst_[t] = inst;
    fb_pc_[t] = pc;
    fb_pred_[t] = pred;
    fb_tail_ = (t + 1) & (kFbSize - 1);
    fb_count_ = static_cast<std::uint64_t>(fb_count_) + 1;
    rf1_f2_inst_[t & 7] = inst;  // decorative staging
    if (oob) {
      // Encode the fetch fault by making rename see an undecodable word:
      // opcode field 0x3f is invalid by construction.
      fb_inst_[t] = 0xFC000000u;
    }
    f_pc_ = pred;
    if (pred != pc + 4) return;  // redirected: stop fetching this cycle
  }
}

template <bool kTraced>
void OoOCore<kTraced>::step_pipeline() {
  do_commit();
  if (status_ != isa::RunStatus::kRunning) return;
  drain_store_buffer();
  iq_live_ = iq_valid_.bits_if(0);
  iq_wait1_ = iq_live_ & ~iq_s1rdy_.bits_if(0);
  iq_wait2_ = iq_live_ & ~iq_s2rdy_.bits_if(0);
  do_execute();
  do_load_unit();
  do_issue();
  do_rename();
  do_fetch();

  perf_[1] = static_cast<std::uint64_t>(perf_[1]) + 1;
}

// The monitor checker is delta-encoded against the checkpointed data
// memory image (== mem_ at this instant): its memory is the main core's
// image except where the checker ran ahead of the store buffer.
template <bool kTraced>
void OoOCore<kTraced>::snapshot_extra(CoreCheckpoint* out) const {
  if (shadow_) {
    shadow_->capture_delta(mem_.get(), mem_words_, &out->shadow);
  } else {
    out->shadow = isa::MachineDelta{};
  }
}

template <bool kTraced>
void OoOCore<kTraced>::restore_extra(const CoreCheckpoint& cp) {
  if (cp.shadow.present) {
    if (!shadow_) {
      // The live checker is reused when present (hooks stay bound); a core
      // that lost its checker re-creates one before applying the delta.
      shadow_ = std::make_unique<isa::Machine>(*prog_);
      bind_shadow_hook();
    }
    // The shell restored the arena first: mem_ is the delta's reference.
    shadow_->restore_delta(cp.shadow, mem_.get(), mem_words_);
  } else {
    shadow_.reset();
  }
}

// Called once the arena matched, so mem_ equals the checkpointed memory
// the delta is encoded against.
template <bool kTraced>
bool OoOCore<kTraced>::extra_matches(const CoreCheckpoint& cp) const {
  if (static_cast<bool>(shadow_) != cp.shadow.present) return false;
  return !shadow_ || shadow_->matches_delta(cp.shadow, mem_.get(), mem_words_);
}

}  // namespace

std::unique_ptr<Core> make_ooo_core() {
  return std::make_unique<OoOCore<false>>();
}
std::unique_ptr<Core> make_traced_ooo_core() {
  return std::make_unique<OoOCore<true>>();
}

std::unique_ptr<Core> make_core(const std::string& name) {
  if (name == "InO") return make_ino_core();
  if (name == "OoO") return make_ooo_core();
  return nullptr;
}

std::uint32_t core_ff_count(const std::string& name) {
  if (name == "InO") {
    static const std::uint32_t ino = make_ino_core()->registry().ff_count();
    return ino;
  }
  if (name == "OoO") {
    static const std::uint32_t ooo = make_ooo_core()->registry().ff_count();
    return ooo;
  }
  return 0;
}

std::unique_ptr<Core> make_traced_core(const std::string& name) {
  if (name == "InO") return make_traced_ino_core();
  if (name == "OoO") return make_traced_ooo_core();
  return nullptr;
}

}  // namespace clear::arch
