#include "phys/phys.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "util/rng.h"

namespace clear::phys {

namespace {

// ---- synthetic 28nm library constants (normalized to baseline DFF) ----
// Calibrated so that a 32-bit unpipelined parity group costs ~0.6x of a
// LEAP-DICE replacement per protected flip-flop while a 16-bit pipelined
// group costs ~1.1x -- which reproduces the paper's ordering: selective
// parity over slack-rich flip-flops undercuts selective hardening
// (Table 19 vs Table 17), while whole-design parity does not (Table 7).
constexpr double kXorArea = 0.26;       // XOR2 vs DFF area
constexpr double kXorPower = 0.20;      // XOR2 switching power share
constexpr double kWiringFactor = 1.18;  // routing overhead on parity logic
constexpr double kParityPipeFfPer = 0.25;   // pipeline FFs per protected bit
constexpr double kEdsBufferArea = 0.55;     // min-delay buffers per EDS FF
constexpr double kEdsBufferPower = 0.30;
constexpr double kEdsAggrArea = 0.20;       // detection aggregation/routing
constexpr double kEdsAggrPower = 0.15;
constexpr double kXorStageDelayPs = 35.0;   // XOR2 stage delay
constexpr double kTreeWireDelayPs = 40.0;

// Per-core calibration anchors.  ff_area_share / ff_power_share are implied
// by the paper's "harden every flip-flop with LEAP-DICE" costs (Table 17
// max: InO 9.3% area & 22.4% power with a 2.0x/1.8x cell, OoO 6.5%/9.4%).
// The spacing PMF is the baseline layout statistic of Table 5.
struct CoreParams {
  const char* name;
  double clock_ghz;
  double ff_area_share;
  double ff_power_share;
  std::array<double, 5> spacing_pmf;
  double path_mean_frac;
  double path_sd_frac;
};

constexpr CoreParams kInO = {
    "InO", 2.0, 0.093, 0.28, {0.652, 0.300, 0.037, 0.006, 0.005}, 0.58, 0.20};
constexpr CoreParams kOoO = {
    "OoO", 0.6, 0.065, 0.1175, {0.422, 0.306, 0.184, 0.035, 0.053},
    0.45, 0.18};

const CoreParams& params_for(const std::string& core) {
  return core == "OoO" ? kOoO : kInO;
}

// Gaussian-ish deterministic noise from a hash (sum of uniforms).
double hash_gauss(std::uint64_t h) {
  double acc = 0.0;
  for (int i = 0; i < 4; ++i) {
    h = util::splitmix64(h);
    acc += static_cast<double>(h >> 11) * 0x1.0p-53;
  }
  return (acc - 2.0) * std::sqrt(3.0);  // ~N(0,1)
}

double hash_uniform(std::uint64_t h) {
  return static_cast<double>(util::splitmix64(h) >> 11) * 0x1.0p-53;
}

// Recovery-hardware cost table (paper Table 15).  Recovery datapaths
// (shadow register file, replay queues, recovery control) are standard
// blocks whose published relative costs we adopt as library data, exactly
// like the hardened-cell costs of Table 4.
struct RecoveryCosts {
  double area;
  double power;
  double latency;
  double ff_delta;  // flip-flop count increase fraction (feeds gamma)
};

RecoveryCosts recovery_costs(const std::string& core, arch::RecoveryKind k) {
  const bool ino = core != "OoO";
  switch (k) {
    case arch::RecoveryKind::kIr:
      return ino ? RecoveryCosts{0.16, 0.21, 47.0, 0.40}
                 : RecoveryCosts{0.001, 0.001, 104.0, 0.06};
    case arch::RecoveryKind::kEir:
      return ino ? RecoveryCosts{0.34, 0.32, 47.0, 0.48}
                 : RecoveryCosts{0.002, 0.001, 104.0, 0.07};
    case arch::RecoveryKind::kFlush:
      return RecoveryCosts{0.006, 0.009, 7.0, 0.01};
    case arch::RecoveryKind::kRob:
      return RecoveryCosts{0.0001, 0.0001, 64.0, 0.001};
    case arch::RecoveryKind::kNone:
      return RecoveryCosts{0, 0, 0, 0};
  }
  return {0, 0, 0, 0};
}

}  // namespace

CellCosts ff_cell(arch::FFProt p) noexcept {
  // Table 4: resilient flip-flops.
  switch (p) {
    case arch::FFProt::kNone:
      return {1.0, 1.0, 1.0, 1.0};
    case arch::FFProt::kLhl:
      return {1.2, 1.1, 1.2, 2.5e-1};
    case arch::FFProt::kLeapDice:
      return {2.0, 1.8, 1.0, 2.0e-4};
    case arch::FFProt::kLeapCtrlEco:
      return {3.1, 1.2, 1.0, 1.0};
    case arch::FFProt::kLeapCtrlRes:
      return {3.1, 2.2, 1.0, 2.0e-4};
    case arch::FFProt::kEds:
      return {1.5, 1.4, 1.0, 1.0};  // detects instead of tolerating
    case arch::FFProt::kParity:
      return {1.0, 1.0, 1.0, 1.0};  // group logic costed separately
  }
  return {1.0, 1.0, 1.0, 1.0};
}

PhysModel::PhysModel(const arch::Core& core) {
  const CoreParams& p = params_for(core.name());
  core_ = p.name;
  clock_ghz_ = p.clock_ghz;
  ff_count_ = core.registry().ff_count();
  ff_area_share_ = p.ff_area_share;
  ff_power_share_ = p.ff_power_share;
  spacing_pmf_ = p.spacing_pmf;
  path_mean_frac_ = p.path_mean_frac;
  path_sd_frac_ = p.path_sd_frac;
  // Baseline totals calibrated so hardening every FF reproduces the
  // published max costs.
  total_area_ = static_cast<double>(ff_count_) / ff_area_share_;
  total_power_ = static_cast<double>(ff_count_) / ff_power_share_;
  salt_ = util::hash_combine(0x9057C0DE, core_ == "OoO" ? 2 : 1);

  // Statistical placement: per-FF nearest-neighbour distance drawn from
  // the calibrated spacing PMF (Table 5) and a cumulative coordinate used
  // for locality/interleave estimation.
  positions_.resize(ff_count_);
  nn_.resize(ff_count_);
  double x = 0.0;
  for (std::uint32_t f = 0; f < ff_count_; ++f) {
    const double u = hash_uniform(util::hash_combine(salt_ ^ 0xA11Dull, f));
    double cum = 0.0;
    double gap = 5.0;
    static constexpr double kMid[5] = {0.55, 1.5, 2.5, 3.5, 5.0};
    for (int b = 0; b < 5; ++b) {
      cum += spacing_pmf_[b];
      if (u < cum) {
        gap = kMid[b];
        break;
      }
    }
    nn_[f] = gap;
    x += gap;
    positions_[f] = x;
  }
  // Every parity plan reads slack for each of its members: tabulate it.
  std::vector<double> slack(ff_count_);
  for (std::uint32_t f = 0; f < ff_count_; ++f) slack[f] = slack_ps(f);
  slack_ = std::move(slack);
  // Locality parity groups sort FFs by unit: tabulate each FF's unit rank.
  // A structure's FFs run from its first_ff to the next structure's.
  const auto& structures = core.registry().structures();
  const auto unit_of = [](const std::string& name) {
    return std::string_view(name).substr(0, name.find('.'));
  };
  std::vector<std::string_view> units;
  for (const arch::FFStructure& s : structures) {
    units.push_back(unit_of(s.name));
  }
  std::sort(units.begin(), units.end());
  units.erase(std::unique(units.begin(), units.end()), units.end());
  unit_rank_.resize(ff_count_);
  for (std::size_t i = 0; i < structures.size(); ++i) {
    const auto rank = static_cast<std::uint32_t>(
        std::lower_bound(units.begin(), units.end(),
                         unit_of(structures[i].name)) -
        units.begin());
    const std::uint32_t end = i + 1 < structures.size()
                                  ? structures[i + 1].first_ff
                                  : ff_count_;
    std::fill(unit_rank_.begin() + structures[i].first_ff,
              unit_rank_.begin() + end, rank);
  }
}

double PhysModel::slack_ps(std::uint32_t ff) const {
  if (ff < slack_.size()) return slack_[ff];
  const double period = period_ps();
  const double z = hash_gauss(util::hash_combine(salt_ ^ 0x51ACull, ff));
  double path = period * (path_mean_frac_ + path_sd_frac_ * z);
  path = std::clamp(path, 0.05 * period, 0.98 * period);
  return period - path;
}

double PhysModel::xor_tree_delay_ps(std::size_t n) {
  if (n <= 1) return kTreeWireDelayPs;
  const double depth = std::ceil(std::log2(static_cast<double>(n)));
  return depth * kXorStageDelayPs + kTreeWireDelayPs;
}

bool PhysModel::group_fits_unpipelined(
    const std::vector<std::uint32_t>& ffs) const {
  const double need = xor_tree_delay_ps(ffs.size());
  for (const std::uint32_t f : ffs) {
    if (slack_ps(f) < need) return false;
  }
  return true;
}

double PhysModel::position(std::uint32_t ff) const {
  return ff < positions_.size() ? positions_[ff] : 0.0;
}

double PhysModel::nn_spacing(std::uint32_t ff) const {
  return ff < nn_.size() ? nn_[ff] : 5.0;
}

SpacingHistogram PhysModel::baseline_spacing_histogram() const {
  SpacingHistogram h{};
  for (std::uint32_t f = 0; f < ff_count_; ++f) {
    const double d = nn_spacing(f);
    const int bin = d < 1 ? 0 : d < 2 ? 1 : d < 3 ? 2 : d < 4 ? 3 : 4;
    h[bin] += 1.0;
  }
  for (auto& v : h) v /= std::max(1.0, static_cast<double>(ff_count_));
  return h;
}

SpacingHistogram PhysModel::parity_spacing_histogram(const ParityPlan& plan,
                                                     double* avg) const {
  // The layout stage enforces >= 1 FF-length between same-group members by
  // interleaving groups placed in the same region (Sec. 2.4).  The spacing
  // between same-group neighbours is therefore the local group-interleave
  // degree times the average placement gap.
  double mean_gap = 0.0;
  static constexpr double kMid[5] = {0.55, 1.5, 2.5, 3.5, 5.0};
  for (int b = 0; b < 5; ++b) mean_gap += spacing_pmf_[b] * kMid[b];

  SpacingHistogram h{};
  double total = 0.0;
  double sum = 0.0;
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    const auto& group = plan.groups[g];
    if (group.ffs.size() < 2) continue;
    // Interleave degree: how many groups compete for the same region.
    // Locality-grouped plans interleave all groups of one functional unit;
    // we estimate the degree from group span vs. group population.
    double span = 0.0;
    {
      auto [mn, mx] = std::minmax_element(group.ffs.begin(), group.ffs.end());
      span = position(*mx) - position(*mn);
    }
    const double natural =
        span / static_cast<double>(group.ffs.size() - 1);
    for (std::size_t i = 0; i + 1 < group.ffs.size(); ++i) {
      const std::uint64_t hsh = util::hash_combine(
          util::hash_combine(salt_ ^ 0x5EA5ull, g), i);
      // The placer spreads same-group members at least one FF length
      // apart; beyond that the spacing follows the interleave estimate
      // with placement jitter.
      double d = std::max(1.05, natural * (0.6 + 0.9 * hash_uniform(hsh)));
      const int bin = d < 1 ? 0 : d < 2 ? 1 : d < 3 ? 2 : d < 4 ? 3 : 4;
      h[bin] += 1.0;
      sum += d;
      total += 1.0;
    }
  }
  if (total > 0) {
    for (auto& v : h) v /= total;
  }
  if (avg != nullptr) *avg = total > 0 ? sum / total : 0.0;
  return h;
}

Overhead PhysModel::hardening_overhead(
    const std::vector<arch::FFProt>& prot,
    const std::vector<std::uint32_t>& ffs) const {
  Overhead o;
  for (const std::uint32_t f : ffs) {
    const arch::FFProt p = prot[f];
    if (p == arch::FFProt::kParity || p == arch::FFProt::kEds) continue;
    const CellCosts c = ff_cell(p);
    o.area += c.area - 1.0;
    o.power += c.power - 1.0;
  }
  o.area /= total_area_;
  o.power /= total_power_;
  return o;
}

Overhead PhysModel::parity_overhead(const ParityPlan& plan) const {
  double area = 0.0;
  double power = 0.0;
  for (const auto& g : plan.groups) {
    const double n = static_cast<double>(g.ffs.size());
    if (n == 0) continue;
    // Predictor tree (n-1 XOR2) + checker tree (n XOR2, incl. compare).
    const double xors = 2.0 * n - 1.0;
    area += xors * kXorArea;
    power += xors * kXorPower;
    // Stored predicted-parity flip-flop (hardened: single point of check).
    area += ff_cell(arch::FFProt::kLhl).area;
    power += ff_cell(arch::FFProt::kLhl).power;
    if (g.pipelined) {
      const double pipe_ffs = std::ceil(n * kParityPipeFfPer) + 1.0;
      area += pipe_ffs;
      power += pipe_ffs;
    }
  }
  return {area * kWiringFactor / total_area_,
          power * kWiringFactor / total_power_};
}

Overhead PhysModel::eds_overhead(std::size_t eds_ffs) const {
  const double n = static_cast<double>(eds_ffs);
  const CellCosts c = ff_cell(arch::FFProt::kEds);
  Overhead o;
  o.area = (n * (c.area - 1.0 + kEdsBufferArea + kEdsAggrArea)) / total_area_;
  o.power =
      (n * (c.power - 1.0 + kEdsBufferPower + kEdsAggrPower)) / total_power_;
  return o;
}

Overhead PhysModel::dfc_overhead() const {
  // DFC checker: signature registers + per-stage staging + comparators,
  // ~250 flip-flops + combinational logic (paper: 3% area on the InO core,
  // 0.2% on the OoO core -- dominated by the relative core size).
  const double ffs = dfc_ff_delta() * static_cast<double>(ff_count_);
  const double comb = ffs * 0.8 * kXorArea;
  return {(ffs + comb) / total_area_,
          (ffs + ffs * 0.8 * kXorPower) / total_power_};
}

Overhead PhysModel::monitor_overhead() const {
  // The monitor core is a small in-order checker (paper Table 3: 9% area,
  // 16.3% power on the OoO core).  Modeled as a core of 38% of the main
  // core's flip-flops plus its combinational logic and L1 interface.
  const double ffs = monitor_ff_delta() * static_cast<double>(ff_count_);
  const double comb_area = ffs * 2.9;
  const double comb_power = ffs * 3.1;
  return {(ffs + comb_area) / total_area_, (ffs + comb_power) / total_power_};
}

Overhead PhysModel::recovery_overhead(arch::RecoveryKind k) const {
  const RecoveryCosts c = recovery_costs(core_, k);
  return {c.area, c.power};
}

double PhysModel::recovery_latency_cycles(arch::RecoveryKind k) const {
  return recovery_costs(core_, k).latency;
}

double PhysModel::dfc_ff_delta() const {
  // ~250 checker FFs: 20% of the InO core, ~1.8% of the OoO core.
  return 250.0 / static_cast<double>(ff_count_);
}

double PhysModel::monitor_ff_delta() const { return 0.38; }

double PhysModel::recovery_ff_delta(arch::RecoveryKind k) const {
  return recovery_costs(core_, k).ff_delta;
}

double PhysModel::parity_ff_delta(const ParityPlan& plan) const {
  double added = 0.0;
  for (const auto& g : plan.groups) {
    added += 1.0;  // predicted-parity bit
    if (g.pipelined) {
      added += std::ceil(static_cast<double>(g.ffs.size()) *
                         kParityPipeFfPer) +
               1.0;
    }
  }
  return added / static_cast<double>(ff_count_);
}

double PhysModel::spnr_noise(const std::string& design_key,
                             const std::string& benchmark) const {
  std::uint64_t h = salt_ ^ 0x59A27ull;
  for (char c : design_key) h = util::hash_combine(h, static_cast<unsigned char>(c));
  for (char c : benchmark) h = util::hash_combine(h, static_cast<unsigned char>(c));
  // Relative sigma 1.6%: per-benchmark averages land in the paper's
  // 0.6-3.1% relative-standard-deviation band.
  return 1.0 + 0.016 * hash_gauss(h);
}

}  // namespace clear::phys
