#include "arch/ff.h"

#include <algorithm>
#include <stdexcept>

namespace clear::arch {

std::uint32_t FFRegistry::add_slot(std::string name, int width,
                                   FFFlags flags) {
  if (width <= 0 || width > 64) {
    throw std::invalid_argument("FF width must be 1..64: " + name);
  }
  if (pool_.size() >= kMaxSlots) {
    throw std::length_error("FF registry slot capacity exceeded");
  }
  FFStructure s;
  s.name = std::move(name);
  s.first_ff = ff_count_;
  s.width = static_cast<std::uint8_t>(width);
  s.slot = static_cast<std::uint32_t>(pool_.size());
  s.flags = flags;
  structures_.push_back(std::move(s));
  pool_.push_back(0);
  ff_count_ += static_cast<std::uint32_t>(width);
  return structures_.back().slot;
}

void FFRegistry::drain_access_log(std::uint64_t* read_first,
                                  std::uint64_t* written_first) noexcept {
  for (std::size_t s = 0; s < first_access_.size(); ++s) {
    const auto a = static_cast<FirstAccess>(first_access_[s]);
    if (a == FirstAccess::kNone) continue;
    std::uint64_t* bits = a == FirstAccess::kRead ? read_first : written_first;
    bits[s / 64] |= std::uint64_t{1} << (s % 64);
    first_access_[s] = 0;
  }
}

std::vector<std::uint64_t> FFRegistry::sink_slots() const {
  std::vector<std::uint64_t> bits((pool_.size() + 63) / 64, 0);
  for (const FFStructure& s : structures_) {
    if (s.flags.sink) bits[s.slot / 64] |= std::uint64_t{1} << (s.slot % 64);
  }
  return bits;
}

void FFRegistry::flip(std::uint32_t ff_index) noexcept {
  const FFStructure& s = structure_of(ff_index);
  pool_[s.slot] ^= 1ULL << (ff_index - s.first_ff);
}

const FFStructure& FFRegistry::structure_of(std::uint32_t ff_index) const {
  // Binary search over first_ff (structures are registered in order).
  auto it = std::upper_bound(
      structures_.begin(), structures_.end(), ff_index,
      [](std::uint32_t v, const FFStructure& s) { return v < s.first_ff; });
  return *(it - 1);
}

}  // namespace clear::arch
