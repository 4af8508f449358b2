#include "arch/liveness.h"

#include <stdexcept>

#include "arch/core.h"

namespace clear::arch {

void FFLiveness::start(Core& traced) {
  if (!traced.registry().traced()) {
    // An untraced core logs nothing: every slot would read as dead.
    throw std::logic_error("FFLiveness: recording needs a traced core");
  }
  words_ = (traced.registry().pool().size() + 63) / 64;
  sink_ = traced.registry().sink_slots();
  boundaries_ = 0;
  live_.clear();
  written_.clear();
  std::vector<std::uint64_t> scratch(2 * words_, 0);
  traced.drain_access_log(scratch.data(), scratch.data() + words_);
}

void FFLiveness::end_interval(Core& traced) {
  const std::size_t at = live_.size();
  live_.resize(at + words_, 0);
  written_.resize(at + words_, 0);
  traced.drain_access_log(live_.data() + at, written_.data() + at);
}

void FFLiveness::finish() {
  boundaries_ = words_ == 0 ? 0 : live_.size() / words_;
  for (std::size_t b = boundaries_; b-- > 1;) {
    // live[b-1] = read_first[b-1] | (live[b] & ~written_first[b-1])
    const std::uint64_t* next = live_.data() + b * words_;
    std::uint64_t* cur = live_.data() + (b - 1) * words_;
    const std::uint64_t* wr = written_.data() + (b - 1) * words_;
    for (std::size_t w = 0; w < words_; ++w) cur[w] |= next[w] & ~wr[w];
  }
  // Per slot the recurrence is independent of every other slot, so
  // clearing the sinks afterwards equals never tracking them.
  for (std::size_t b = 0; b < boundaries_; ++b) {
    std::uint64_t* cur = live_.data() + b * words_;
    for (std::size_t w = 0; w < words_; ++w) cur[w] &= ~sink_[w];
  }
  std::vector<std::uint64_t>().swap(written_);
}

}  // namespace clear::arch
