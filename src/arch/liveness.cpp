#include "arch/liveness.h"

#include <algorithm>
#include <stdexcept>

#include "arch/core.h"

namespace clear::arch {

void FFLiveness::start(Core& traced) {
  if (!traced.registry().traced()) {
    // An untraced core logs nothing: every slot would read as dead.
    throw std::logic_error("FFLiveness: recording needs a traced core");
  }
  const std::size_t slots = traced.registry().pool().size();
  words_ = (slots + 63) / 64;
  sink_ = traced.registry().sink_slots();
  closed_ = 0;
  boundaries_ = 0;
  live_.clear();
  written_.clear();
  drained_.assign(2 * words_, 0);
  watched_.assign(words_, 0);
  slot_events_.assign(slots, {});
  events_.clear();
  event_begin_.clear();
  traced.drain_access_log(drained_.data(), drained_.data() + words_);
}

std::size_t FFLiveness::open_interval() {
  const std::size_t at = closed_ * words_;
  if (live_.size() == at) {
    live_.resize(at + words_, 0);
    written_.resize(at + words_, 0);
  }
  return at;
}

void FFLiveness::end_interval(Core& traced) {
  const std::size_t at = open_interval();
  std::fill(drained_.begin(), drained_.end(), 0);
  const std::uint64_t* rd = drained_.data();
  const std::uint64_t* wr = drained_.data() + words_;
  traced.drain_access_log(drained_.data(), drained_.data() + words_);
  std::uint64_t* read_first = live_.data() + at;
  std::uint64_t* written_first = written_.data() + at;
  for (std::size_t w = 0; w < words_; ++w) {
    // A slot watched earlier in the interval keeps the first access its
    // take folded in.
    const std::uint64_t seen = read_first[w] | written_first[w];
    read_first[w] |= rd[w] & ~seen;
    written_first[w] |= wr[w] & ~seen;
    for (std::uint64_t m = (rd[w] | wr[w]) & watched_[w]; m != 0;
         m &= m - 1) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctzll(m));
      note(w * 64 + bit,
           ((wr[w] >> bit) & 1U) != 0 ? FirstAccess::kWrite
                                      : FirstAccess::kRead,
           traced.cycle());
    }
  }
  ++closed_;
}

void FFLiveness::watch(Core& traced, std::size_t slot) {
  const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
  if ((sink_[slot / 64] & bit) != 0) return;
  // The slot's accesses since its last drain or take came before this
  // cycle: they belong to the open interval, and end the slot's earlier
  // watch.
  const FirstAccess a = traced.take_access(slot);
  if (a != FirstAccess::kNone) {
    const std::size_t w = open_interval() + slot / 64;
    if (((live_[w] | written_[w]) & bit) == 0) {
      (a == FirstAccess::kRead ? live_[w] : written_[w]) |= bit;
    }
    note(slot, a, traced.cycle());
  }
  watched_[slot / 64] |= bit;
}

void FFLiveness::note(std::size_t slot, FirstAccess a, std::uint64_t cycle) {
  const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
  if ((watched_[slot / 64] & bit) == 0) return;
  watched_[slot / 64] &= ~bit;
  if (cycle > 0x7FFFFFFFu) {
    throw std::length_error("FFLiveness: watched run too long");
  }
  const std::uint32_t event = static_cast<std::uint32_t>(cycle) * 2 +
                              (a == FirstAccess::kWrite ? 1 : 0);
  std::vector<std::uint32_t>& events = slot_events_[slot];
  // The last event of a run of one kind answers every query the run does.
  if (!events.empty() && (events.back() & 1U) == (event & 1U)) {
    events.back() = event;
  } else {
    events.push_back(event);
  }
}

bool FFLiveness::dead(std::size_t slot, std::uint64_t cycle) const {
  if (event_begin_.empty()) return false;
  if (((sink_[slot / 64] >> (slot % 64)) & 1U) != 0) return true;
  const auto first = events_.begin() + event_begin_[slot];
  const auto last = events_.begin() + event_begin_[slot + 1];
  // The first event after `cycle`: an event at `cycle` itself holds
  // accesses from before the watch.
  const auto next = std::upper_bound(
      first, last, cycle,
      [](std::uint64_t c, std::uint32_t e) { return c < e / 2; });
  return next == last || (*next & 1U) != 0;
}

void FFLiveness::finish() {
  boundaries_ = closed_;
  live_.resize(closed_ * words_);
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
  // A slot still watched is never accessed again: no event, so dead.
  event_begin_.assign(slot_events_.size() + 1, 0);
  std::size_t total = 0;
  for (std::size_t s = 0; s < slot_events_.size(); ++s) {
    event_begin_[s] = static_cast<std::uint32_t>(total);
    total += slot_events_[s].size();
  }
  event_begin_.back() = static_cast<std::uint32_t>(total);
  events_.clear();
  events_.reserve(total);
  for (const std::vector<std::uint32_t>& events : slot_events_) {
    events_.insert(events_.end(), events.begin(), events.end());
  }
  std::vector<std::uint64_t>().swap(written_);
  std::vector<std::uint64_t>().swap(drained_);
  std::vector<std::uint64_t>().swap(watched_);
  std::vector<std::vector<std::uint32_t>>().swap(slot_events_);
}

}  // namespace clear::arch
