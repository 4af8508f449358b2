// Test-side oracle for the campaign-cache payload decoder.
//
// inject::detail::parse_result reads a row of six single-digit counts in
// its canonical form ("d d d d d d" and a whitespace byte) in one step and
// hands every other row to its strict per-number reader.  This header is
// that decoder without the one-step path: every field goes through the
// strict reader, one number at a time.  On any payload the production
// decoder must give its verdict and, on acceptance, its result field for
// field.
#ifndef CLEAR_TESTS_PAYLOAD_DECODE_ORACLE_H
#define CLEAR_TESTS_PAYLOAD_DECODE_ORACLE_H

#include <charconv>
#include <cstdint>
#include <string_view>
#include <system_error>
#include <utility>

#include "inject/campaign.h"
#include "util/bytes.h"

namespace clear::testref {

namespace payload_detail {

inline bool is_space(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r';
}

class StrictReader {
 public:
  explicit StrictReader(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  template <typename T>
  bool number(T* out) {
    skip_space();
    const auto [next, ec] = std::from_chars(p_, end_, *out);
    if (ec != std::errc() || next == end_ || !is_space(*next)) return false;
    p_ = next;
    return true;
  }
  bool word(std::string_view word) {
    skip_space();
    const auto left = static_cast<std::size_t>(end_ - p_);
    if (left <= word.size() || std::string_view(p_, word.size()) != word ||
        !is_space(p_[word.size()])) {
      return false;
    }
    p_ += word.size();
    return true;
  }
  bool at_end() {
    skip_space();
    return p_ == end_;
  }

 private:
  void skip_space() {
    while (p_ != end_ && is_space(*p_)) ++p_;
  }

  const char* p_;
  const char* end_;
};

}  // namespace payload_detail

// The decoder with every field read by the strict reader.
inline bool strict_parse_result(std::string_view payload, std::uint64_t fp,
                                std::uint32_t expected_ffs, bool adaptive,
                                inject::CampaignResult* out) {
  payload_detail::StrictReader in(payload);
  std::uint64_t file_fp = 0;
  std::uint32_t ffs = 0;
  inject::CampaignResult r;
  if (!in.number(&file_fp) || !in.number(&ffs) ||
      !in.number(&r.nominal_cycles) || !in.number(&r.nominal_instrs)) {
    return false;
  }
  if (file_fp != fp || ffs != expected_ffs || r.nominal_cycles == 0) {
    return false;
  }
  r.ff_count = ffs;
  for (std::uint32_t f = 0; f < ffs; ++f) {
    inject::OutcomeCounts c;
    if (!in.number(&c.vanished) || !in.number(&c.omm) || !in.number(&c.ut) ||
        !in.number(&c.hang) || !in.number(&c.ed) ||
        !in.number(&c.recovered)) {
      return false;
    }
    r.totals.merge(c);
    r.per_ff.push_back(c);
  }
  if (adaptive) {
    std::uint32_t method = 0;
    std::uint64_t target_bits = 0;
    if (!in.word("adaptive") || !in.number(&method) ||
        !in.number(&target_bits) || !in.number(&r.pilot) || method > 1) {
      return false;
    }
    r.confidence_method = static_cast<util::IntervalMethod>(method);
    r.confidence_target = util::bits_f64(target_bits);
    if (!(r.confidence_target > 0.0) || r.confidence_target > 0.5) {
      return false;
    }
    for (std::uint32_t f = 0; f < ffs; ++f) {
      std::uint64_t n = 0;
      if (!in.number(&n)) return false;
      r.planned.push_back(n);
    }
  }
  if (!in.at_end()) return false;
  *out = std::move(r);
  return true;
}

}  // namespace clear::testref

#endif  // CLEAR_TESTS_PAYLOAD_DECODE_ORACLE_H
