// Statistics helpers for injection campaigns and physical-design averaging.
//
// The paper reports: margins of error at 95% confidence per benchmark
// (Sec. 2.1), relative standard deviations across per-benchmark SP&R runs
// (Sec. 2.3), and p-values for the train/validate study (Tables 23/24).
#ifndef CLEAR_UTIL_STATS_H
#define CLEAR_UTIL_STATS_H

#include <cstddef>
#include <string>
#include <vector>

namespace clear::util {

// Streaming mean / variance (Welford).
class RunningStat {
 public:
  void add(double x) noexcept;
  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double variance() const noexcept;   // sample variance
  [[nodiscard]] double stddev() const noexcept;
  // Relative standard deviation (stddev / mean); 0 when mean == 0.
  [[nodiscard]] double rel_stddev() const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

// Two-sided 95% normal-approximation margin of error for a proportion
// estimated from `successes` out of `trials`.
[[nodiscard]] double proportion_margin_of_error_95(std::size_t successes,
                                                   std::size_t trials) noexcept;

// Wilson score interval for a proportion (95%); returns {lo, hi}.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};
[[nodiscard]] Interval wilson_interval_95(std::size_t successes,
                                          std::size_t trials) noexcept;

// Clopper-Pearson exact binomial interval (95%); returns {lo, hi}.
// Conservative: at least as wide as Wilson at interior counts (at 0 or
// n successes the one-sided exact bound can be marginally tighter).
[[nodiscard]] Interval clopper_pearson_interval_95(std::size_t successes,
                                                   std::size_t trials) noexcept;

// The two binomial-interval constructions the adaptive campaign engine can
// drive sampling with (inject::CampaignSpec reuses this enum directly).
enum class IntervalMethod : unsigned char {
  kWilson = 0,
  kClopperPearson = 1,
};
[[nodiscard]] Interval binomial_interval_95(IntervalMethod method,
                                            std::size_t successes,
                                            std::size_t trials) noexcept;
// The method's name in reports: "wilson" or "clopper-pearson".
[[nodiscard]] const char* interval_method_name(IntervalMethod m) noexcept;
// Reads the flag token "wilson" or "cp"; false on any other text.
[[nodiscard]] bool parse_interval_method(const std::string& text,
                                         IntervalMethod* out);

// Half-width of an interval: (hi - lo) / 2.
[[nodiscard]] double interval_half_width(const Interval& iv) noexcept;

// Smallest trial count n' >= trials at which the method's 95% interval
// half-width would meet `target`, projecting the observed proportion
// forward (successes' = round(p-hat * n')).  Deterministic (pure function
// of the arguments); capped at kTrialsProjectionCap when the target is
// unreachable.  Used by the adaptive sampler to size post-pilot budgets.
inline constexpr std::size_t kTrialsProjectionCap =
    static_cast<std::size_t>(1) << 32;
[[nodiscard]] std::size_t trials_for_half_width_95(IntervalMethod method,
                                                   std::size_t successes,
                                                   std::size_t trials,
                                                   double target) noexcept;

// Regularized incomplete beta I_x(a, b); exposed for the exact interval's
// quantile search and the statistical-correctness tests.
[[nodiscard]] double regularized_incomplete_beta(double a, double b,
                                                 double x) noexcept;

// Welch's t-test two-sided p-value that two samples share a mean.
// Used for the trained-vs-validated improvement comparison (Tables 23/24).
[[nodiscard]] double welch_t_test_p_value(const std::vector<double>& a,
                                          const std::vector<double>& b) noexcept;

// Mean of a vector (0 for empty input).
[[nodiscard]] double mean_of(const std::vector<double>& xs) noexcept;

}  // namespace clear::util

#endif  // CLEAR_UTIL_STATS_H
