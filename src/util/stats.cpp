#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace clear::util {

void RunningStat::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStat::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStat::rel_stddev() const noexcept {
  return mean_ != 0.0 ? stddev() / std::abs(mean_) : 0.0;
}

double proportion_margin_of_error_95(std::size_t successes,
                                     std::size_t trials) noexcept {
  if (trials == 0) return 1.0;
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  return 1.959963985 * std::sqrt(std::max(p * (1.0 - p), 1e-12) / n);
}

Interval wilson_interval_95(std::size_t successes, std::size_t trials) noexcept {
  if (trials == 0) return {0.0, 1.0};
  const double z = 1.959963985;
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

namespace {

// Quantile of the Beta(a, b) distribution by bisection on the regularized
// incomplete beta.  Bisection (not Newton) on purpose: the adaptive
// sampler's stop decisions must be bit-identical across hosts, and a
// fixed-iteration bisection is deterministic for any rounding behaviour.
double beta_quantile(double a, double b, double q) {
  double lo = 0.0;
  double hi = 1.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (regularized_incomplete_beta(a, b, mid) < q) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

Interval clopper_pearson_interval_95(std::size_t successes,
                                     std::size_t trials) noexcept {
  if (trials == 0) return {0.0, 1.0};
  if (successes > trials) successes = trials;
  constexpr double kAlpha = 0.05;
  const double x = static_cast<double>(successes);
  const double n = static_cast<double>(trials);
  Interval iv;
  iv.lo = successes == 0 ? 0.0
                         : beta_quantile(x, n - x + 1.0, kAlpha / 2.0);
  iv.hi = successes == trials
              ? 1.0
              : beta_quantile(x + 1.0, n - x, 1.0 - kAlpha / 2.0);
  return iv;
}

const char* interval_method_name(IntervalMethod m) noexcept {
  return m == IntervalMethod::kClopperPearson ? "clopper-pearson" : "wilson";
}

bool parse_interval_method(const std::string& text, IntervalMethod* out) {
  if (text != "wilson" && text != "cp") return false;
  *out = text == "cp" ? IntervalMethod::kClopperPearson
                      : IntervalMethod::kWilson;
  return true;
}

Interval binomial_interval_95(IntervalMethod method, std::size_t successes,
                              std::size_t trials) noexcept {
  return method == IntervalMethod::kClopperPearson
             ? clopper_pearson_interval_95(successes, trials)
             : wilson_interval_95(successes, trials);
}

double interval_half_width(const Interval& iv) noexcept {
  return 0.5 * (iv.hi - iv.lo);
}

std::size_t trials_for_half_width_95(IntervalMethod method,
                                     std::size_t successes,
                                     std::size_t trials,
                                     double target) noexcept {
  if (target <= 0.0) return kTrialsProjectionCap;
  const double p =
      trials == 0 ? 0.0
                  : static_cast<double>(successes) / static_cast<double>(trials);
  const auto met = [&](std::size_t n) {
    const auto x = static_cast<std::size_t>(
        std::llround(p * static_cast<double>(n)));
    const Interval iv = binomial_interval_95(method, std::min(x, n), n);
    return interval_half_width(iv) <= target;
  };
  std::size_t lo = std::max<std::size_t>(trials, 1);
  if (met(lo)) return lo;
  std::size_t hi = lo;
  while (hi < kTrialsProjectionCap && !met(hi)) {
    hi = std::min(kTrialsProjectionCap, hi * 2);
  }
  if (hi >= kTrialsProjectionCap && !met(hi)) return kTrialsProjectionCap;
  // Binary search for the first n meeting the target.  The projected
  // half-width is monotone up to success-count rounding; any off-by-a-few
  // answer is fine as long as it is the SAME answer everywhere, which
  // bisection over a pure predicate guarantees.
  while (lo + 1 < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (met(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

namespace {

double sample_mean(const std::vector<double>& xs) {
  double s = 0.0;
  for (double x : xs) s += x;
  return xs.empty() ? 0.0 : s / static_cast<double>(xs.size());
}

double sample_var(const std::vector<double>& xs, double m) {
  if (xs.size() < 2) return 0.0;
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size() - 1);
}

// Regularized incomplete beta function via continued fraction (Lentz), used
// for the Student-t CDF.  Adequate for the p-value precision we report.
double betacf(double a, double b, double x) {
  constexpr int kMaxIter = 200;
  constexpr double kEps = 3e-12;
  constexpr double kFpMin = 1e-300;
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::abs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::abs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::abs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < kEps) break;
  }
  return h;
}

// Two-sided p-value for Student-t statistic with df degrees of freedom.
double t_two_sided_p(double t, double df) {
  if (df <= 0.0) return 1.0;
  const double x = df / (df + t * t);
  return regularized_incomplete_beta(df / 2.0, 0.5, x);
}

}  // namespace

double regularized_incomplete_beta(double a, double b, double x) noexcept {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_beta = std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b);
  const double front = std::exp(ln_beta + a * std::log(x) + b * std::log(1.0 - x));
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * betacf(a, b, x) / a;
  }
  return 1.0 - front * betacf(b, a, 1.0 - x) / b;
}

double mean_of(const std::vector<double>& xs) noexcept { return sample_mean(xs); }

double welch_t_test_p_value(const std::vector<double>& a,
                            const std::vector<double>& b) noexcept {
  if (a.size() < 2 || b.size() < 2) return 1.0;
  const double ma = sample_mean(a);
  const double mb = sample_mean(b);
  const double va = sample_var(a, ma);
  const double vb = sample_var(b, mb);
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  const double se2 = va / na + vb / nb;
  if (se2 <= 0.0) return ma == mb ? 1.0 : 0.0;
  const double t = (ma - mb) / std::sqrt(se2);
  const double df_num = se2 * se2;
  const double df_den = (va / na) * (va / na) / (na - 1.0) +
                        (vb / nb) * (vb / nb) / (nb - 1.0);
  const double df = df_den > 0.0 ? df_num / df_den : na + nb - 2.0;
  return t_two_sided_p(t, df);
}

}  // namespace clear::util
