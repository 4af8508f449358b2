// Application-benchmark dependence (paper Sec. 4).
//
// The most cost-effective techniques select flip-flops from error
// injection on application benchmarks; this module quantifies what happens
// when field applications differ from the training benchmarks:
//   * standalone high-level techniques: trained vs validated improvement
//     over random train/validate splits, with p-values (Tables 23/24);
//   * tunable selections: trained vs validated improvement and the LHL
//     backfill that restores the target at ~1% extra cost (Tables 25/26);
//   * vulnerability-decile similarity across benchmarks, Eq. 2 (Table 27).
#ifndef CLEAR_CORE_BENCHDEP_H
#define CLEAR_CORE_BENCHDEP_H

#include <array>
#include <string>
#include <vector>

#include "core/selection.h"

namespace clear::core {

struct TrainValidate {
  double trained = 1.0;
  double validated = 1.0;
  double underestimate_pct = 0.0;  // (validated - trained) / trained * 100
  double p_value = 1.0;
};

// Random (train_size, rest) splits over the session suite's SPEC
// benchmarks; the training side keeps at most all but one of them.
// Throws std::invalid_argument when the suite has fewer than 2.
[[nodiscard]] std::vector<std::pair<std::vector<std::string>,
                                    std::vector<std::string>>>
make_splits(const Session& session, int n_splits, std::size_t train_size,
            std::uint64_t seed);

// Tables 23/24: standalone high-level technique, trained vs validated
// improvement of the requested metric.
[[nodiscard]] TrainValidate standalone_train_validate(Session& session,
                                                      const Variant& variant,
                                                      Metric metric,
                                                      int n_splits = 50,
                                                      std::uint64_t seed = 99);

struct LhlRow {
  double target = 0.0;
  double trained = 0.0;
  double validated = 0.0;
  double after_lhl = 0.0;
  double area_before = 0.0;
  double power_before = 0.0;
  double area_after = 0.0;
  double power_after = 0.0;
};

// Tables 25/26: tunable DICE+parity+flush/RoB selection trained on a split,
// validated on the held-out set, then LHL-backfilled.
[[nodiscard]] LhlRow lhl_backfill_row(Session& session, Selector& selector,
                                      double target, Metric metric,
                                      int n_splits = 12,
                                      std::uint64_t seed = 99);

// Table 27: Eq. 2 similarity of the per-benchmark vulnerability deciles.
[[nodiscard]] std::array<double, 10> subset_similarity(Session& session);

}  // namespace clear::core

#endif  // CLEAR_CORE_BENCHDEP_H
