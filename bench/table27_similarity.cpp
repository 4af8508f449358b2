// Table 27: vulnerability-decile similarity across benchmarks (Eq. 2).
#include "bench/common.h"

namespace clear::bench {

void table27_similarity() {
  bench::header("Table 27", "Vulnerability subset similarity (InO, Eq. 2)");
  const auto sim = core::subset_similarity(bench::session("InO"));
  static const double paper[10] = {0.83, 0.05, 0, 0, 0, 0, 0, 0, 0.71, 1.0};
  bench::TextTable t({"Subset (by decreasing SDC+DUE vulnerability)",
                      "Paper", "Ours"});
  for (int d = 0; d < 10; ++d) {
    t.add_row({std::to_string(d * 10) + "-" + std::to_string(d * 10 + 10) + "%",
               bench::TextTable::num(paper[d], 2),
               bench::TextTable::num(sim[d], 2)});
  }
  t.print(std::cout);
  bench::note("(only the most vulnerable flip-flops -- and the always-vanish"
              " tail -- are stable across benchmarks; reduced sampling"
              " weakens the top-decile agreement relative to the paper)");
}

}  // namespace clear::bench
