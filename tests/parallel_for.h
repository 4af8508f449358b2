// Test-side parallel loop over the shared pool: the test oracles and the
// race tests fan independent indices out the way campaigns do, through
// ThreadPool::run.
#ifndef CLEAR_TESTS_PARALLEL_FOR_H
#define CLEAR_TESTS_PARALLEL_FOR_H

#include <cstddef>
#include <functional>

#include "util/threadpool.h"

namespace clear::util {

// Runs fn(i) for i in [0, n) across up to `threads` workers of the shared
// pool.  The first worker exception is rethrown on the joining thread.
// Determinism is preserved when each index computes an independent result.
inline void parallel_for(std::size_t n,
                         const std::function<void(std::size_t)>& fn,
                         unsigned threads = 0) {
  ThreadPool::instance().run(n, threads,
                             [&fn](std::size_t i, unsigned) { fn(i); });
}

}  // namespace clear::util

#endif  // CLEAR_TESTS_PARALLEL_FOR_H
