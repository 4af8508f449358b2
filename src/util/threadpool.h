// Persistent worker pool used by the injection-campaign engine.  The paper
// ran campaigns on a BEE3 FPGA cluster and the Stampede supercomputer; here
// the "cluster" is the local machine's hardware threads.
//
// The pool outlives individual campaigns: workers keep a stable worker id,
// which lets the campaign engine cache expensive per-worker state (core
// model instances) across the thousands of campaigns a Session runs.
// Worker exceptions are captured and the first one is rethrown on the
// joining thread -- a failing campaign surfaces as a normal C++ exception
// instead of std::terminate.
#ifndef CLEAR_UTIL_THREADPOOL_H
#define CLEAR_UTIL_THREADPOOL_H

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/env.h"

namespace clear::util {

// Backstop against runaway thread-count requests.
constexpr unsigned kMaxThreads = 256;

// Worker threads for a requested count: a positive count is used, capped
// at kMaxThreads; zero or a negative count means the hardware
// concurrency, at least 1.
inline unsigned resolve_threads(long requested) {
  if (requested > 0) {
    return static_cast<unsigned>(std::min<long>(requested, kMaxThreads));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

// The CLEAR_THREADS knob (util/env.h), resolved as above; unset or
// malformed means the hardware concurrency.
inline unsigned env_threads() {
  return resolve_threads(env_long("CLEAR_THREADS", 0));
}

class ThreadPool {
 public:
  // Caller-slot worker id: the id passed to fn() when the task runs inline
  // on the submitting thread (n == 1 or parallelism <= 1).
  static constexpr unsigned kCallerSlot = ~0u;

  explicit ThreadPool(unsigned threads = 0) { grow(resolve_threads(threads)); }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> g(m_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Process-wide pool the campaigns run on.
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  // Runs fn(index, worker_id) for index in [0, n) on up to `parallelism`
  // workers, resolved by resolve_threads (0 = hardware concurrency).
  // Indices are handed out through a shared counter, so any worker may
  // execute any index; callers must make per-index work order-independent
  // (campaigns derive per-index RNGs).  The first exception thrown by any
  // worker is rethrown here after all workers finished the job.  Worker
  // ids are stable across calls and lie in [0, size()); the inline path
  // reports kCallerSlot.
  void run(std::size_t n,
           unsigned parallelism,
           const std::function<void(std::size_t, unsigned)>& fn) {
    if (n == 0) return;
    parallelism = resolve_threads(parallelism);
    // Nested submissions from inside a pool worker run inline: the pool's
    // job slot is busy with the enclosing job.
    if (n == 1 || parallelism <= 1 || in_worker()) {
      for (std::size_t i = 0; i < n; ++i) fn(i, kCallerSlot);
      return;
    }
    std::lock_guard<std::mutex> serialize(run_mutex_);
    grow(parallelism);
    {
      std::lock_guard<std::mutex> g(m_);
      job_fn_ = &fn;
      job_n_ = n;
      job_parallelism_ = parallelism;
      job_next_.store(0, std::memory_order_relaxed);
      job_workers_left_ =
          static_cast<unsigned>(std::min<std::size_t>(parallelism, size()));
      job_error_ = nullptr;
      ++generation_;
    }
    cv_.notify_all();
    std::exception_ptr err;
    {
      std::unique_lock<std::mutex> g(m_);
      done_cv_.wait(g, [&] { return job_workers_left_ == 0; });
      job_fn_ = nullptr;
      err = job_error_;
    }
    if (err) std::rethrow_exception(err);
  }

 private:
  static bool& in_worker() {
    thread_local bool flag = false;
    return flag;
  }

  void grow(unsigned target) {
    // Only called with run_mutex_ held (or from the constructor): no job is
    // in flight, so appending workers is safe.
    std::lock_guard<std::mutex> g(m_);
    while (workers_.size() < target) {
      const unsigned id = static_cast<unsigned>(workers_.size());
      // A late-spawned worker must not adopt an already-completed
      // generation: it would charge a spurious job_workers_left_
      // decrement against the next job and let run() return while a
      // participant is still executing fn.  Seed it with the current
      // generation (stable: m_ is held) so it only reacts to jobs
      // published after it was spawned.
      const std::uint64_t birth_generation = generation_;
      workers_.emplace_back(
          [this, id, birth_generation] { worker_loop(id, birth_generation); });
    }
  }

  void worker_loop(unsigned id, std::uint64_t seen) {
    in_worker() = true;
    for (;;) {
      const std::function<void(std::size_t, unsigned)>* fn = nullptr;
      std::size_t n = 0;
      {
        std::unique_lock<std::mutex> g(m_);
        cv_.wait(g, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        if (id >= job_parallelism_) continue;  // not part of this job
        fn = job_fn_;
        n = job_n_;
      }
      std::exception_ptr err;
      for (;;) {
        const std::size_t i = job_next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        try {
          (*fn)(i, id);
        } catch (...) {
          err = std::current_exception();
          // Drain the remaining indices so the job still terminates.
          job_next_.store(n, std::memory_order_relaxed);
          break;
        }
      }
      {
        std::lock_guard<std::mutex> g(m_);
        if (err && !job_error_) job_error_ = err;
        if (--job_workers_left_ == 0) done_cv_.notify_all();
      }
    }
  }

  std::mutex run_mutex_;  // serializes jobs (campaigns are sequential)
  std::mutex m_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
  std::uint64_t generation_ = 0;
  const std::function<void(std::size_t, unsigned)>* job_fn_ = nullptr;
  std::size_t job_n_ = 0;
  unsigned job_parallelism_ = 0;
  std::atomic<std::size_t> job_next_{0};
  unsigned job_workers_left_ = 0;
  std::exception_ptr job_error_;
};

}  // namespace clear::util

#endif  // CLEAR_UTIL_THREADPOOL_H
