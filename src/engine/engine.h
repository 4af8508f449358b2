// Asynchronous campaign job engine: the process-wide execution layer of
// the simulator.
//
// The paper ran its 9M-injection studies on a BEE3 FPGA cluster plus the
// Stampede supercomputer; the software reproduction runs the same fleets
// on worker pools, sharded across processes and machines.  Everything
// above the simulation (the CLI, `core::Session`, the exploration
// engine, the `clear serve` daemon) submits work HERE and holds a typed
// future instead of blocking inside the campaign layer:
//
//   engine::Job job = engine::Engine::instance().submit(specs);
//   ... overlap other work, poll job.state(), maybe job.cancel() ...
//   std::vector<inject::CampaignResult> r = job.take_results();
//
// or, for callers that simply block, engine::run_campaign(s) below.
//
// Semantics:
//   * one dispatcher thread executes jobs strictly one batch at a time
//     (campaign batches already saturate the worker pool; running two at
//     once would only interleave their pool jobs), in submission order;
//   * results are a pure function of the specs: the engine runs the
//     campaign executor (inject/exec.h) with its campaign-cache
//     semantics, whoever submits and however jobs interleave;
//   * cancellation is cooperative: cancel() flips a flag the simulation
//     polls at checkpoint boundaries; a cancelled batch never writes a
//     cache entry, so the pack is never left with partial results;
//   * a job reports its state, not its progress: the samples and golden
//     recordings it simulates are counted process-wide by the obs
//     registry (`campaign.samples`, `campaign.goldens`;
//     docs/OBSERVABILITY.md), which a worker's heartbeats carry.
//
// Lifetime contract: a CampaignSpec holds raw pointers to its program
// and resilience config; for an asynchronous submission those must stay
// valid until the job reaches a terminal state (poll() true), not merely
// until submit() returns.
#ifndef CLEAR_ENGINE_ENGINE_H
#define CLEAR_ENGINE_ENGINE_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "inject/campaign.h"

namespace clear::engine {

// Job lifecycle: kQueued -> kRunning -> one of the terminal states.
// cancel() before the dispatcher picks a job up moves it kQueued ->
// kCancelled without running anything.
enum class JobState : std::uint8_t {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,       // results available
  kCancelled = 3,  // cancel() observed; no results, nothing cached
  kFailed = 4,     // executor threw; wait()/results() rethrow it
};

// Thrown by results()/take_results() on a job that ended kCancelled.
class JobCancelled : public std::runtime_error {
 public:
  JobCancelled() : std::runtime_error("job cancelled") {}
};

namespace detail {
struct JobImpl;
}

// Shared handle to one submitted batch.  Copyable (all copies address the
// same job); cheap.  A default-constructed handle is invalid.
class Job {
 public:
  Job() = default;

  [[nodiscard]] bool valid() const noexcept { return impl_ != nullptr; }

  [[nodiscard]] JobState state() const;
  // True once the job reached a terminal state.
  [[nodiscard]] bool poll() const;
  // Blocks up to `timeout`; true when the job is terminal on return.
  bool wait_for(std::chrono::milliseconds timeout) const;
  // Blocks until terminal.  Never throws: inspect state() afterwards.
  void wait() const;

  // Blocks until terminal, then: kDone -> the results (one per submitted
  // spec, in order); kCancelled -> throws JobCancelled; kFailed ->
  // rethrows the executor's exception.  results() leaves the results in
  // the handle (the reference stays valid while any handle lives);
  // take_results() moves them out (at most one caller).
  const std::vector<inject::CampaignResult>& results() const;
  std::vector<inject::CampaignResult> take_results();

  // Requests cooperative cancellation.  Idempotent; safe from any thread
  // and in any state (terminal states ignore it).  A queued job is
  // cancelled immediately; a running one stops at the next checkpoint
  // boundary and never writes cache entries.  Order with wait(): cancel
  // first, then wait for the terminal state.
  void cancel() const;

 private:
  friend class Engine;
  explicit Job(std::shared_ptr<detail::JobImpl> impl)
      : impl_(std::move(impl)) {}
  std::shared_ptr<detail::JobImpl> impl_;
};

// The process-wide engine.  Thread-safe: any thread may submit, poll,
// wait and cancel concurrently.
class Engine {
 public:
  static Engine& instance();

  // Enqueues a batch and returns its handle immediately (the dispatcher
  // thread starts lazily on first use).  The batch is validated by the
  // executor when it runs, surfacing through wait()/results() like any
  // executor error.  Submissions from the dispatcher thread itself
  // execute inline (a job must never deadlock waiting for the thread it
  // runs on).  `on_finish`, when given, is called once the job reaches
  // a terminal state, on whichever thread retired it (the dispatcher, or
  // the caller of cancel()), after waiters were woken: it must be cheap,
  // must not block, and must own whatever it touches.  A caller that
  // multiplexes the job with other events uses it to wake its wait.
  Job submit(std::vector<inject::CampaignSpec> specs,
             std::function<void()> on_finish = {});

  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

 private:
  Engine();
  void dispatch_loop();
  void run_job(const std::shared_ptr<detail::JobImpl>& job);
  void finish(const std::shared_ptr<detail::JobImpl>& job, JobState final);

  std::mutex m_;
  std::condition_variable cv_;  // dispatcher wakeup
  std::deque<std::shared_ptr<detail::JobImpl>> queue_;
  std::thread dispatcher_;
  bool started_ = false;
  bool stop_ = false;
};

// Runs (or loads from cache) a batch of campaigns as one engine job and
// blocks until it completes.  Deterministic: bit-identical for a given
// (program, cfg, injections, seed, shard) across runs, hosts, thread
// counts and batch compositions; golden-run recording and faulty runs of
// different campaigns overlap on the shared worker pool.
// Thread-safe (concurrent callers queue on the engine).  The
// spec-referenced programs/configs must outlive the call.  Throws
// std::invalid_argument on a bad spec, std::runtime_error when a golden
// run does not halt.  For a non-blocking handle with cancellation, use
// Engine::submit directly.
[[nodiscard]] std::vector<inject::CampaignResult> run_campaigns(
    const std::vector<inject::CampaignSpec>& specs);

// One campaign through run_campaigns().
[[nodiscard]] inject::CampaignResult run_campaign(
    const inject::CampaignSpec& spec);

}  // namespace clear::engine

#endif  // CLEAR_ENGINE_ENGINE_H
