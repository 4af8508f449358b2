#include "engine/engine.h"

#include <atomic>
#include <utility>

#include "inject/exec.h"
#include "obs/metrics.h"
#include "util/threadpool.h"

namespace clear::engine {

namespace detail {

// All handle operations go through this shared block; the dispatcher and
// any number of handle copies synchronize on `m`/`cv`.  The cancel flag
// is a bare atomic so the executor's workers can poll it without taking
// the job mutex.
struct JobImpl {
  std::vector<inject::CampaignSpec> specs;

  mutable std::mutex m;
  mutable std::condition_variable cv;
  JobState state = JobState::kQueued;
  std::vector<inject::CampaignResult> results;
  std::exception_ptr error;
  bool taken = false;            // take_results() called
  std::function<void()> on_finish;  // Engine::submit's, run by retire()

  std::atomic<bool> cancel{false};

  // Construction time == submission time: run_job() turns the difference
  // into the engine.queue.wait histogram.
  std::chrono::steady_clock::time_point enqueued =
      std::chrono::steady_clock::now();
};

}  // namespace detail

namespace {

using detail::JobImpl;

// Engine telemetry (docs/OBSERVABILITY.md): how long jobs sit queued and
// how deep the queue gets.
struct EngineMetrics {
  obs::Histogram& queue_wait = obs::histogram("engine.queue.wait");
  obs::Gauge& queue_depth = obs::gauge("engine.queue.depth");
};

EngineMetrics& metrics() {
  static EngineMetrics m;
  return m;
}

bool is_terminal(JobState s) noexcept {
  return s == JobState::kDone || s == JobState::kCancelled ||
         s == JobState::kFailed;
}

// Retires a job under its own lock.  Caller must NOT hold job->m.  With
// `only_queued`, the transition happens only from kQueued -- the path
// cancel() uses, so it can never yank a job the dispatcher concurrently
// moved to kRunning (the running executor owns that job's retirement).
// Returns whether this call performed the transition.
bool retire(const std::shared_ptr<JobImpl>& job, JobState final,
            bool only_queued = false) {
  {
    std::lock_guard<std::mutex> g(job->m);
    if (is_terminal(job->state)) return false;
    if (only_queued && job->state != JobState::kQueued) return false;
    job->state = final;
  }
  job->cv.notify_all();
  if (job->on_finish) job->on_finish();
  return true;
}

}  // namespace

// ---- Job handle ------------------------------------------------------------

JobState Job::state() const {
  if (!impl_) return JobState::kFailed;
  std::lock_guard<std::mutex> g(impl_->m);
  return impl_->state;
}

bool Job::poll() const { return is_terminal(state()); }

bool Job::wait_for(std::chrono::milliseconds timeout) const {
  if (!impl_) return true;
  std::unique_lock<std::mutex> g(impl_->m);
  return impl_->cv.wait_for(g, timeout,
                            [&] { return is_terminal(impl_->state); });
}

void Job::wait() const {
  if (!impl_) return;
  std::unique_lock<std::mutex> g(impl_->m);
  impl_->cv.wait(g, [&] { return is_terminal(impl_->state); });
}

const std::vector<inject::CampaignResult>& Job::results() const {
  if (!impl_) throw std::logic_error("results() on an invalid Job handle");
  wait();
  std::lock_guard<std::mutex> g(impl_->m);
  if (impl_->state == JobState::kCancelled) throw JobCancelled();
  if (impl_->state == JobState::kFailed) {
    std::rethrow_exception(impl_->error);
  }
  return impl_->results;
}

std::vector<inject::CampaignResult> Job::take_results() {
  if (!impl_) throw std::logic_error("take_results() on an invalid Job");
  wait();
  std::lock_guard<std::mutex> g(impl_->m);
  if (impl_->state == JobState::kCancelled) throw JobCancelled();
  if (impl_->state == JobState::kFailed) {
    std::rethrow_exception(impl_->error);
  }
  if (impl_->taken) {
    throw std::logic_error("take_results() called twice on one job");
  }
  impl_->taken = true;
  return std::move(impl_->results);
}

void Job::cancel() const {
  if (!impl_) return;
  impl_->cancel.store(true, std::memory_order_relaxed);
  // A queued job never reaches the executor: retire it here so waiters
  // unblock immediately (the dispatcher skips retired queue entries).  A
  // running job keeps its kRunning state and stops at the next
  // checkpoint boundary, where the executor retires it.
  retire(impl_, JobState::kCancelled, /*only_queued=*/true);
}

// ---- Engine ----------------------------------------------------------------

Engine& Engine::instance() {
  static Engine engine;
  return engine;
}

Engine::Engine() {
  // Touch the worker pool first so static destruction tears the engine
  // down before the pool its jobs execute on.
  (void)util::ThreadPool::instance();
}

Engine::~Engine() {
  std::vector<std::shared_ptr<JobImpl>> orphans;
  {
    std::lock_guard<std::mutex> g(m_);
    stop_ = true;
    orphans.assign(queue_.begin(), queue_.end());
    queue_.clear();
  }
  cv_.notify_all();
  // Nothing will ever run the queued jobs: retire them as cancelled so
  // any thread still waiting at process exit unblocks.
  for (auto& job : orphans) {
    job->cancel.store(true, std::memory_order_relaxed);
    retire(job, JobState::kCancelled);
  }
  if (dispatcher_.joinable()) dispatcher_.join();
}

Job Engine::submit(std::vector<inject::CampaignSpec> specs,
                   std::function<void()> on_finish) {
  auto impl = std::make_shared<JobImpl>();
  impl->on_finish = std::move(on_finish);
  impl->specs = std::move(specs);

  bool on_dispatcher = false;
  {
    std::lock_guard<std::mutex> g(m_);
    on_dispatcher =
        started_ && dispatcher_.get_id() == std::this_thread::get_id();
    if (!on_dispatcher) {
      queue_.push_back(impl);
      metrics().queue_depth.set(queue_.size());
      if (!started_) {
        dispatcher_ = std::thread([this] { dispatch_loop(); });
        started_ = true;
      }
    }
  }
  if (on_dispatcher) {
    // A submission from the dispatcher thread itself runs inline: it must
    // never wait on a queue only it drains.
    run_job(impl);
  } else {
    cv_.notify_all();
  }
  return Job(impl);
}

void Engine::dispatch_loop() {
  for (;;) {
    std::shared_ptr<JobImpl> job;
    {
      std::unique_lock<std::mutex> g(m_);
      cv_.wait(g, [&] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    run_job(job);
  }
}

void Engine::run_job(const std::shared_ptr<detail::JobImpl>& job) {
  {
    std::lock_guard<std::mutex> g(job->m);
    if (job->state != JobState::kQueued) return;  // cancelled while queued
    job->state = JobState::kRunning;
  }
  job->cv.notify_all();

  if (obs::enabled()) {
    metrics().queue_wait.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - job->enqueued)
            .count()));
  }

  JobState final = JobState::kDone;
  try {
    auto results = inject::detail::execute_campaigns(job->specs, &job->cancel);
    std::lock_guard<std::mutex> g(job->m);
    job->results = std::move(results);
  } catch (const inject::detail::CampaignCancelled&) {
    final = JobState::kCancelled;
  } catch (...) {
    std::lock_guard<std::mutex> g(job->m);
    job->error = std::current_exception();
    final = JobState::kFailed;
  }
  retire(job, final);
}

std::vector<inject::CampaignResult> run_campaigns(
    const std::vector<inject::CampaignSpec>& specs) {
  return Engine::instance().submit(specs).take_results();
}

inject::CampaignResult run_campaign(const inject::CampaignSpec& spec) {
  return std::move(run_campaigns({spec}).front());
}

}  // namespace clear::engine
