#include "fleet/worker.h"

#include <chrono>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "explore/ledger.h"
#include "fleet/fleet.h"
#include "inject/wire.h"
#include "obs/metrics.h"
#include "plan/runplan.h"
#include "util/socket.h"
#include "util/threadpool.h"

namespace clear::fleet {

namespace {

// One assigned shard: a campaign manifest or an explore stanza.  The
// resolved plans are the stable storage the engine job's spec pointers
// alias; explore shards run on a dedicated thread because
// run_exploration blocks (the connection loop must keep pumping
// heartbeats meanwhile).  Destruction cancels and joins
// unfinished work before the plans go away.  A shard refused before
// submission (bad manifest, engine refusal) still occupies a queue
// slot so its kDone is delivered in assignment order -- a pipelining
// driver matches done frames to shards by position.
struct ServedWork {
  std::uint64_t shard_id = 0;
  serve::ShardKind kind = serve::ShardKind::kCampaign;

  // Campaign path (kCampaign).
  std::vector<plan::RunPlan> plans;
  engine::Job job;

  // Explore path (kExplore).
  std::thread explore_thread;
  std::atomic<bool> explore_done{false};
  std::atomic<bool> explore_cancel{false};
  std::string explore_result;  // encoded .cxl on success
  serve::Done explore_outcome;  // the shard's kDone once explore_done

  bool refused = false;
  serve::Done refusal;

  [[nodiscard]] bool is_explore() const {
    return kind == serve::ShardKind::kExplore;
  }

  // True once the work retired (results or error ready).
  [[nodiscard]] bool finished() {
    if (refused) return true;
    if (is_explore()) return explore_done.load(std::memory_order_acquire);
    return job.poll();
  }

  void cancel() {
    explore_cancel.store(true, std::memory_order_relaxed);
    if (job.valid()) job.cancel();
  }

  ~ServedWork() {
    cancel();
    if (job.valid()) job.wait();
    if (explore_thread.joinable()) explore_thread.join();
  }
};

void start_explore(ServedWork* work, std::string text,
                   std::function<void()> on_finish) {
  work->explore_thread = std::thread([work, text = std::move(text),
                                      on_finish = std::move(on_finish)] {
    serve::Done& done = work->explore_outcome;
    try {
      work->explore_result = run_explore_stanza(text, &work->explore_cancel);
    } catch (const explore::ExploreCancelled&) {
      done = {serve::JobOutcome::kCancelled, "exploration cancelled"};
    } catch (const std::invalid_argument& e) {
      done = {serve::JobOutcome::kBadRequest, e.what()};
    } catch (const std::exception& e) {
      done = {serve::JobOutcome::kFailed, e.what()};
    } catch (...) {
      done = {serve::JobOutcome::kFailed, "unknown exploration error"};
    }
    work->explore_done.store(true, std::memory_order_release);
    on_finish();
  });
}

// Resolves a campaign manifest and submits it to the engine; on any
// refusal the work item carries the kBadRequest instead.  `on_finish`
// runs when the job retires.
void submit_campaigns(ServedWork* served, const std::string& manifest,
                      std::function<void()> on_finish) {
  std::string error;
  bool ok = false;
  try {
    ok = plan::resolve_manifest_text(manifest, "clear serve", &served->plans,
                                     &error);
  } catch (const std::exception& e) {
    error = std::string("clear serve: ") + e.what();
  }
  if (ok) {
    std::vector<inject::CampaignSpec> specs;
    specs.reserve(served->plans.size());
    for (const plan::RunPlan& plan : served->plans) specs.push_back(plan.spec);
    try {
      served->job = engine::Engine::instance().submit(
          std::move(specs), std::move(on_finish));
      return;
    } catch (const std::exception& e) {
      // submit throws only when it cannot allocate the job or start the
      // dispatcher thread: refuse THIS request; the daemon and its other
      // work live on.
      error = std::string("clear serve: ") + e.what();
    }
  }
  served->refused = true;
  served->refusal.outcome = serve::JobOutcome::kBadRequest;
  served->refusal.message = error;
}

}  // namespace

serve::Hello worker_hello(const std::string& name) {
  serve::Hello h;
  h.proto_version = serve::kProtoVersion;
  h.wire_version = inject::kWireVersion;
  h.ledger_version = explore::kLedgerVersion;
  h.capacity = util::ThreadPool::instance().size();
  h.name = name;
  return h;
}

// Relaxed is enough for the stop flag: the poll loops only need eventual
// visibility, the joins provide all other ordering.
bool Worker::stopped() const {
  return opts_.stop != nullptr &&
         opts_.stop->load(std::memory_order_relaxed) != 0;
}

bool Worker::handle_connection(serve::FrameConn conn) {
  // Work that retires sends a byte on this pair, which ends the wait for
  // frames below at once: the driver hands out the next shard only when
  // it hears this one is done, so waiting out a poll period here would
  // leave the engine idle.  The notifiers share the sending end, since
  // one may still run after this function returns.
  std::pair<util::Socket, util::Socket> wake_pair;
  try {
    wake_pair = util::Socket::pair();
  } catch (const std::runtime_error& e) {
    // Out of descriptors: drop the connection, as a failed accept would.
    std::fprintf(stderr, "clear serve: %s\n", e.what());
    return false;
  }
  util::Socket& wake_rx = wake_pair.first;
  const auto wake_tx =
      std::make_shared<util::Socket>(std::move(wake_pair.second));
  const std::function<void()> wake = [wake_tx] {
    const char b = 1;
    (void)wake_tx->send_all(&b, 1, 0);  // a full buffer wakes already
  };

  if (!conn.send(serve::FrameType::kHello, serve::encode_hello(opts_.hello),
                 serve::kSendTimeoutMs)) {
    return false;
  }

  std::deque<std::unique_ptr<ServedWork>> queue;
  bool peer_gone = false;
  bool shutdown = false;
  auto last_heartbeat_at = std::chrono::steady_clock::now();

  // The peer left (why == nullptr) or sent what this daemon cannot
  // decode: nobody will consume the results, so stop the work instead of
  // burning the worker on it, and stop talking to the peer.
  const auto drop = [&](const char* why) {
    if (why != nullptr) std::fprintf(stderr, "clear serve: %s\n", why);
    peer_gone = true;
    for (auto& work : queue) work->cancel();
  };
  // A failed send means the peer is gone.
  const auto send = [&](serve::FrameType type, const std::string& payload) {
    if (conn.send(type, payload, serve::kSendTimeoutMs)) return true;
    drop(nullptr);
    return false;
  };
  // The liveness beacon doubles as the telemetry channel: each heartbeat
  // carries this worker's metric snapshot so the fleet driver (and
  // `clear status`) see cache/latency/engine state without a side
  // channel.
  const auto send_heartbeat = [&] {
    send(serve::FrameType::kHeartbeat,
         serve::encode_heartbeat(static_cast<std::uint32_t>(queue.size()),
                                 obs::snapshot()));
  };

  for (;;) {
    // SIGTERM/SIGINT: cancel in-flight work and drain -- the daemon must
    // exit promptly without persisting partial results, even mid-job.
    if (stopped()) drop(nullptr);  // stop talking, drain cancelled work, exit
    // ---- service the front work item ---------------------------------------
    if (!queue.empty() && queue.front()->refused) {
      if (!peer_gone) {
        send(serve::FrameType::kDone,
             serve::encode_done(queue.front()->refusal));
      }
      queue.pop_front();
      continue;
    }
    if (!queue.empty() && queue.front()->finished()) {
      ServedWork& front = *queue.front();
      if (!peer_gone) {
        // The payload frames, then the outcome.
        serve::Done done;
        if (front.is_explore()) {
          done = front.explore_outcome;
          if (done.outcome == serve::JobOutcome::kOk) {
            conn.send(serve::FrameType::kResult,
                      serve::encode_result(0, front.explore_result),
                      serve::kSendTimeoutMs);
          }
        } else {
          const engine::JobState state = front.job.state();
          if (state == engine::JobState::kDone) {
            const auto& results = front.job.results();
            for (std::size_t i = 0; i < results.size(); ++i) {
              const inject::ShardFile shard =
                  plan::plan_shard_file(front.plans[i], results[i]);
              conn.send(serve::FrameType::kResult,
                        serve::encode_result(static_cast<std::uint32_t>(i),
                                             inject::encode_shard(shard)),
                        serve::kSendTimeoutMs);
            }
            done.outcome = serve::JobOutcome::kOk;
          } else if (state == engine::JobState::kCancelled) {
            done.outcome = serve::JobOutcome::kCancelled;
            done.message = "job cancelled";
          } else {
            done.outcome = serve::JobOutcome::kFailed;
            try {
              front.job.results();  // rethrows the executor's error
            } catch (const std::exception& e) {
              done.message = e.what();
            } catch (...) {
              done.message = "unknown execution error";
            }
          }
        }
        send(serve::FrameType::kDone, serve::encode_done(done));
        if (!opts_.quiet) {
          std::printf("serve      shard #%llu finished: %s\n",
                      static_cast<unsigned long long>(front.shard_id),
                      serve::job_outcome_name(done.outcome));
          std::fflush(stdout);
        }
      }
      queue.pop_front();
      continue;  // next work item may already be terminal
    }

    // ---- heartbeat ----------------------------------------------------------
    if (!peer_gone) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_heartbeat_at >=
          std::chrono::milliseconds(opts_.heartbeat_ms)) {
        send_heartbeat();
        last_heartbeat_at = now;
      }
    }

    // ---- exit conditions ----------------------------------------------------
    if (queue.empty()) {
      if (peer_gone) {
        // A failed send (e.g. a heartbeat racing the driver's close)
        // set peer_gone, but a shutdown frame may already sit in the
        // kernel buffer or in ours: the driver sends kShutdown and
        // closes in one motion.  Drain without blocking and honour it,
        // otherwise the daemon outlives the fleet that owned it.
        serve::Frame frame;
        while (conn.recv(&frame, 0) == serve::FrameConn::Recv::kFrame) {
          if (frame.type == serve::FrameType::kShutdown) {
            shutdown_.store(true, std::memory_order_relaxed);
          }
        }
        break;
      }
      if (shutdown && !conn.has_buffered()) {
        // One last heartbeat before closing: the driver keeps each
        // worker's latest snapshot, so work finished since the previous
        // beat would otherwise be missing from its merged metrics.
        send_heartbeat();
        break;
      }
      // A sibling connection shut the daemon down: drain instead of
      // keeping the accept loop's join waiting on an idle client.
      if (shutdown_.load(std::memory_order_relaxed) && !conn.has_buffered()) {
        break;
      }
    }

    // ---- pump the socket ----------------------------------------------------
    if (peer_gone) {
      // Nothing to read; wait for the cancelled work to retire.
      if (!queue.empty()) {
        if (queue.front()->job.valid()) {
          queue.front()->job.wait_for(std::chrono::milliseconds(50));
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }
      continue;
    }
    // Wait briefly for a frame or for work to retire, then take every
    // frame that already arrived before servicing the queue again.
    const util::Socket* waits[] = {&conn.socket(), &wake_rx};
    if (util::Socket::wait_any(waits, 2, 20) == 1) {
      char wakes[64];
      (void)wake_rx.recv_some(wakes, sizeof(wakes));
    }
    while (!peer_gone) {
      serve::Frame frame;
      const serve::FrameConn::Recv got = conn.recv(&frame, 0);
      if (got == serve::FrameConn::Recv::kTimeout) break;
      if (got != serve::FrameConn::Recv::kFrame) {
        drop(got == serve::FrameConn::Recv::kBad
                 ? "protocol error, dropping connection"
                 : nullptr);
        break;
      }
      switch (frame.type) {
        case serve::FrameType::kShardAssign: {
          serve::ShardAssign assign;
          if (!serve::decode_shard_assign(frame.payload, &assign)) {
            drop("malformed shard-assign frame");
            break;
          }
          // Ack on receipt: the driver times its dispatch round trip by
          // it, not how long the shard takes.
          if (!send(serve::FrameType::kShardAck,
                    serve::encode_shard_ack({assign.shard_id}))) {
            break;
          }
          auto served = std::make_unique<ServedWork>();
          served->shard_id = assign.shard_id;
          served->kind = assign.kind;
          if (assign.kind == serve::ShardKind::kExplore) {
            start_explore(served.get(), assign.text, wake);
          } else {
            submit_campaigns(served.get(), assign.text, wake);
          }
          if (!opts_.quiet) {
            std::printf("serve      shard #%llu accepted (%s)\n",
                        static_cast<unsigned long long>(assign.shard_id),
                        assign.kind == serve::ShardKind::kExplore
                            ? "explore"
                            : "campaign");
            std::fflush(stdout);
          }
          queue.push_back(std::move(served));
          break;
        }
        case serve::FrameType::kShutdown:
          shutdown = true;
          shutdown_.store(true, std::memory_order_relaxed);
          break;
        default:
          // Server-direction frames from a confused client: ignore.
          break;
      }
    }
  }
  return shutdown;
}

void Worker::serve(util::Socket* listener) {
  // Thread-per-connection: concurrent drivers (two `clear fleet run`
  // clients sharing a worker) make progress simultaneously instead of
  // queueing behind the accept loop.
  struct ConnTask {
    std::thread thread;
    std::atomic<bool> finished{false};
  };
  std::vector<std::unique_ptr<ConnTask>> conns;

  while (!stopped() && !shutdown_.load(std::memory_order_relaxed)) {
    util::Socket sock = listener->accept(200);
    // Reap retired connection threads as we go.
    for (auto it = conns.begin(); it != conns.end();) {
      if ((*it)->finished.load(std::memory_order_acquire)) {
        (*it)->thread.join();
        it = conns.erase(it);
      } else {
        ++it;
      }
    }
    if (!sock.valid()) continue;  // timeout or transient accept error
    serve::FrameConn conn(std::move(sock));
    auto task = std::make_unique<ConnTask>();
    ConnTask* raw = task.get();
    task->thread = std::thread([this, raw, c = std::move(conn)]() mutable {
      handle_connection(std::move(c));
      raw->finished.store(true, std::memory_order_release);
    });
    conns.push_back(std::move(task));
  }
  // Clean join: every connection observes the stop flag or the shutdown,
  // cancels its in-flight work, drains and exits.
  for (auto& task : conns) task->thread.join();
}

}  // namespace clear::fleet
