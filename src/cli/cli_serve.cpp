// `clear serve` / `clear submit`: the shard-worker daemon and its driver
// client.
//
//   clear serve   accept job requests (multi-campaign manifests in the
//                 `clear run --spec` grammar) and fleet shard assignments
//                 over a local socket, run them on the process-wide
//                 execution engine, stream progress events and heartbeats,
//                 and return each campaign's result as `.csr` wire bytes
//                 (or a `.cxl` ledger for explore shards) -- the run ->
//                 scp -> merge workflow as a live worker a driver keeps
//                 saturated.  Each connection is serviced on its own
//                 thread, so concurrent drivers make progress
//                 simultaneously; `--workers N` fans out N child daemons
//                 for whole-machine fleets.
//   clear submit  connect to a daemon, ship one manifest, stream its
//                 progress, and write the returned .csr files -- ready
//                 for `clear merge` exactly as if `clear run` had
//                 written them locally (byte-identical, enforced by the
//                 loopback e2e test).
//
// Protocol: engine/protocol.h; framing bytes in docs/FORMATS.md; flags
// in docs/CONFIG.md.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "cli/cli.h"
#include "plan/runplan.h"
#include "engine/engine.h"
#include "engine/protocol.h"
#include "explore/explore.h"
#include "explore/ledger.h"
#include "fleet/fleet.h"
#include "inject/wire.h"
#include "obs/metrics.h"
#include "util/args.h"
#include "util/env.h"
#include "util/fs.h"
#include "util/socket.h"
#include "util/threadpool.h"

namespace clear::cli {

namespace {

// Written by the signal handler on whichever thread the kernel picks,
// read by the accept loop and every connection thread: must be a
// lock-free atomic, not volatile sig_atomic_t (that idiom is only safe
// in single-threaded programs; TSan flags it in the thread-per-
// connection daemon, and the store could genuinely be torn or deferred
// on weaker memory models).  Relaxed is enough: the poll loops only
// need eventual visibility, joins provide all other ordering.
std::atomic<int> g_stop{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "signal handler requires a lock-free atomic");
void on_signal(int) { g_stop.store(1, std::memory_order_relaxed); }

// Set when any connection receives kShutdown: the accept loop stops, and
// idle sibling connections drain instead of holding the daemon open.
std::atomic<bool> g_shutdown{false};

std::string default_worker_name() {
  char host[256] = "worker";
  if (::gethostname(host, sizeof(host)) != 0) {
    std::strcpy(host, "worker");
  }
  host[sizeof(host) - 1] = '\0';
  return std::string(host) + ":" + std::to_string(::getpid());
}

serve::Hello server_hello(const std::string& name) {
  serve::Hello h;
  h.proto_version = serve::kProtoVersion;
  h.wire_version = inject::kWireVersion;
  h.ledger_version = explore::kLedgerVersion;
  h.capacity = util::ThreadPool::instance().size();
  h.name = name;
  return h;
}

// The daemon bounds every send: a client that stops draining its socket
// for this long is treated as gone (its jobs are cancelled) instead of
// wedging the worker in an uninterruptible ::send().  The client side
// sends unbounded -- its frames are small and the daemon always reads.
constexpr int kServerSendTimeoutMs = 30'000;

bool send_frame(util::Socket* sock, serve::FrameType type,
                const std::string& payload, int timeout_ms = -1) {
  const std::string bytes = serve::encode_frame(type, payload);
  return sock->send_all(bytes.data(), bytes.size(), timeout_ms);
}

// ---- server ----------------------------------------------------------------

// One submitted work item: a kJob manifest or a kShardAssign shard.  The
// resolved plans are the stable storage the engine job's spec pointers
// alias; explore shards run on a dedicated thread because
// run_exploration blocks (the connection loop must keep pumping
// heartbeats and steal frames meanwhile).  Destruction cancels and joins
// unfinished work before the plans go away.  A request refused before
// submission (bad manifest, engine backpressure) still occupies a queue
// slot so its kDone is delivered in request order -- a pipelining driver
// matches done frames to requests by position.
struct ServedWork {
  // Shard bookkeeping (kShardAssign only).
  bool is_shard = false;
  std::uint64_t shard_id = 0;
  serve::ShardKind kind = serve::ShardKind::kCampaign;
  // kSteal honoured: retire silently -- the driver was promised no kDone.
  bool revoked = false;

  // Campaign path (kJob, or kShardAssign/kCampaign).
  std::vector<plan::RunPlan> plans;
  engine::Job job;

  // Explore path (kShardAssign/kExplore).
  std::thread explore_thread;
  std::atomic<bool> explore_done{false};
  std::atomic<bool> explore_cancel{false};
  std::atomic<std::uint64_t> explore_combos_total{0};
  std::atomic<std::uint64_t> explore_combos_done{0};
  std::string explore_result;  // encoded .cxl on success
  std::string explore_error;
  bool explore_bad_request = false;
  bool explore_was_cancelled = false;

  bool refused = false;
  serve::Done refusal;

  [[nodiscard]] bool is_explore() const {
    return is_shard && kind == serve::ShardKind::kExplore;
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

void start_explore(ServedWork* work, std::string text) {
  work->explore_thread = std::thread([work, text = std::move(text)] {
    try {
      work->explore_result = fleet::run_explore_stanza(
          text, &work->explore_cancel, [work](const explore::Progress& p) {
            work->explore_combos_total.store(p.pending,
                                             std::memory_order_relaxed);
            work->explore_combos_done.store(p.done, std::memory_order_relaxed);
          });
    } catch (const explore::ExploreCancelled&) {
      work->explore_was_cancelled = true;
    } catch (const std::invalid_argument& e) {
      work->explore_bad_request = true;
      work->explore_error = e.what();
    } catch (const std::exception& e) {
      work->explore_error = e.what();
    } catch (...) {
      work->explore_error = "unknown exploration error";
    }
    work->explore_done.store(true, std::memory_order_release);
  });
}

bool progress_equal(const engine::JobProgress& a,
                    const engine::JobProgress& b) {
  return a.state == b.state && a.goldens_done == b.goldens_done &&
         a.goldens_total == b.goldens_total &&
         a.samples_done == b.samples_done &&
         a.samples_total == b.samples_total;
}

// The progress snapshot for the front work item: the engine's for
// campaign jobs, a synthesized combos-done/total one for explore shards.
engine::JobProgress front_progress(ServedWork* front) {
  if (!front->is_explore()) return front->job.progress();
  engine::JobProgress p;
  p.state = front->explore_done.load(std::memory_order_acquire)
                ? engine::JobState::kDone
                : engine::JobState::kRunning;
  p.samples_done = front->explore_combos_done.load(std::memory_order_relaxed);
  p.samples_total =
      front->explore_combos_total.load(std::memory_order_relaxed);
  return p;
}

// Resolves a campaign manifest and submits it to the engine; on any
// refusal the work item carries the kBadRequest instead.
void submit_campaigns(ServedWork* served, const std::string& manifest,
                      engine::JobPriority priority) {
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
      served->job = engine::Engine::instance().submit(std::move(specs),
                                                      priority);
      return;
    } catch (const std::exception& e) {
      // Engine backpressure (CLEAR_ENGINE_QUEUE_MAX): refuse THIS
      // request; the daemon and its other work live on.
      error = std::string("clear serve: ") + e.what();
    }
  }
  served->refused = true;
  served->refusal.outcome = serve::JobOutcome::kBadRequest;
  served->refusal.message = error;
}

// Services one connection (one thread per connection; `clear submit`
// drivers and fleet drivers share the daemon).  Returns true when the
// client requested a daemon shutdown.
bool handle_connection(util::Socket conn, const serve::Hello& hello,
                       bool quiet, int progress_ms, int heartbeat_ms) {
  if (!send_frame(&conn, serve::FrameType::kHello,
                  serve::encode_hello(hello), kServerSendTimeoutMs)) {
    return false;
  }

  std::string buf;
  std::deque<std::unique_ptr<ServedWork>> queue;
  bool peer_gone = false;
  bool shutdown = false;
  engine::JobProgress last_sent;
  bool sent_any = false;
  auto last_sent_at = std::chrono::steady_clock::now();
  auto last_heartbeat_at = std::chrono::steady_clock::now();

  const auto cancel_all = [&queue] {
    for (auto& j : queue) j->cancel();
  };
  // The liveness beacon doubles as the telemetry channel: each heartbeat
  // carries this worker's metric snapshot so the fleet driver (and
  // `clear status`) see cache/latency/engine state without a side
  // channel.
  const auto send_heartbeat = [&] {
    if (!send_frame(&conn, serve::FrameType::kHeartbeat,
                    serve::encode_heartbeat(
                        static_cast<std::uint32_t>(queue.size()),
                        obs::encode_snapshot(obs::snapshot())),
                    kServerSendTimeoutMs)) {
      peer_gone = true;
      cancel_all();
    }
  };

  for (;;) {
    // SIGTERM/SIGINT: cancel in-flight work and drain -- the daemon must
    // exit promptly without persisting partial results, even mid-job.
    if (g_stop.load(std::memory_order_relaxed) != 0) {
      cancel_all();
      peer_gone = true;  // stop talking, drain cancelled work, exit
    }
    // ---- service the front work item ---------------------------------------
    if (!queue.empty() && queue.front()->refused) {
      if (!peer_gone &&
          !send_frame(&conn, serve::FrameType::kDone,
                      serve::encode_done(queue.front()->refusal),
                      kServerSendTimeoutMs)) {
        peer_gone = true;
        cancel_all();
      }
      queue.pop_front();
      continue;
    }
    if (!queue.empty()) {
      ServedWork& front = *queue.front();
      const engine::JobProgress p = front_progress(&front);
      const auto now = std::chrono::steady_clock::now();
      if (!peer_gone && !front.revoked &&
          (!sent_any || !progress_equal(p, last_sent)) &&
          now - last_sent_at >= std::chrono::milliseconds(progress_ms)) {
        if (!send_frame(&conn, serve::FrameType::kProgress,
                        serve::encode_progress(p), kServerSendTimeoutMs)) {
          peer_gone = true;
          cancel_all();
        }
        last_sent = p;
        sent_any = true;
        last_sent_at = now;
      }
      if (front.finished()) {
        if (front.revoked) {
          // Stolen: the driver re-dispatched it elsewhere and was
          // promised silence.  Retire without frames.
          queue.pop_front();
          sent_any = false;
          continue;
        }
        if (!peer_gone) {
          serve::Done done;
          if (front.is_explore()) {
            send_frame(&conn, serve::FrameType::kProgress,
                       serve::encode_progress(front_progress(&front)),
                       kServerSendTimeoutMs);
            if (front.explore_was_cancelled) {
              done.outcome = serve::JobOutcome::kCancelled;
              done.message = "exploration cancelled";
            } else if (front.explore_bad_request) {
              done.outcome = serve::JobOutcome::kBadRequest;
              done.message = front.explore_error;
            } else if (!front.explore_error.empty()) {
              done.outcome = serve::JobOutcome::kFailed;
              done.message = front.explore_error;
            } else {
              send_frame(&conn, serve::FrameType::kResult,
                         serve::encode_result(0, front.explore_result),
                         kServerSendTimeoutMs);
              done.outcome = serve::JobOutcome::kOk;
            }
          } else {
            const engine::JobState state = front.job.state();
            // Final snapshot, then the payload frames.
            send_frame(&conn, serve::FrameType::kProgress,
                       serve::encode_progress(front.job.progress()),
                       kServerSendTimeoutMs);
            if (state == engine::JobState::kDone) {
              const auto& results = front.job.results();
              for (std::size_t i = 0; i < results.size(); ++i) {
                const inject::ShardFile shard =
                    plan::plan_shard_file(front.plans[i], results[i]);
                send_frame(
                    &conn, serve::FrameType::kResult,
                    serve::encode_result(static_cast<std::uint32_t>(i),
                                         inject::encode_shard(shard)),
                    kServerSendTimeoutMs);
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
          if (!send_frame(&conn, serve::FrameType::kDone,
                          serve::encode_done(done), kServerSendTimeoutMs)) {
            peer_gone = true;
            cancel_all();
          }
          if (!quiet) {
            std::printf("serve      %s finished: %s\n",
                        front.is_shard ? "shard" : "job",
                        serve::job_outcome_name(done.outcome));
            std::fflush(stdout);
          }
        }
        queue.pop_front();
        sent_any = false;
        continue;  // next work item may already be terminal
      }
    }

    // ---- heartbeat ----------------------------------------------------------
    if (!peer_gone && heartbeat_ms > 0) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_heartbeat_at >= std::chrono::milliseconds(heartbeat_ms)) {
        send_heartbeat();
        last_heartbeat_at = now;
      }
    }

    // ---- exit conditions ----------------------------------------------------
    if (queue.empty()) {
      if (peer_gone) {
        // A failed send (e.g. a heartbeat racing the driver's close)
        // set peer_gone, but a shutdown frame may already sit in the
        // kernel buffer or in buf: the driver sends kShutdown and
        // closes in one motion.  Drain without blocking and honour it,
        // otherwise the daemon outlives the fleet that owned it.
        while (conn.readable(0)) {
          char chunk[4096];
          const long n = conn.recv_some(chunk, sizeof(chunk));
          if (n <= 0) break;
          buf.append(chunk, static_cast<std::size_t>(n));
        }
        serve::Frame frame;
        while (serve::decode_frame(&buf, &frame) == serve::FrameStatus::kOk) {
          if (frame.type == serve::FrameType::kShutdown) {
            g_shutdown.store(true, std::memory_order_relaxed);
          }
        }
        break;
      }
      if (shutdown && buf.empty()) {
        // One last heartbeat before closing: the driver keeps each
        // worker's latest snapshot, so work finished since the previous
        // beat would otherwise be missing from its merged metrics.
        if (heartbeat_ms > 0) send_heartbeat();
        break;
      }
      // A sibling connection shut the daemon down: drain instead of
      // keeping the accept loop's join waiting on an idle client.
      if (g_shutdown.load(std::memory_order_relaxed) && buf.empty()) break;
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
    if (!conn.readable(20)) continue;
    char chunk[4096];
    const long n = conn.recv_some(chunk, sizeof(chunk));
    if (n <= 0) {
      // Driver vanished: nobody will consume these results -- stop the
      // work instead of burning the worker on a dead connection.
      peer_gone = true;
      cancel_all();
      continue;
    }
    buf.append(chunk, static_cast<std::size_t>(n));

    for (;;) {
      serve::Frame frame;
      const serve::FrameStatus st = serve::decode_frame(&buf, &frame);
      if (st == serve::FrameStatus::kNeedMore) break;
      if (st == serve::FrameStatus::kBad) {
        std::fprintf(stderr, "clear serve: protocol error, dropping "
                             "connection\n");
        peer_gone = true;
        cancel_all();
        break;
      }
      switch (frame.type) {
        case serve::FrameType::kJob: {
          serve::JobRequest req;
          auto served = std::make_unique<ServedWork>();
          if (!serve::decode_job(frame.payload, &req)) {
            served->refused = true;
            served->refusal.outcome = serve::JobOutcome::kBadRequest;
            served->refusal.message = "clear serve: malformed job frame";
            queue.push_back(std::move(served));
            break;
          }
          submit_campaigns(served.get(), req.manifest, req.priority);
          if (!quiet && !served->refused) {
            std::printf("serve      job #%llu accepted: %zu campaigns "
                        "(%s lane)\n",
                        static_cast<unsigned long long>(served->job.id()),
                        served->plans.size(),
                        req.priority == engine::JobPriority::kBulk
                            ? "bulk"
                            : "interactive");
            std::fflush(stdout);
          }
          queue.push_back(std::move(served));
          break;
        }
        case serve::FrameType::kShardAssign: {
          serve::ShardAssign assign;
          if (!serve::decode_shard_assign(frame.payload, &assign)) {
            std::fprintf(stderr,
                         "clear serve: malformed shard-assign frame\n");
            peer_gone = true;
            cancel_all();
            break;
          }
          // Ack immediately: the driver's ack deadline measures whether
          // this worker is responsive, not how long the shard takes.
          serve::ShardAck ack;
          ack.shard_id = assign.shard_id;
          ack.status = serve::ShardAckStatus::kAccepted;
          if (!send_frame(&conn, serve::FrameType::kShardAck,
                          serve::encode_shard_ack(ack),
                          kServerSendTimeoutMs)) {
            peer_gone = true;
            cancel_all();
            break;
          }
          auto served = std::make_unique<ServedWork>();
          served->is_shard = true;
          served->shard_id = assign.shard_id;
          served->kind = assign.kind;
          if (assign.kind == serve::ShardKind::kExplore) {
            start_explore(served.get(), assign.text);
          } else {
            submit_campaigns(served.get(), assign.text, assign.priority);
          }
          if (!quiet) {
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
        case serve::FrameType::kSteal: {
          std::uint64_t shard_id = 0;
          if (!serve::decode_steal(frame.payload, &shard_id)) {
            std::fprintf(stderr, "clear serve: malformed steal frame\n");
            peer_gone = true;
            cancel_all();
            break;
          }
          serve::ShardAck ack;
          ack.shard_id = shard_id;
          ack.status = serve::ShardAckStatus::kUnknown;
          for (auto& work : queue) {
            if (work->is_shard && work->shard_id == shard_id &&
                !work->revoked) {
              // Revoke: cancel the execution and promise the driver no
              // kDone -- it is free to re-dispatch immediately.
              work->revoked = true;
              work->cancel();
              ack.status = serve::ShardAckStatus::kRevoked;
              break;
            }
          }
          if (!send_frame(&conn, serve::FrameType::kShardAck,
                          serve::encode_shard_ack(ack),
                          kServerSendTimeoutMs)) {
            peer_gone = true;
            cancel_all();
          }
          break;
        }
        case serve::FrameType::kCancel:
          if (!queue.empty()) queue.front()->cancel();
          break;
        case serve::FrameType::kShutdown:
          shutdown = true;
          g_shutdown.store(true, std::memory_order_relaxed);
          break;
        default:
          // Server-direction frames from a confused client: ignore.
          break;
      }
      if (peer_gone) break;
    }
  }
  return shutdown;
}

// ---- `clear serve --workers N` child fan-out -------------------------------

// Forks N child daemons, each exec'd from /proc/self/exe with its own
// socket (path.i / port+i) and identity (name#i), then reaps them,
// forwarding SIGTERM/SIGINT.  Children are full processes: a fleet test
// can SIGKILL one without touching its siblings, and each child's argv
// names its socket (pkill-able).
int serve_fanout(int workers, bool have_socket, const std::string& base_path,
                 std::uint16_t base_port, std::uint64_t progress_ms,
                 std::uint64_t heartbeat_ms, const std::string& base_name,
                 bool quiet) {
  char exe[4096];
  const ssize_t exe_len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (exe_len <= 0) {
    std::fprintf(stderr, "clear serve: cannot resolve /proc/self/exe\n");
    return 1;
  }
  exe[exe_len] = '\0';

  std::vector<pid_t> pids;
  for (int i = 0; i < workers; ++i) {
    std::vector<std::string> argv_store = {exe, "serve"};
    if (have_socket) {
      argv_store.push_back("--socket");
      argv_store.push_back(base_path + "." + std::to_string(i));
    } else {
      argv_store.push_back("--port");
      argv_store.push_back(std::to_string(base_port + i));
    }
    argv_store.push_back("--progress-ms");
    argv_store.push_back(std::to_string(progress_ms));
    argv_store.push_back("--heartbeat-ms");
    argv_store.push_back(std::to_string(heartbeat_ms));
    argv_store.push_back("--name");
    argv_store.push_back(base_name + "#" + std::to_string(i));
    if (quiet) argv_store.push_back("--quiet");

    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "clear serve: fork failed\n");
      for (const pid_t p : pids) ::kill(p, SIGTERM);
      for (const pid_t p : pids) ::waitpid(p, nullptr, 0);
      return 1;
    }
    if (pid == 0) {
      std::vector<char*> argv;
      argv.reserve(argv_store.size() + 1);
      for (std::string& s : argv_store) argv.push_back(s.data());
      argv.push_back(nullptr);
      ::execv(exe, argv.data());
      std::fprintf(stderr, "clear serve: exec failed\n");
      ::_exit(127);
    }
    pids.push_back(pid);
  }
  if (!quiet) {
    std::printf("serve      fanned out %d workers (%s base %s)\n", workers,
                have_socket ? "socket" : "port",
                have_socket ? base_path.c_str()
                            : std::to_string(base_port).c_str());
    std::fflush(stdout);
  }

  std::size_t live = pids.size();
  bool forwarded = false;
  while (live > 0) {
    if (g_stop.load(std::memory_order_relaxed) != 0 && !forwarded) {
      for (const pid_t p : pids) ::kill(p, SIGTERM);
      forwarded = true;
    }
    int status = 0;
    const pid_t r = ::waitpid(-1, &status, WNOHANG);
    if (r > 0) {
      --live;
      continue;
    }
    if (r < 0 && errno == ECHILD) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (!quiet) std::printf("serve      all workers exited\n");
  return 0;
}

// ---- client helpers --------------------------------------------------------

// Reads frames until one arrives; false on EOF/protocol error.
bool recv_frame(util::Socket* sock, std::string* buf, serve::Frame* out,
                std::string* error) {
  for (;;) {
    const serve::FrameStatus st = serve::decode_frame(buf, out);
    if (st == serve::FrameStatus::kOk) return true;
    if (st == serve::FrameStatus::kBad) {
      *error = "protocol error (bad frame)";
      return false;
    }
    char chunk[4096];
    const long n = sock->recv_some(chunk, sizeof(chunk));
    if (n <= 0) {
      *error = "connection closed by server";
      return false;
    }
    buf->append(chunk, static_cast<std::size_t>(n));
  }
}

// Deadline-bounded recv_frame: a server that accepted the connection but
// never speaks (wedged daemon, wrong service on the port) must not hang
// the client forever.
bool recv_frame_deadline(util::Socket* sock, std::string* buf,
                         serve::Frame* out, int timeout_ms,
                         std::string* error) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const serve::FrameStatus st = serve::decode_frame(buf, out);
    if (st == serve::FrameStatus::kOk) return true;
    if (st == serve::FrameStatus::kBad) {
      *error = "protocol error (bad frame)";
      return false;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      *error = "timed out after " + std::to_string(timeout_ms) + " ms";
      return false;
    }
    if (!sock->readable(static_cast<int>(
            std::min<long long>(left.count(), 100)))) {
      continue;
    }
    char chunk[4096];
    const long n = sock->recv_some(chunk, sizeof(chunk));
    if (n <= 0) {
      *error = "connection closed by server";
      return false;
    }
    buf->append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace

int cmd_serve(int argc, const char* const* argv) {
  util::ArgParser args(
      "clear serve (--socket <path> | --port <N>) [options]",
      "Runs a shard-worker daemon: accepts multi-campaign manifests (the\n"
      "'clear run --spec' grammar) and fleet shard assignments over a\n"
      "local stream socket, executes them on the process-wide job engine,\n"
      "streams progress events and heartbeats, and returns each\n"
      "campaign's .csr wire bytes (or a .cxl ledger for explore shards).\n"
      "Each connection is serviced on its own thread; 'clear submit' and\n"
      "'clear fleet' are the matching drivers.");
  args.add_option("socket", "path", "listen on a UNIX stream socket");
  args.add_option("port", "N", "listen on 127.0.0.1:N instead");
  args.add_flag("once", "serve exactly one connection, then exit");
  args.add_option("progress-ms", "N",
                  "min milliseconds between progress frames", "100");
  args.add_option("heartbeat-ms", "N",
                  "milliseconds between heartbeat frames (0 = off)", "1000");
  args.add_option("name", "id",
                  "worker identity in the hello (default host:pid)");
  args.add_option("workers", "N",
                  "fan out N child daemons on socket path.0..N-1 (or\n"
                  "port..port+N-1) and reap them", "0");
  args.add_flag("quiet", "suppress per-job log lines");

  std::string error;
  if (!args.parse(argc, argv, &error)) {
    std::fprintf(stderr, "clear serve: %s\n%s", error.c_str(),
                 args.help().c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fputs(args.help().c_str(), stdout);
    return 0;
  }
  const bool have_socket = args.has("socket");
  const bool have_port = args.has("port");
  if (have_socket == have_port) {
    std::fprintf(stderr,
                 "clear serve: exactly one of --socket or --port required\n%s",
                 args.help().c_str());
    return 2;
  }
  std::uint64_t port = 0, progress_ms = 100, heartbeat_ms = 1000, workers = 0;
  if (!args.get_u64("port", 0, &port) || port > 65535 ||
      !args.get_u64("progress-ms", 100, &progress_ms) ||
      !args.get_u64("heartbeat-ms", 1000, &heartbeat_ms) ||
      !args.get_u64("workers", 0, &workers) || workers > 1024) {
    std::fprintf(stderr, "clear serve: bad numeric flag value\n");
    return 2;
  }
  const bool quiet = args.has("quiet");
  const std::string name =
      args.has("name") ? args.get("name") : default_worker_name();

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  if (workers > 0) {
    if (workers > 0 && have_port && port + workers - 1 > 65535) {
      std::fprintf(stderr, "clear serve: --workers runs past port 65535\n");
      return 2;
    }
    return serve_fanout(static_cast<int>(workers), have_socket,
                        args.get("socket"),
                        static_cast<std::uint16_t>(port), progress_ms,
                        heartbeat_ms, name, quiet);
  }

  util::Socket listener;
  try {
    listener = have_socket
                   ? util::Socket::listen_unix(args.get("socket"))
                   : util::Socket::listen_tcp_loopback(
                         static_cast<std::uint16_t>(port));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "clear serve: %s\n", e.what());
    return 1;
  }
  if (!quiet) {
    if (have_socket) {
      std::printf("serve      listening on %s (worker '%s')\n",
                  args.get("socket").c_str(), name.c_str());
    } else {
      std::printf("serve      listening on 127.0.0.1:%llu (worker '%s')\n",
                  static_cast<unsigned long long>(port), name.c_str());
    }
    std::fflush(stdout);
  }
  const serve::Hello hello = server_hello(name);
  g_shutdown.store(false, std::memory_order_relaxed);

  // Thread-per-connection: concurrent drivers (two `clear submit`
  // clients, a fleet driver plus an interactive submit) make progress
  // simultaneously instead of queueing behind the accept loop.
  struct ConnTask {
    std::thread thread;
    std::atomic<bool> finished{false};
  };
  std::vector<std::unique_ptr<ConnTask>> conns;

  while (g_stop.load(std::memory_order_relaxed) == 0 &&
         !g_shutdown.load(std::memory_order_relaxed)) {
    util::Socket conn = listener.accept(200);
    // Reap retired connection threads as we go.
    for (auto it = conns.begin(); it != conns.end();) {
      if ((*it)->finished.load(std::memory_order_acquire)) {
        (*it)->thread.join();
        it = conns.erase(it);
      } else {
        ++it;
      }
    }
    if (!conn.valid()) continue;  // timeout or transient accept error
    if (args.has("once")) {
      handle_connection(std::move(conn), hello, quiet,
                        static_cast<int>(progress_ms),
                        static_cast<int>(heartbeat_ms));
      break;
    }
    auto task = std::make_unique<ConnTask>();
    ConnTask* raw = task.get();
    task->thread = std::thread(
        [raw, hello, quiet, progress_ms, heartbeat_ms,
         c = std::move(conn)]() mutable {
          handle_connection(std::move(c), hello, quiet,
                            static_cast<int>(progress_ms),
                            static_cast<int>(heartbeat_ms));
          raw->finished.store(true, std::memory_order_release);
        });
    conns.push_back(std::move(task));
  }
  // Clean join: every connection observes g_stop/g_shutdown, cancels its
  // in-flight work, drains and exits.
  for (auto& task : conns) task->thread.join();
  listener.close();
  if (have_socket) std::remove(args.get("socket").c_str());
  if (!quiet) std::printf("serve      exiting\n");
  return 0;
}

int cmd_submit(int argc, const char* const* argv) {
  util::ArgParser args(
      "clear submit (--socket <path> | --port <N>) --spec <file> [options]",
      "Submits a campaign manifest (the 'clear run --spec' grammar) to a\n"
      "'clear serve' worker, streams its progress, and writes the\n"
      "returned shard results as .csr files -- byte-identical to what\n"
      "'clear run --out' would have written locally.");
  args.add_option("socket", "path", "connect to a UNIX stream socket");
  args.add_option("port", "N", "connect to 127.0.0.1:N instead");
  args.add_option("spec", "file", "manifest to submit (required)");
  args.add_option("out-dir", "dir",
                  "write campaign<i>.csr results here", ".");
  args.add_option("priority", "interactive|bulk", "engine scheduling lane",
                  "interactive");
  args.add_option("connect-retry-ms", "N",
                  "retry a refused connection this long (daemon startup)",
                  "5000");
  args.add_option("hello-timeout-ms", "N",
                  "give up when the server's hello takes longer than this",
                  "10000");
  args.add_option("cancel-after", "N",
                  "send a cancel after N progress frames (0 = never)", "0");
  args.add_flag("shutdown", "ask the daemon to exit after this connection");
  args.add_flag("quiet", "suppress progress lines");

  std::string error;
  if (!args.parse(argc, argv, &error)) {
    std::fprintf(stderr, "clear submit: %s\n%s", error.c_str(),
                 args.help().c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fputs(args.help().c_str(), stdout);
    return 0;
  }
  const bool have_socket = args.has("socket");
  const bool have_port = args.has("port");
  if (have_socket == have_port) {
    std::fprintf(stderr,
                 "clear submit: exactly one of --socket or --port "
                 "required\n%s",
                 args.help().c_str());
    return 2;
  }
  if (!args.has("spec")) {
    std::fprintf(stderr, "clear submit: --spec is required\n%s",
                 args.help().c_str());
    return 2;
  }
  const std::string priority_text = args.get("priority");
  engine::JobPriority priority = engine::JobPriority::kInteractive;
  if (priority_text == "bulk") priority = engine::JobPriority::kBulk;
  else if (priority_text != "interactive") {
    std::fprintf(stderr, "clear submit: bad --priority '%s'\n",
                 priority_text.c_str());
    return 2;
  }
  std::uint64_t port = 0, retry_ms = 5000, hello_ms = 10000, cancel_after = 0;
  if (!args.get_u64("port", 0, &port) || port > 65535 ||
      !args.get_u64("connect-retry-ms", 5000, &retry_ms) ||
      !args.get_u64("hello-timeout-ms", 10000, &hello_ms) || hello_ms == 0 ||
      !args.get_u64("cancel-after", 0, &cancel_after)) {
    std::fprintf(stderr, "clear submit: bad numeric flag value\n");
    return 2;
  }
  const bool quiet = args.has("quiet");

  std::ifstream spec_in(args.get("spec"), std::ios::binary);
  if (!spec_in) {
    std::fprintf(stderr, "clear submit: cannot read spec file '%s'\n",
                 args.get("spec").c_str());
    return 1;
  }
  std::ostringstream manifest;
  manifest << spec_in.rdbuf();

  util::Socket sock;
  try {
    // connect_* retries ECONNREFUSED/ENOENT with exponential backoff up
    // to the budget: a daemon still binding its socket is a race, not an
    // error.
    sock = have_socket
               ? util::Socket::connect_unix(args.get("socket"),
                                            static_cast<int>(retry_ms))
               : util::Socket::connect_tcp_loopback(
                     static_cast<std::uint16_t>(port),
                     static_cast<int>(retry_ms));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "clear submit: %s\n", e.what());
    return 1;
  }

  std::string buf;
  serve::Frame frame;
  if (!recv_frame_deadline(&sock, &buf, &frame, static_cast<int>(hello_ms),
                           &error) ||
      frame.type != serve::FrameType::kHello) {
    std::fprintf(stderr, "clear submit: no hello from server (%s)\n",
                 error.c_str());
    return 1;
  }
  serve::Hello hello;
  if (!serve::decode_hello(frame.payload, &hello) ||
      hello.proto_version != serve::kProtoVersion) {
    std::fprintf(stderr,
                 "clear submit: unsupported server protocol (want v%u)\n",
                 serve::kProtoVersion);
    return 1;
  }
  if (hello.wire_version != inject::kWireVersion) {
    std::fprintf(stderr,
                 "clear submit: server speaks .csr v%u, this binary v%u -- "
                 "results would not merge; upgrade one side\n",
                 hello.wire_version, inject::kWireVersion);
    return 1;
  }

  serve::JobRequest req;
  req.priority = priority;
  req.manifest = manifest.str();
  if (!send_frame(&sock, serve::FrameType::kJob, serve::encode_job(req))) {
    std::fprintf(stderr, "clear submit: send failed\n");
    return 1;
  }
  if (args.has("shutdown")) {
    send_frame(&sock, serve::FrameType::kShutdown, "");
  }

  std::vector<std::pair<std::uint32_t, std::string>> results;
  serve::Done done;
  std::uint64_t progress_frames = 0;
  bool cancel_sent = false;
  for (;;) {
    if (!recv_frame(&sock, &buf, &frame, &error)) {
      std::fprintf(stderr, "clear submit: %s\n", error.c_str());
      return 1;
    }
    if (frame.type == serve::FrameType::kProgress) {
      engine::JobProgress p;
      if (serve::decode_progress(frame.payload, &p) && !quiet) {
        std::printf("progress   %s: goldens %llu/%llu, samples %llu/%llu\n",
                    engine::job_state_name(p.state),
                    static_cast<unsigned long long>(p.goldens_done),
                    static_cast<unsigned long long>(p.goldens_total),
                    static_cast<unsigned long long>(p.samples_done),
                    static_cast<unsigned long long>(p.samples_total));
        std::fflush(stdout);
      }
      ++progress_frames;
      if (cancel_after != 0 && !cancel_sent &&
          progress_frames >= cancel_after) {
        send_frame(&sock, serve::FrameType::kCancel, "");
        cancel_sent = true;
      }
    } else if (frame.type == serve::FrameType::kResult) {
      std::uint32_t index = 0;
      std::string csr;
      if (!serve::decode_result(frame.payload, &index, &csr)) {
        std::fprintf(stderr, "clear submit: malformed result frame\n");
        return 1;
      }
      results.emplace_back(index, std::move(csr));
    } else if (frame.type == serve::FrameType::kDone) {
      if (!serve::decode_done(frame.payload, &done)) {
        std::fprintf(stderr, "clear submit: malformed done frame\n");
        return 1;
      }
      break;
    }  // other frame types (heartbeats included): ignore
  }

  if (done.outcome == serve::JobOutcome::kCancelled && cancel_sent) {
    std::printf("job cancelled on request (%llu progress frames seen)\n",
                static_cast<unsigned long long>(progress_frames));
    return 0;
  }
  if (done.outcome != serve::JobOutcome::kOk) {
    std::fprintf(stderr, "clear submit: job %s: %s\n",
                 serve::job_outcome_name(done.outcome), done.message.c_str());
    return 1;
  }

  const std::string out_dir = args.get("out-dir");
  if (!util::ensure_dir(out_dir)) {
    std::fprintf(stderr, "clear submit: cannot create out dir '%s'\n",
                 out_dir.c_str());
    return 1;
  }
  for (const auto& [index, csr] : results) {
    // Validate before writing: a checksum-clean decode proves the bytes
    // survived the stream intact.
    inject::ShardFile shard;
    if (inject::decode_shard(csr, &shard) != inject::WireStatus::kOk) {
      std::fprintf(stderr, "clear submit: result #%u failed .csr decode\n",
                   index);
      return 1;
    }
    const std::string path =
        out_dir + "/campaign" + std::to_string(index) + ".csr";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(csr.data(), static_cast<std::streamsize>(csr.size()));
    if (!out.flush()) {
      std::fprintf(stderr, "clear submit: cannot write %s\n", path.c_str());
      return 1;
    }
    if (!quiet) {
      std::printf("wrote %s (%llu samples, key=%s)\n", path.c_str(),
                  static_cast<unsigned long long>(shard.result.totals.total()),
                  shard.key.c_str());
    }
  }
  return 0;
}

}  // namespace clear::cli
