// Fleet orchestrator tests: protocol codecs (hello identity, shard
// assign/ack, heartbeat) with bit-flip refusal, the hello handshake
// (every fault named, a skewed worker reported dead), endpoint grammar
// and @N fan-out expansion, shard builders (campaign manifest sharding,
// explore stanza round-trip, forbidden-flag refusal, duplicate shard
// ids), worker-side explore execution + cancellation, the worker's
// connection handler driven in-process over a socketpair (including the
// retired steal frame dropping the connection, and the stanzas only a
// worker refuses answered by name without simulating), a live worker
// keeping a shard it acks late, `clear fleet run` failing on a shard that
// comes back short, and the multi-process end-to-ends of the acceptance
// criteria: a worker SIGKILLed mid-shard -- also while
// holding two shards -- whose shards are redispatched and whose merged
// bytes still equal the single-machine merge, the level-by-level
// two-deep dispatch order, `clear fleet run`'s running
// merge against `clear merge` of the same partition, `clear fleet
// explore`'s running ledger against `clear explore merge`, `clear serve
// --workers N` fan-out driven as a fleet, two concurrent drivers against
// one daemon, the hello deadline against a silent server, --shutdown
// stopping a daemon whose manifest the driver refused, the driver giving
// up on a SIGSTOPped daemon, and SIGTERM draining an in-flight daemon.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "engine/protocol.h"
#include "explore/explore.h"
#include "explore/ledger.h"
#include "fleet/fleet.h"
#include "fleet/status.h"
#include "fleet/worker.h"
#include "inject/wire.h"
#include "obs/metrics.h"
#include "util/socket.h"
#include "merge_lists.h"

namespace {

using namespace clear;
using namespace std::chrono_literals;

const std::string kBin = CLEAR_CLI_BIN;
const std::string kDir = "fleet_e2e";

class FleetEnv : public ::testing::Environment {
 public:
  void SetUp() override {
    std::filesystem::remove_all(kDir);
    std::filesystem::create_directories(kDir);
  }
};
const ::testing::Environment* const kEnv =
    ::testing::AddGlobalTestEnvironment(new FleetEnv);

// Runs a shell command, returns its exit status (-1 if it died on a
// signal).  Stdout routed to /dev/null to keep ctest logs tidy.
int sh(const std::string& cmd) {
  const int rc = std::system((cmd + " > /dev/null").c_str());
  if (rc == -1) return -1;
  if (WIFEXITED(rc)) return WEXITSTATUS(rc);
  return -1;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Forks + execs one `clear serve` daemon (stdio -> /dev/null) and returns
// its pid, so a test can SIGKILL exactly one worker of a fleet.  `env`
// entries ("NAME=value") are added to the daemon's environment through
// env(1), which execs in place: the pid stays the daemon's.
pid_t spawn_serve(const std::vector<std::string>& extra_args,
                  const std::vector<std::string>& env = {}) {
  std::vector<std::string> store;
  if (!env.empty()) {
    store.push_back("/usr/bin/env");
    store.insert(store.end(), env.begin(), env.end());
  }
  store.push_back(kBin);
  store.push_back("serve");
  store.insert(store.end(), extra_args.begin(), extra_args.end());
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int null_fd = ::open("/dev/null", O_RDWR);
  if (null_fd >= 0) {
    ::dup2(null_fd, STDIN_FILENO);
    ::dup2(null_fd, STDOUT_FILENO);
    ::dup2(null_fd, STDERR_FILENO);
    if (null_fd > STDERR_FILENO) ::close(null_fd);
  }
  std::vector<char*> argv;
  for (std::string& s : store) argv.push_back(s.data());
  argv.push_back(nullptr);
  ::execv(store.front().c_str(), argv.data());
  ::_exit(127);
}

// Reaps `pid`, polling up to `timeout`.  Returns the exit status (or -1
// for signal death / timeout, after a SIGKILL so no daemon outlives its
// test).
int reap(pid_t pid, std::chrono::milliseconds timeout = 15000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) {
      if (WIFEXITED(status)) return WEXITSTATUS(status);
      return -1;
    }
    if (r < 0) return -1;  // already reaped / not our child
    std::this_thread::sleep_for(20ms);
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  return -1;
}

void wait_for_file(const std::string& path) {
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!std::filesystem::exists(path) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
}

// ---- protocol v2 codecs ----------------------------------------------------

TEST(FleetProtocol, HelloCarriesWorkerIdentityAndCapacity) {
  serve::Hello h;
  h.wire_version = inject::kWireVersion;
  h.ledger_version = explore::kLedgerVersion;
  h.capacity = 12;
  h.name = "node07:4242#3";
  serve::Hello h2;
  ASSERT_TRUE(serve::decode_hello(serve::encode_hello(h), &h2));
  EXPECT_EQ(h2.proto_version, serve::kProtoVersion);
  EXPECT_EQ(h2.capacity, 12u);
  EXPECT_EQ(h2.name, "node07:4242#3");
}

TEST(FleetProtocol, FleetFrameCodecsRoundTrip) {
  serve::ShardAssign a;
  a.shard_id = 0x0123456789abcdefULL;
  a.kind = serve::ShardKind::kExplore;
  a.text = "--core InO --per-ff 1 --shard 3/8";
  serve::ShardAssign a2;
  ASSERT_TRUE(serve::decode_shard_assign(serve::encode_shard_assign(a), &a2));
  EXPECT_EQ(a2.shard_id, a.shard_id);
  EXPECT_EQ(a2.kind, serve::ShardKind::kExplore);
  EXPECT_EQ(a2.text, a.text);

  std::uint64_t acked = 0;
  const std::string ack = serve::encode_shard_ack(77);
  EXPECT_EQ(ack.size(), 8u);
  ASSERT_TRUE(serve::decode_shard_ack(ack, &acked));
  EXPECT_EQ(acked, 77u);
  // v5's ack carried a status byte after the id: refused since v6.
  EXPECT_FALSE(serve::decode_shard_ack(ack + std::string(1, '\0'), &acked));

  // A heartbeat carries its snapshot; v6's bare 4-byte heartbeat (no
  // snapshot document) is refused since v7.
  std::uint32_t inflight = 0;
  obs::Snapshot snap;
  const std::string beat = serve::encode_heartbeat(5, obs::Snapshot{});
  ASSERT_TRUE(serve::decode_heartbeat(beat, &inflight, &snap));
  EXPECT_EQ(inflight, 5u);
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_FALSE(serve::decode_heartbeat(beat.substr(0, 4), &inflight, &snap));

  // Truncated payloads are refused, never misparsed.
  EXPECT_FALSE(serve::decode_shard_assign("short", &a2));
  EXPECT_FALSE(serve::decode_shard_ack("1234", &acked));
  EXPECT_FALSE(serve::decode_heartbeat("12", &inflight, &snap));
}

TEST(FleetProtocol, BitFlippedShardAssignNeverDecodes) {
  serve::ShardAssign a;
  a.shard_id = 42;
  a.text = "--core InO --bench mcf --injections 240 --shard 0/4";
  const std::string good =
      serve::encode_frame(serve::FrameType::kShardAssign,
                          serve::encode_shard_assign(a));
  serve::Frame frame;
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bytes = good;
    bytes[i] = static_cast<char>(bytes[i] ^ 0x10);
    std::string buf = bytes;
    EXPECT_NE(serve::decode_frame(&buf, &frame), serve::FrameStatus::kOk)
        << "flip at byte " << i << " decoded as a valid frame";
  }
}

// ---- the hello handshake ---------------------------------------------------

// Runs read_hello on one end of a socketpair after `peer_bytes` were
// written to the other (then closed when `close_peer`).
fleet::HelloFault hello_fault_of(const std::string& peer_bytes,
                                 bool close_peer, std::string* why) {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  serve::FrameConn conn{util::Socket(fds[0])};
  util::Socket peer(fds[1]);
  EXPECT_TRUE(peer_bytes.empty() ||
              peer.send_all(peer_bytes.data(), peer_bytes.size()));
  if (close_peer) peer.close();
  serve::Hello hello;
  return fleet::read_hello(&conn, 100, &hello, why);
}

TEST(FleetHello, EveryFaultIsNamedAndExplained) {
  std::string why;
  const auto hello_frame = [](const serve::Hello& h) {
    return serve::encode_frame(serve::FrameType::kHello,
                               serve::encode_hello(h));
  };
  EXPECT_EQ(hello_fault_of(hello_frame(fleet::worker_hello("w")), false, &why),
            fleet::HelloFault::kNone);

  EXPECT_EQ(hello_fault_of("", false, &why), fleet::HelloFault::kNoHello);
  EXPECT_EQ(why, "no hello within 100 ms");
  EXPECT_EQ(hello_fault_of("", true, &why), fleet::HelloFault::kNoHello);

  std::string retired = serve::encode_frame(serve::FrameType::kShutdown, "");
  retired[0] = 2;  // v2's job frame type
  EXPECT_EQ(hello_fault_of(retired, false, &why),
            fleet::HelloFault::kBadStream);

  EXPECT_EQ(hello_fault_of(serve::encode_frame(serve::FrameType::kShardAck,
                                               serve::encode_shard_ack({})),
                           false, &why),
            fleet::HelloFault::kBadHello);
  EXPECT_EQ(why, "bad hello: first frame is a shard-ack frame");
  EXPECT_EQ(hello_fault_of(serve::encode_frame(serve::FrameType::kHello, "x"),
                           false, &why),
            fleet::HelloFault::kBadHello);

  // A v3 daemon (the last that answered steal frames), a v4 one (the last
  // whose shard-assign frames carried a priority byte), a v5 one (the
  // last that sent progress frames and an ack status byte), a v6 one (the
  // last whose heartbeats carried a binary snapshot tail), and a current
  // one with another .csr or .cxl version.
  for (int field = 0; field < 6; ++field) {
    serve::Hello skewed = fleet::worker_hello("old");
    if (field == 0) skewed.proto_version = 3;
    if (field == 1) skewed.proto_version = 4;
    if (field == 2) skewed.proto_version = 5;
    if (field == 3) skewed.proto_version = 6;
    if (field == 4) skewed.wire_version += 1;
    if (field == 5) skewed.ledger_version += 1;
    EXPECT_EQ(hello_fault_of(hello_frame(skewed), false, &why),
              fleet::HelloFault::kVersionSkew)
        << "field " << field;
    EXPECT_EQ(why.rfind("version skew: ", 0), 0u) << why;
  }
  EXPECT_STREQ(fleet::hello_fault_name(fleet::HelloFault::kVersionSkew),
               "version-skew");
  EXPECT_STREQ(fleet::hello_fault_name(fleet::HelloFault::kNoHello),
               "no-hello");
}

// A worker that fails its hello is reported dead with the reason, so a
// driver says why no worker registered.
TEST(FleetHello, SkewedWorkerIsReportedDeadWithTheReason) {
  const std::string path = kDir + "/skewed.sock";
  util::Socket listener = util::Socket::listen_unix(path);
  std::thread server([&listener] {
    util::Socket sock = listener.accept(10000);
    serve::FrameConn conn(std::move(sock));
    serve::Hello old = fleet::worker_hello("v2-daemon");
    old.proto_version = 2;
    (void)conn.send(serve::FrameType::kHello, serve::encode_hello(old));
    serve::Frame frame;
    (void)conn.recv(&frame, 10000);  // until the driver hangs up
  });
  std::vector<fleet::Endpoint> workers(1);
  workers[0].socket_path = path;
  std::vector<fleet::ShardWork> shards(1);
  shards[0].text = "--core InO --bench mcf --injections 60 --seed 3\n";
  std::vector<fleet::FleetEvent> dead;
  try {
    (void)fleet::run_fleet(workers, shards, fleet::FleetOptions{},
                           [&](const fleet::FleetEvent& e) {
                             if (e.kind == fleet::FleetEvent::Kind::kWorkerDead) {
                               dead.push_back(e);
                             }
                           });
    ADD_FAILURE() << "a skewed worker registered";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "fleet: no workers registered");
  }
  server.join();
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0].worker_name, path);
  EXPECT_EQ(dead[0].shard_id, 0u);
  EXPECT_EQ(dead[0].detail.rfind("version skew: worker speaks CSV1 v2", 0),
            0u)
      << dead[0].detail;
}

// ---- the worker, in-process ------------------------------------------------

// Runs one worker connection handler on one end of a socketpair and
// returns the other end; `handler` joins once the conversation ends.
util::Socket start_handler(fleet::Worker* worker, std::thread* handler,
                           bool* shutdown) {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  *handler = std::thread([worker, shutdown, fd = fds[0]] {
    *shutdown = worker->handle_connection(serve::FrameConn(util::Socket(fd)));
  });
  return util::Socket(fds[1]);
}

fleet::WorkerOptions in_process_options() {
  fleet::WorkerOptions opts;
  opts.hello = fleet::worker_hello("in-process");
  opts.quiet = true;
  // Far apart: the only heartbeat a conversation sees is the one a
  // worker sends just before it closes on a kShutdown.
  opts.heartbeat_ms = 600'000;
  return opts;
}

TEST(FleetWorker, ConnectionHandlerAnswersOverASocketpair) {
  fleet::Worker worker(in_process_options());
  std::thread handler;
  bool shutdown = false;
  serve::FrameConn client{start_handler(&worker, &handler, &shutdown)};
  using Recv = serve::FrameConn::Recv;

  const auto converse = [&] {
    serve::Frame frame;
    // The hello comes first, unasked.
    ASSERT_EQ(client.recv(&frame, 5000), Recv::kFrame);
    ASSERT_EQ(frame.type, serve::FrameType::kHello);
    serve::Hello hello;
    ASSERT_TRUE(serve::decode_hello(frame.payload, &hello));
    EXPECT_EQ(hello.name, "in-process");
    EXPECT_EQ(hello.wire_version, inject::kWireVersion);

    // A campaign shard whose manifest does not resolve: accepted, then
    // refused without simulating.
    serve::ShardAssign assign;
    assign.shard_id = 7;
    assign.text = "--core InO --bench no_such_bench_xyz\n";
    ASSERT_TRUE(client.send(serve::FrameType::kShardAssign,
                            serve::encode_shard_assign(assign)));
    ASSERT_EQ(client.recv(&frame, 5000), Recv::kFrame);
    ASSERT_EQ(frame.type, serve::FrameType::kShardAck);
    std::uint64_t acked = 0;
    ASSERT_TRUE(serve::decode_shard_ack(frame.payload, &acked));
    EXPECT_EQ(acked, 7u);
    ASSERT_EQ(client.recv(&frame, 5000), Recv::kFrame);
    ASSERT_EQ(frame.type, serve::FrameType::kDone);
    serve::Done done;
    ASSERT_TRUE(serve::decode_done(frame.payload, &done));
    EXPECT_EQ(done.outcome, serve::JobOutcome::kBadRequest);

    // kShutdown ends the handler: one last heartbeat, then it closes
    // its end.
    ASSERT_TRUE(client.send(serve::FrameType::kShutdown, ""));
    ASSERT_EQ(client.recv(&frame, 5000), Recv::kFrame);
    EXPECT_EQ(frame.type, serve::FrameType::kHeartbeat);
    EXPECT_EQ(client.recv(&frame, 5000), Recv::kClosed);
  };
  converse();
  client.close();  // releases the handler if the conversation failed early
  handler.join();
  EXPECT_TRUE(shutdown);

  // A well-formed frame of the retired steal type (11) is a protocol
  // error: a fresh worker drops the connection instead of guessing.
  fleet::Worker fresh(in_process_options());
  shutdown = true;
  util::Socket raw = start_handler(&fresh, &handler, &shutdown);
  std::string steal =
      serve::encode_frame(serve::FrameType::kShutdown, std::string(8, '\0'));
  steal[0] = 11;
  EXPECT_TRUE(raw.send_all(steal.data(), steal.size()));
  serve::FrameConn dropped{std::move(raw)};
  serve::Frame frame;
  EXPECT_EQ(dropped.recv(&frame, 5000), Recv::kFrame);
  EXPECT_EQ(frame.type, serve::FrameType::kHello);
  EXPECT_EQ(dropped.recv(&frame, 5000), Recv::kClosed);
  dropped.close();
  handler.join();
  EXPECT_FALSE(shutdown);
}

// `clear fleet run` refuses these stanzas before it dispatches anything,
// so only a raw shard-assign reaches the worker's own refusal.  Each is
// answered kDone(kBadRequest) with a message that names what was
// refused, no campaign is simulated, and no file the stanza names is
// written: a worker's metric snapshot travels in its heartbeats, and the
// driver writes every .csr.
TEST(FleetWorker, RefusesDriverOnlyStanzasByNameWithoutSimulating) {
  obs::set_enabled(true);
  const std::string metrics_out = kDir + "/worker_refused.json";
  const std::string csr_out = kDir + "/worker_refused.csr";
  const struct {
    std::string stanza;
    std::string named;
  } cases[] = {
      {"--core InO --bench no_such_bench_xyz\n", "no_such_bench_xyz"},
      {"--core InO --bench gcc --injections 40 --metrics-out " +
           metrics_out + "\n",
       "--metrics-out"},
      {"--core InO --bench gcc --injections 40 --out " + csr_out + "\n",
       "--out"},
  };
  const std::uint64_t samples0 = obs::counter("campaign.samples").value();
  const std::uint64_t goldens0 = obs::counter("campaign.goldens").value();

  fleet::Worker worker(in_process_options());
  std::thread handler;
  bool shutdown = false;
  serve::FrameConn client{start_handler(&worker, &handler, &shutdown)};
  using Recv = serve::FrameConn::Recv;
  const auto converse = [&] {
    serve::Frame frame;
    ASSERT_EQ(client.recv(&frame, 5000), Recv::kFrame);
    ASSERT_EQ(frame.type, serve::FrameType::kHello);
    std::uint64_t id = 0;
    for (const auto& c : cases) {
      serve::ShardAssign assign;
      assign.shard_id = ++id;
      assign.text = c.stanza;
      ASSERT_TRUE(client.send(serve::FrameType::kShardAssign,
                              serve::encode_shard_assign(assign)));
      ASSERT_EQ(client.recv(&frame, 5000), Recv::kFrame);
      ASSERT_EQ(frame.type, serve::FrameType::kShardAck) << c.named;
      // No result: the refusal comes next.
      ASSERT_EQ(client.recv(&frame, 5000), Recv::kFrame);
      ASSERT_EQ(frame.type, serve::FrameType::kDone) << c.named;
      serve::Done done;
      ASSERT_TRUE(serve::decode_done(frame.payload, &done));
      EXPECT_EQ(done.outcome, serve::JobOutcome::kBadRequest) << c.named;
      EXPECT_NE(done.message.find(c.named), std::string::npos)
          << done.message;
    }
    ASSERT_TRUE(client.send(serve::FrameType::kShutdown, ""));
    ASSERT_EQ(client.recv(&frame, 5000), Recv::kFrame);
    EXPECT_EQ(frame.type, serve::FrameType::kHeartbeat);
    EXPECT_EQ(client.recv(&frame, 5000), Recv::kClosed);
  };
  converse();
  client.close();
  handler.join();
  EXPECT_EQ(obs::counter("campaign.samples").value(), samples0);
  EXPECT_EQ(obs::counter("campaign.goldens").value(), goldens0);
  EXPECT_FALSE(std::filesystem::exists(metrics_out));
  EXPECT_FALSE(std::filesystem::exists(csr_out));
}

// ---- the driver against a scripted worker ----------------------------------

// A worker that acks a shard late but keeps heartbeating is alive, so it
// keeps the shard: no redispatch, one completion.  The scripted worker
// acks 3.2 s after the assign -- past the 3 s ack deadline at which a
// CSV1 v3 driver took the shard back and queued it again.
TEST(FleetDriver, LiveWorkerKeepsAShardItAcksLate) {
  const std::string path = kDir + "/late_ack.sock";
  util::Socket listener = util::Socket::listen_unix(path);
  std::thread scripted([&listener] {
    using Recv = serve::FrameConn::Recv;
    serve::FrameConn conn(listener.accept(10000));
    if (!conn.send(serve::FrameType::kHello,
                   serve::encode_hello(fleet::worker_hello("late-acker")))) {
      return;
    }
    serve::ShardAssign assign;
    std::chrono::steady_clock::time_point assigned_at{};
    bool assigned = false;
    bool answered = false;
    for (;;) {
      serve::Frame frame;
      const Recv got = conn.recv(&frame, 200);
      if (got == Recv::kClosed || got == Recv::kBad) return;
      if (got == Recv::kFrame) {
        if (frame.type == serve::FrameType::kShutdown) return;
        if (frame.type == serve::FrameType::kShardAssign && !assigned) {
          ASSERT_TRUE(serve::decode_shard_assign(frame.payload, &assign));
          assigned_at = std::chrono::steady_clock::now();
          assigned = true;
        }
      }
      if (!conn.send(serve::FrameType::kHeartbeat,
                     serve::encode_heartbeat(assigned ? 1 : 0,
                                             obs::Snapshot{}))) {
        return;
      }
      if (assigned && !answered &&
          std::chrono::steady_clock::now() - assigned_at >= 3200ms) {
        answered = true;
        if (!conn.send(serve::FrameType::kShardAck,
                       serve::encode_shard_ack({assign.shard_id})) ||
            !conn.send(serve::FrameType::kDone,
                       serve::encode_done({serve::JobOutcome::kOk, ""}))) {
          return;
        }
      }
    }
  });
  std::vector<fleet::Endpoint> workers(1);
  workers[0].socket_path = path;
  std::vector<fleet::ShardWork> shards(1);
  shards[0].id = 5;
  shards[0].text = "--core InO --bench mcf --injections 60 --seed 3\n";
  fleet::FleetOptions opts;
  opts.shutdown_workers = true;
  std::size_t done_events = 0;
  std::size_t delivered = 0;
  const auto report = fleet::run_fleet(
      workers, shards, opts,
      [&](const fleet::FleetEvent& e) {
        if (e.kind == fleet::FleetEvent::Kind::kShardDone) ++done_events;
      },
      [&](const fleet::ShardResult& res) {
        EXPECT_EQ(res.shard_id, 5u);
        ++delivered;
      });
  scripted.join();
  EXPECT_EQ(report.redispatched, 0u);
  EXPECT_EQ(report.workers_lost, 0u);
  EXPECT_EQ(done_events, 1u);
  EXPECT_EQ(delivered, 1u);
}

// Serves one `clear fleet run` connection as a scripted worker: every
// shard it is assigned is acked and answered done(ok) after only the
// results numbered in `indices`, each a decodable .csr of its own.
// Returns when the driver shuts it down or hangs up.
void serve_short_results(util::Socket* listener,
                         const std::vector<std::uint32_t>& indices) {
  using Recv = serve::FrameConn::Recv;
  serve::FrameConn conn(listener->accept(10000));
  if (!conn.send(serve::FrameType::kHello,
                 serve::encode_hello(fleet::worker_hello("short")))) {
    return;
  }
  inject::ShardFile csr;
  csr.core_name = "InO";
  csr.key = "scripted";
  csr.covered = {0};
  csr.result.ff_count = 1;
  csr.result.per_ff.assign(1, {});
  const std::string bytes = inject::encode_shard(csr);
  for (;;) {
    serve::Frame frame;
    const Recv got = conn.recv(&frame, 200);
    if (got == Recv::kClosed || got == Recv::kBad) return;
    if (got != Recv::kFrame) {
      if (!conn.send(serve::FrameType::kHeartbeat,
                     serve::encode_heartbeat(0, obs::Snapshot{}))) {
        return;
      }
      continue;
    }
    if (frame.type == serve::FrameType::kShutdown) return;
    serve::ShardAssign assign;
    if (frame.type != serve::FrameType::kShardAssign ||
        !serve::decode_shard_assign(frame.payload, &assign)) {
      continue;
    }
    bool sent = conn.send(serve::FrameType::kShardAck,
                          serve::encode_shard_ack({assign.shard_id}));
    for (const std::uint32_t index : indices) {
      sent = sent && conn.send(serve::FrameType::kResult,
                               serve::encode_result(index, bytes));
    }
    if (!sent || !conn.send(serve::FrameType::kDone,
                            serve::encode_done({serve::JobOutcome::kOk, ""}))) {
      return;
    }
  }
}

// A campaign shard that comes back short -- done(ok) after no result, or
// after results with a gap or without the last stanza's -- fails `clear
// fleet run` with exit 1 instead of leaving a campaign<i>.csr missing or
// holding another stanza's result.  The gap gets the worker declared
// dead, and the reason reaches stderr even under --quiet.
TEST(FleetDriver, CampaignShardThatComesBackShortFailsTheRun) {
  const std::string one = "--core InO --bench mcf --injections 60 --seed 3\n";
  const std::string three = one + "---\n" + one + "---\n" + one;
  const struct {
    std::string spec;
    std::vector<std::uint32_t> results;
    std::string death;  // the worker's death reason, "" if it lives
  } cases[] = {{one, {}, ""}, {three, {0, 2}, "bad done"}, {three, {0, 1}, ""}};
  for (std::size_t c = 0; c < std::size(cases); ++c) {
    const std::string tag = kDir + "/short" + std::to_string(c);
    std::ofstream(tag + ".spec") << cases[c].spec;
    util::Socket listener = util::Socket::listen_unix(tag + ".sock");
    std::thread scripted(serve_short_results, &listener,
                         std::cref(cases[c].results));
    EXPECT_EQ(sh(kBin + " fleet run --spec " + tag + ".spec --shards 1" +
                 " --out-dir " + tag + "_out --shutdown --quiet " + tag +
                 ".sock 2> " + tag + ".err"),
              1)
        << "case " << c;
    scripted.join();
    if (!cases[c].death.empty()) {
      EXPECT_NE(slurp(tag + ".err").find("DEAD (" + cases[c].death + ")"),
                std::string::npos)
          << "case " << c << " stderr: " << slurp(tag + ".err");
    }
  }
}

// A worker whose heartbeat does not carry a clear-metrics-v1 document is
// declared dead ("bad heartbeat"), like one that sends a bad ack or
// result, and the shard it held runs on another worker.  The scripted
// worker acks its shard and then beats with a document of another schema;
// left alive, it answers done(ok) after 3 s itself.
TEST(FleetDriver, BadHeartbeatKillsTheWorkerAndRedispatchesItsShard) {
  const std::string bad_path = kDir + "/bad_beat.sock";
  const std::string good_path = kDir + "/good_beat.sock";
  util::Socket bad_listener = util::Socket::listen_unix(bad_path);
  util::Socket good_listener = util::Socket::listen_unix(good_path);
  std::thread bad([&bad_listener] {
    using Recv = serve::FrameConn::Recv;
    serve::FrameConn conn(bad_listener.accept(10000));
    if (!conn.send(serve::FrameType::kHello,
                   serve::encode_hello(fleet::worker_hello("bad-beat")))) {
      return;
    }
    serve::Frame frame;
    serve::ShardAssign assign;
    if (conn.recv(&frame, 10000) != Recv::kFrame ||
        !serve::decode_shard_assign(frame.payload, &assign) ||
        !conn.send(serve::FrameType::kShardAck,
                   serve::encode_shard_ack(assign.shard_id))) {
      return;
    }
    const std::string beat =
        std::string(4, '\0') + "{\"schema\": \"clear-metrics-v0\"}\n";
    const auto give_up = std::chrono::steady_clock::now() + 3s;
    while (std::chrono::steady_clock::now() < give_up) {
      if (!conn.send(serve::FrameType::kHeartbeat, beat)) return;
      const Recv got = conn.recv(&frame, 100);
      if (got == Recv::kClosed || got == Recv::kBad) return;
    }
    (void)conn.send(serve::FrameType::kDone,
                    serve::encode_done({serve::JobOutcome::kOk, ""}));
    (void)conn.recv(&frame, 10000);  // until the driver hangs up
  });
  const std::vector<std::uint32_t> no_results;
  std::thread good(serve_short_results, &good_listener,
                   std::cref(no_results));
  std::vector<fleet::Endpoint> workers(2);
  workers[0].socket_path = bad_path;  // dispatched to first
  workers[1].socket_path = good_path;
  std::vector<fleet::ShardWork> shards(1);
  shards[0].id = 9;
  shards[0].text = "--core InO --bench mcf --injections 60 --seed 3\n";
  fleet::FleetOptions opts;
  opts.shutdown_workers = true;
  std::vector<fleet::FleetEvent> dead;
  std::vector<std::size_t> completed_by;
  const auto report = fleet::run_fleet(
      workers, shards, opts,
      [&](const fleet::FleetEvent& e) {
        if (e.kind == fleet::FleetEvent::Kind::kWorkerDead) dead.push_back(e);
      },
      [&](const fleet::ShardResult& res) {
        EXPECT_EQ(res.shard_id, 9u);
        completed_by.push_back(res.worker);
      });
  bad.join();
  good.join();
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0].worker, 0u);
  EXPECT_EQ(dead[0].shard_id, 9u);
  EXPECT_EQ(dead[0].detail, "bad heartbeat");
  EXPECT_EQ(report.workers_lost, 1u);
  EXPECT_EQ(report.redispatched, 1u);
  EXPECT_EQ(completed_by, std::vector<std::size_t>{1});
}

// ---- endpoint grammar ------------------------------------------------------

TEST(FleetEndpoints, ParseAndFanOutExpansion) {
  std::string err;
  fleet::Endpoint e;
  ASSERT_TRUE(fleet::parse_endpoint("tcp:9000", &e, &err));
  EXPECT_TRUE(e.socket_path.empty());
  EXPECT_EQ(e.port, 9000);
  EXPECT_EQ(e.display(), "tcp:9000");
  ASSERT_TRUE(fleet::parse_endpoint("/tmp/w.sock", &e, &err));
  EXPECT_EQ(e.socket_path, "/tmp/w.sock");
  EXPECT_FALSE(fleet::parse_endpoint("tcp:0", &e, &err));
  EXPECT_FALSE(fleet::parse_endpoint("tcp:70000", &e, &err));
  EXPECT_FALSE(fleet::parse_endpoint("", &e, &err));
  // The port is digits only: a sign or a blank is refused, and a negated
  // 2^64 - 1 does not wrap round to port 1.
  EXPECT_FALSE(fleet::parse_endpoint("tcp:-18446744073709551615", &e, &err));
  EXPECT_FALSE(fleet::parse_endpoint("tcp:+9000", &e, &err));
  EXPECT_FALSE(fleet::parse_endpoint("tcp: 9000", &e, &err));

  // "@N" expands to the `clear serve --workers N` child names.
  std::vector<fleet::Endpoint> out;
  ASSERT_TRUE(fleet::expand_endpoints({"w.sock@3", "tcp:9100@2"}, &out, &err));
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].socket_path, "w.sock.0");
  EXPECT_EQ(out[2].socket_path, "w.sock.2");
  EXPECT_EQ(out[3].port, 9100);
  EXPECT_EQ(out[4].port, 9101);
  EXPECT_FALSE(fleet::expand_endpoints({"tcp:65535@2"}, &out, &err));
  EXPECT_FALSE(fleet::expand_endpoints({}, &out, &err));
  // "@N" is digits only too.  A suffix that is not is part of the socket
  // path, so a negated count does not wrap round to 4 workers...
  ASSERT_TRUE(fleet::expand_endpoints({"x.sock@-18446744073709551612"}, &out,
                                      &err));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].socket_path, "x.sock@-18446744073709551612");
  ASSERT_TRUE(fleet::expand_endpoints({"x.sock@+2"}, &out, &err));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].socket_path, "x.sock@+2");
  // ...and on a TCP endpoint it leaves a port that is not digits.
  EXPECT_FALSE(fleet::expand_endpoints({"tcp:9100@ 2"}, &out, &err));
}

// ---- shard builders --------------------------------------------------------

TEST(FleetShards, CampaignBuilderAppendsShardToEveryStanza) {
  std::vector<fleet::ShardWork> shards;
  std::string err;
  ASSERT_TRUE(fleet::build_campaign_shards(
      "--core InO --bench mcf --injections 240 --seed 7\n"
      "---\n"
      "--core InO --bench gcc --variant eddi --injections 240 --seed 7\n",
      3, &shards, &err))
      << err;
  ASSERT_EQ(shards.size(), 3u);
  for (std::uint32_t k = 0; k < 3; ++k) {
    EXPECT_EQ(shards[k].id, k);
    EXPECT_EQ(shards[k].kind, serve::ShardKind::kCampaign);
    const std::string suffix = "--shard " + std::to_string(k) + "/3";
    // Both stanzas carry the shard selector.
    std::size_t first = shards[k].text.find(suffix);
    ASSERT_NE(first, std::string::npos) << shards[k].text;
    EXPECT_NE(shards[k].text.find(suffix, first + 1), std::string::npos)
        << shards[k].text;
  }
}

TEST(FleetShards, CampaignBuilderPassesConfidenceThrough) {
  // Adaptive campaigns fan out unchanged: --confidence is a worker-side
  // flag (stop decisions are shard-independent), so every shard stanza
  // must carry it verbatim next to its --shard selector.
  std::vector<fleet::ShardWork> shards;
  std::string err;
  ASSERT_TRUE(fleet::build_campaign_shards(
      "--core InO --bench gcc --injections 240 --seed 7 "
      "--confidence 0.25 --confidence-method cp\n",
      3, &shards, &err))
      << err;
  ASSERT_EQ(shards.size(), 3u);
  for (std::uint32_t k = 0; k < 3; ++k) {
    EXPECT_NE(shards[k].text.find("--confidence 0.25"), std::string::npos)
        << shards[k].text;
    EXPECT_NE(shards[k].text.find("--confidence-method cp"),
              std::string::npos)
        << shards[k].text;
    EXPECT_NE(shards[k].text.find("--shard " + std::to_string(k) + "/3"),
              std::string::npos)
        << shards[k].text;
  }
}

TEST(FleetShards, CampaignBuilderRefusesDriverFlags) {
  std::vector<fleet::ShardWork> shards;
  std::string err;
  // Sharding and output placement belong to the driver.
  EXPECT_FALSE(fleet::build_campaign_shards(
      "--core InO --bench mcf --shard 0/2\n", 2, &shards, &err));
  EXPECT_NE(err.find("--shard"), std::string::npos) << err;
  EXPECT_FALSE(fleet::build_campaign_shards(
      "--core InO --bench mcf --out=x.csr\n", 2, &shards, &err));
  EXPECT_NE(err.find("--out"), std::string::npos) << err;
  EXPECT_FALSE(fleet::build_campaign_shards("", 2, &shards, &err));
  EXPECT_FALSE(fleet::build_campaign_shards(
      "--core InO --bench mcf\n", 0, &shards, &err));
}

TEST(FleetShards, ExploreStanzaRoundTripsThroughBuilder) {
  explore::ExploreSpec spec;
  spec.core = "InO";
  spec.target = 200.0;
  spec.metric = core::Metric::kDue;
  spec.seed = 9;
  spec.per_ff_samples = 2;
  spec.benchmarks = {"mcf", "gcc"};
  spec.prune = false;
  const auto shards = fleet::build_explore_shards(spec, 4);
  ASSERT_EQ(shards.size(), 4u);
  for (std::uint32_t k = 0; k < 4; ++k) {
    EXPECT_EQ(shards[k].kind, serve::ShardKind::kExplore);
    explore::ExploreSpec back;
    std::string err;
    ASSERT_TRUE(fleet::parse_explore_stanza(shards[k].text, &back, &err))
        << shards[k].text << ": " << err;
    EXPECT_EQ(back.core, "InO");
    EXPECT_DOUBLE_EQ(back.target, 200.0);
    EXPECT_EQ(back.metric, core::Metric::kDue);
    EXPECT_EQ(back.seed, 9u);
    EXPECT_EQ(back.per_ff_samples, 2u);
    EXPECT_EQ(back.benchmarks, (std::vector<std::string>{"mcf", "gcc"}));
    EXPECT_FALSE(back.prune);
    EXPECT_EQ(back.shard_index, k);
    EXPECT_EQ(back.shard_count, 4u);
  }

  explore::ExploreSpec bad;
  std::string err;
  EXPECT_FALSE(fleet::parse_explore_stanza("--no-such-flag 3", &bad, &err));
  EXPECT_FALSE(fleet::parse_explore_stanza("--core InO --shard 9/4",
                                           &bad, &err));
}

TEST(FleetShards, ExploreStanzaCarriesTheAdaptiveIdentityBitExactly) {
  explore::ExploreSpec spec;
  spec.core = "OoO";
  spec.target = 0.1 + 0.2;  // needs all 17 digits to read back
  spec.metric = core::Metric::kJoint;
  spec.confidence = 1.0 / 3.0;
  spec.confidence_method = util::IntervalMethod::kClopperPearson;
  const auto shards = fleet::build_explore_shards(spec, 2);
  EXPECT_EQ(shards[1].text,
            "--core OoO --target 0.30000000000000004 --metric joint --seed 1 "
            "--confidence 0.33333333333333331 --confidence-method cp "
            "--shard 1/2\n");
  explore::ExploreSpec back;
  std::string err;
  ASSERT_TRUE(fleet::parse_explore_stanza(shards[1].text, &back, &err)) << err;
  EXPECT_EQ(back.target, spec.target);
  EXPECT_EQ(back.metric, core::Metric::kJoint);
  EXPECT_EQ(back.confidence, spec.confidence);
  EXPECT_EQ(back.confidence_method, util::IntervalMethod::kClopperPearson);
  EXPECT_EQ(explore::spec_flags(back), explore::spec_flags(spec));

  // A value that does not parse is refused at the stanza; a range is
  // resolve_identity's (the worker answers both with kBadRequest).
  EXPECT_FALSE(fleet::parse_explore_stanza("--confidence-method bogus", &back,
                                           &err));
  EXPECT_NE(err.find("--confidence-method"), std::string::npos) << err;
  ASSERT_TRUE(fleet::parse_explore_stanza("--confidence 0.9", &back, &err));
  EXPECT_THROW((void)explore::resolve_identity(back), std::invalid_argument);
  // The schedule is not part of the grammar: --batch is an unknown flag.
  EXPECT_FALSE(fleet::parse_explore_stanza("--core InO --batch 7", &back,
                                           &err));
  EXPECT_NE(err.find("--batch"), std::string::npos) << err;
}

TEST(FleetShards, ExploreStanzaHonoursPreSetCancel) {
  std::atomic<bool> cancel{true};
  EXPECT_THROW(
      (void)fleet::run_explore_stanza(
          "--core InO --per-ff 1 --benches mcf --shard 0/64", &cancel),
      explore::ExploreCancelled);
  EXPECT_THROW((void)fleet::run_explore_stanza("--bogus", nullptr),
               std::invalid_argument);
}

// ---- the clear-fleet-status-v1 document -----------------------------------

obs::Snapshot status_worker_snapshot() {
  obs::Snapshot s;
  s.counters = {{"cache.hit", 12},
                {"campaign.samples", 18446744073709551615ull}};
  s.gauges = {{"cache.pack.bytes", 4096, 1u << 20}};
  obs::HistogramRow h;
  h.name = "campaign.fork.replay";
  h.unit = "ns";
  h.buckets[0] = 1;
  h.buckets[5] = 2;
  h.buckets[20] = 7;
  h.buckets[63] = 1;
  h.count = 11;
  h.sum = 123456789;
  s.histograms.push_back(h);
  obs::HistogramRow empty;
  empty.name = "engine.queue.wait";
  empty.unit = "ns";
  s.histograms.push_back(empty);
  return s;
}

void expect_same_snapshot(const obs::Snapshot& got, const obs::Snapshot& want) {
  ASSERT_EQ(got.counters.size(), want.counters.size());
  for (std::size_t i = 0; i < want.counters.size(); ++i) {
    EXPECT_EQ(got.counters[i].name, want.counters[i].name);
    EXPECT_EQ(got.counters[i].value, want.counters[i].value);
  }
  ASSERT_EQ(got.gauges.size(), want.gauges.size());
  for (std::size_t i = 0; i < want.gauges.size(); ++i) {
    EXPECT_EQ(got.gauges[i].name, want.gauges[i].name);
    EXPECT_EQ(got.gauges[i].last, want.gauges[i].last);
    EXPECT_EQ(got.gauges[i].max, want.gauges[i].max);
  }
  ASSERT_EQ(got.histograms.size(), want.histograms.size());
  for (std::size_t i = 0; i < want.histograms.size(); ++i) {
    EXPECT_EQ(got.histograms[i].name, want.histograms[i].name);
    EXPECT_EQ(got.histograms[i].unit, want.histograms[i].unit);
    EXPECT_EQ(got.histograms[i].count, want.histograms[i].count);
    EXPECT_EQ(got.histograms[i].sum, want.histograms[i].sum);
    EXPECT_EQ(got.histograms[i].buckets, want.histograms[i].buckets);
  }
}

TEST(FleetStatus, DriverDocumentRoundTripsEveryValue) {
  fleet::FleetStatus st;
  st.shards = fleet::ShardTally{128, 100, 25, 3};
  fleet::StatusRow a;
  a.index = 0;
  a.endpoint = "w0.sock";
  a.name = "host \"a\" \\ b\n\x01";  // needs escaping
  a.capacity = 8;
  a.state = "busy";
  a.shards_done = 61;
  a.inflight = 2;
  a.metrics = status_worker_snapshot();
  fleet::StatusRow b;
  b.index = 1;
  b.endpoint = "tcp:7001";
  b.name = "hostb";
  b.capacity = 4;
  b.state = "dead";
  b.shards_done = 39;
  st.workers = {a, b};
  obs::Snapshot driver;
  driver.counters = {{"fleet.dispatch", 131}, {"fleet.redispatch", 3}};
  obs::HistogramRow rtt;
  rtt.name = "fleet.ack.rtt";
  rtt.unit = "ns";
  rtt.buckets[11] = 100;
  rtt.buckets[12] = 31;
  rtt.count = 131;
  rtt.sum = 400000;
  driver.histograms.push_back(rtt);
  st.driver = driver;

  const std::string json = fleet::status_to_json(st);
  fleet::FleetStatus back;
  std::string err;
  ASSERT_TRUE(fleet::status_from_json(json, &back, &err)) << err;
  ASSERT_TRUE(back.shards.has_value());
  EXPECT_EQ(back.shards->total, 128u);
  EXPECT_EQ(back.shards->completed, 100u);
  EXPECT_EQ(back.shards->queued, 25u);
  EXPECT_EQ(back.shards->redispatched, 3u);
  ASSERT_EQ(back.workers.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const fleet::StatusRow& got = back.workers[i];
    const fleet::StatusRow& want = st.workers[i];
    EXPECT_EQ(got.index, want.index);
    EXPECT_EQ(got.endpoint, want.endpoint);
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.capacity, want.capacity);
    EXPECT_EQ(got.state, want.state);
    EXPECT_EQ(got.shards_done, want.shards_done);
    EXPECT_EQ(got.inflight, want.inflight);
    EXPECT_EQ(got.metrics.has_value(), want.metrics.has_value());
  }
  ASSERT_TRUE(back.workers[0].metrics.has_value());
  expect_same_snapshot(*back.workers[0].metrics, *a.metrics);
  ASSERT_TRUE(back.driver.has_value());
  expect_same_snapshot(*back.driver, driver);
  // Writing what was read gives the same bytes.
  EXPECT_EQ(fleet::status_to_json(back), json);
}

TEST(FleetStatus, ProbeDocumentHasNullShardsAndNoDriver) {
  // The exact layout: `"shards": null`, no "driver" key.
  EXPECT_EQ(fleet::status_to_json(fleet::FleetStatus{}),
            "{\n  \"schema\": \"clear-fleet-status-v1\",\n  \"shards\": null,\n"
            "  \"workers\": []\n}\n");
  fleet::FleetStatus st;
  st.workers.resize(2);
  st.workers[0].endpoint = "tcp:7001";
  st.workers[0].state = "unreachable";
  st.workers[1].index = 1;
  st.workers[1].endpoint = "w1.sock";
  st.workers[1].name = "host:42";
  st.workers[1].capacity = 4;
  st.workers[1].state = "up";
  st.workers[1].metrics = status_worker_snapshot();
  const std::string json = fleet::status_to_json(st);
  EXPECT_NE(json.find("\"shards\": null,\n"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"driver\""), std::string::npos) << json;

  fleet::FleetStatus back;
  std::string err;
  ASSERT_TRUE(fleet::status_from_json(json, &back, &err)) << err;
  EXPECT_FALSE(back.shards.has_value());
  EXPECT_FALSE(back.driver.has_value());
  ASSERT_EQ(back.workers.size(), 2u);
  EXPECT_EQ(back.workers[0].state, "unreachable");
  EXPECT_FALSE(back.workers[0].metrics.has_value());
  EXPECT_EQ(back.workers[1].index, 1u);
  EXPECT_EQ(back.workers[1].name, "host:42");
  EXPECT_EQ(back.workers[1].state, "up");
  ASSERT_TRUE(back.workers[1].metrics.has_value());
  expect_same_snapshot(*back.workers[1].metrics, status_worker_snapshot());
  EXPECT_EQ(fleet::status_to_json(back), json);
}

TEST(FleetStatus, DriverLayoutIsPinned) {
  fleet::FleetStatus st;
  st.shards = fleet::ShardTally{2, 1, 0, 0};
  st.workers.resize(1);
  st.workers[0].endpoint = "w.sock";
  st.workers[0].name = "w";
  st.workers[0].capacity = 4;
  st.workers[0].state = "idle";
  st.workers[0].shards_done = 1;
  st.driver = obs::Snapshot{};
  EXPECT_EQ(fleet::status_to_json(st),
            "{\n"
            "  \"schema\": \"clear-fleet-status-v1\",\n"
            "  \"shards\": {\"total\": 2, \"completed\": 1, \"queued\": 0, "
            "\"redispatched\": 0},\n"
            "  \"workers\": [\n"
            "    {\"index\": 0, \"endpoint\": \"w.sock\", \"name\": \"w\", "
            "\"capacity\": 4, \"state\": \"idle\", \"shards_done\": 1, "
            "\"inflight\": 0, \"metrics\": null}\n"
            "  ],\n"
            "  \"driver\": {\n"
            "    \"schema\": \"clear-metrics-v1\",\n"
            "    \"counters\": {},\n"
            "    \"gauges\": {},\n"
            "    \"histograms\": {}\n"
            "  }\n"
            "}\n");
}

// A live probe reads a heartbeat without a clear-metrics-v1 document (a
// v6 worker's bare 4-byte heartbeat here) as a bad stream, not as a live
// worker that has no metrics yet.
TEST(FleetStatus, ProbeCallsAHeartbeatWithoutASnapshotABadStream) {
  const std::string path = kDir + "/probe_bad.sock";
  util::Socket listener = util::Socket::listen_unix(path);
  std::thread scripted([&listener] {
    serve::FrameConn conn(listener.accept(10000));
    if (!conn.send(serve::FrameType::kHello,
                   serve::encode_hello(fleet::worker_hello("bad-beat"))) ||
        !conn.send(serve::FrameType::kHeartbeat, std::string(4, '\0'))) {
      return;
    }
    serve::Frame frame;
    (void)conn.recv(&frame, 10000);  // until the probe hangs up
  });
  const std::string out = kDir + "/probe_bad.json";
  EXPECT_EQ(sh("(" + kBin + " status --json " + path + " > " + out + ")"), 0);
  scripted.join();
  fleet::FleetStatus status;
  std::string err;
  ASSERT_TRUE(fleet::status_from_json(slurp(out), &status, &err)) << err;
  ASSERT_EQ(status.workers.size(), 1u);
  EXPECT_EQ(status.workers[0].state, "bad-stream");
  EXPECT_FALSE(status.workers[0].metrics.has_value());
}

TEST(FleetStatus, ReaderRefusesWhatItDidNotWrite) {
  fleet::FleetStatus st;
  st.shards = fleet::ShardTally{4, 4, 0, 0};
  st.workers.resize(1);
  st.workers[0].name = "w";
  st.workers[0].metrics = status_worker_snapshot();
  const std::string json = fleet::status_to_json(st);
  fleet::FleetStatus back;
  std::string err;
  ASSERT_TRUE(fleet::status_from_json(json, &back, &err)) << err;

  EXPECT_FALSE(fleet::status_from_json(json.substr(0, json.size() / 2), &back,
                                       &err));
  EXPECT_FALSE(fleet::status_from_json(json + "{}", &back, &err));
  std::string bad_escape = json;
  bad_escape.replace(bad_escape.find("\"w\""), 3, "\"\\u00zz\"");
  EXPECT_FALSE(fleet::status_from_json(bad_escape, &back, &err));
  const std::string deep = "{\"schema\": \"clear-fleet-status-v1\", \"x\": " +
                           std::string(40, '[') + std::string(40, ']') + "}";
  EXPECT_FALSE(fleet::status_from_json(deep, &back, &err));
  // Another schema -- a bare metrics document, or a misnamed one.
  EXPECT_FALSE(fleet::status_from_json(obs::to_json(status_worker_snapshot()),
                                       &back, &err));
  EXPECT_NE(err.find("clear-fleet-status-v1"), std::string::npos) << err;
  std::string renamed = json;
  renamed.replace(renamed.find("status-v1"), 9, "status-v2");
  EXPECT_FALSE(fleet::status_from_json(renamed, &back, &err));
  // A worker snapshot of the wrong schema, or none at all, is refused,
  // naming the worker; so is a driver that is present but not a snapshot.
  std::string bad_metrics = json;
  bad_metrics.replace(bad_metrics.find("clear-metrics-v1"), 16,
                      "clear-metrics-v9");
  EXPECT_FALSE(fleet::status_from_json(bad_metrics, &back, &err));
  EXPECT_NE(err.find("worker 0"), std::string::npos) << err;
  std::string no_metrics = json;
  no_metrics.replace(no_metrics.find("\"metrics\""), 9, "\"metricz\"");
  EXPECT_FALSE(fleet::status_from_json(no_metrics, &back, &err));
  EXPECT_NE(err.find("worker 0"), std::string::npos) << err;
  st.workers[0].metrics.reset();
  const std::string null_metrics = fleet::status_to_json(st);
  ASSERT_TRUE(fleet::status_from_json(null_metrics, &back, &err)) << err;
  EXPECT_FALSE(back.workers[0].metrics.has_value());
  std::string null_driver = null_metrics;
  null_driver.insert(null_driver.rfind('}'), ", \"driver\": null");
  EXPECT_FALSE(fleet::status_from_json(null_driver, &back, &err));
  EXPECT_NE(err.find("driver"), std::string::npos) << err;
}

TEST(FleetShards, DuplicateShardIdsAreRefusedBeforeConnecting) {
  std::vector<fleet::ShardWork> shards(5);
  for (std::size_t i = 0; i < shards.size(); ++i) shards[i].id = 10 + i;
  shards[4].id = 12;
  // No worker is listening there: the refusal must come first.
  std::vector<fleet::Endpoint> workers(1);
  workers[0].socket_path = kDir + "/nobody.sock";
  try {
    (void)fleet::run_fleet(workers, shards, fleet::FleetOptions{});
    FAIL() << "duplicate shard ids were accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "fleet: duplicate shard id 12");
  }
}

// ---- fleet end-to-ends -----------------------------------------------------

// SIGKILLs worker 0 of two at its `kill_at_ack`-th shard acknowledgement.
// The driver must declare it dead and redispatch at least
// `min_redispatched` shards to the survivor, and the merged result must
// be byte-identical to the single-machine merge of the same K=4 shard
// partition.  `tag` keeps the sockets and files of each caller apart.
void expect_merge_survives_worker_kill(const std::string& tag,
                                       const std::string& stanza,
                                       int kill_at_ack,
                                       std::size_t min_redispatched) {
  const std::string base = kDir + "/" + tag;
  const pid_t pid0 = spawn_serve({"--socket", base + "0.sock", "--quiet"});
  ASSERT_GT(pid0, 0);
  const pid_t pid1 = spawn_serve({"--socket", base + "1.sock", "--quiet"});
  ASSERT_GT(pid1, 0);

  std::vector<fleet::Endpoint> workers(2);
  std::string err;
  ASSERT_TRUE(fleet::parse_endpoint(base + "0.sock", &workers[0], &err));
  ASSERT_TRUE(fleet::parse_endpoint(base + "1.sock", &workers[1], &err));

  std::vector<fleet::ShardWork> shards;
  ASSERT_TRUE(fleet::build_campaign_shards(stanza + "\n", 4, &shards, &err))
      << err;

  fleet::FleetOptions opts;
  opts.shutdown_workers = true;
  int worker0_acks = 0;
  std::vector<fleet::ShardResult> results;
  const auto report = fleet::run_fleet(
      workers, shards, opts,
      [&](const fleet::FleetEvent& e) {
        if (e.kind == fleet::FleetEvent::Kind::kAck && e.worker == 0 &&
            ++worker0_acks == kill_at_ack) {
          ::kill(pid0, SIGKILL);
        }
      },
      [&](const fleet::ShardResult& res) { results.push_back(res); });
  // Acks already buffered when the kill lands are still read.
  EXPECT_GE(worker0_acks, kill_at_ack);
  EXPECT_EQ(report.workers_lost, 1u);
  EXPECT_GE(report.redispatched, min_redispatched);
  EXPECT_EQ(report.workers[0].state, fleet::WorkerState::kDead);
  // Exactly one delivery per shard, however often it was dispatched.
  ASSERT_EQ(results.size(), 4u);

  std::vector<inject::ShardFile> got;
  for (const auto& res : results) {
    ASSERT_EQ(res.payloads.size(), 1u) << "shard " << res.shard_id;
    inject::ShardFile shard;
    ASSERT_EQ(inject::decode_shard(res.payloads[0], &shard),
              inject::WireStatus::kOk);
    got.push_back(std::move(shard));
  }
  const inject::ShardFile merged = inject::merge_shard_files(got);
  EXPECT_TRUE(merged.complete());
  inject::write_shard_file(base + "_fleet_merged.csr", merged);

  // Single-machine reference through the very same CLI resolution.
  std::string merge_cmd = kBin + " merge --out " + base + "_ref_merged.csr";
  for (int k = 0; k < 4; ++k) {
    const std::string ref = base + "_ref" + std::to_string(k) + ".csr";
    ASSERT_EQ(sh(kBin + " run " + stanza + " --shard " + std::to_string(k) +
                 "/4 --out " + ref),
              0);
    merge_cmd += " " + ref;
  }
  ASSERT_EQ(sh(merge_cmd), 0);
  const std::string fleet_bytes = slurp(base + "_fleet_merged.csr");
  ASSERT_FALSE(fleet_bytes.empty());
  EXPECT_EQ(fleet_bytes, slurp(base + "_ref_merged.csr"));

  reap(pid0);  // SIGKILLed above
  EXPECT_EQ(reap(pid1), 0);  // shutdown_workers drained it cleanly
}

// The acceptance criterion: SIGKILL one of two workers while its shard is
// in flight.  Seed 11 is unique to this test: the shards are cache-cold
// on a first run, so worker 0 is genuinely mid-simulation when the
// SIGKILL lands.
TEST(FleetE2E, DeadWorkerRedispatchKeepsMergeBitIdentical) {
  expect_merge_survives_worker_kill(
      "w", "--core InO --bench mcf --injections 240 --seed 11", 1, 1);
}

// The same with two shards outstanding per worker: worker 0 dies holding
// both its running and its queued shard, and both go back to the
// survivor.  --no-cache: every shard really simulates, whatever earlier
// runs cached, and is big enough that worker 0's first one is still
// running at its second ack.
TEST(FleetE2E, DeadWorkerWithTwoOutstandingShardsRequeuesBoth) {
  expect_merge_survives_worker_kill(
      "q", "--core InO --bench mcf --injections 4000 --seed 37 --no-cache",
      2, 2);
}

// Dispatch keeps two shards outstanding per worker, filled level by
// level: every worker gets one before any gets a second, all before the
// first completion; a single shard still goes out exactly once.
TEST(FleetE2E, DispatchFillsTwoShardsPerWorkerLevelByLevel) {
  const pid_t pid0 = spawn_serve({"--socket", kDir + "/p0.sock", "--quiet"});
  ASSERT_GT(pid0, 0);
  const pid_t pid1 = spawn_serve({"--socket", kDir + "/p1.sock", "--quiet"});
  ASSERT_GT(pid1, 0);
  std::vector<fleet::Endpoint> workers(2);
  std::string err;
  ASSERT_TRUE(fleet::parse_endpoint(kDir + "/p0.sock", &workers[0], &err));
  ASSERT_TRUE(fleet::parse_endpoint(kDir + "/p1.sock", &workers[1], &err));

  struct Seen {
    fleet::FleetEvent::Kind kind;
    std::size_t worker;
  };
  const auto run = [&](std::uint32_t k, bool shutdown) {
    std::vector<fleet::ShardWork> shards;
    EXPECT_TRUE(fleet::build_campaign_shards(
        "--core InO --bench gcc --injections 400 --seed 47\n", k, &shards,
        &err))
        << err;
    fleet::FleetOptions opts;
    opts.shutdown_workers = shutdown;
    std::vector<Seen> seen;
    std::size_t done = 0;
    const auto report = fleet::run_fleet(
        workers, shards, opts,
        [&](const fleet::FleetEvent& e) {
          if (e.kind == fleet::FleetEvent::Kind::kAssign ||
              e.kind == fleet::FleetEvent::Kind::kShardDone) {
            seen.push_back({e.kind, e.worker});
          }
        },
        [&](const fleet::ShardResult&) { ++done; });
    EXPECT_EQ(done, k);
    EXPECT_EQ(report.redispatched, 0u);
    return seen;
  };

  const std::vector<Seen> eight = run(8, false);
  ASSERT_GE(eight.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(eight[i].kind, fleet::FleetEvent::Kind::kAssign) << i;
    EXPECT_EQ(eight[i].worker, i % 2) << i;
  }
  const auto assigns = [](const std::vector<Seen>& seen) {
    return std::count_if(seen.begin(), seen.end(), [](const Seen& s) {
      return s.kind == fleet::FleetEvent::Kind::kAssign;
    });
  };
  EXPECT_EQ(assigns(eight), 8);

  const std::vector<Seen> one = run(1, true);
  EXPECT_EQ(assigns(one), 1);
  EXPECT_EQ(reap(pid0), 0);
  EXPECT_EQ(reap(pid1), 0);
}

// `clear fleet run --metrics-out` must account for every sample the
// workers simulated.  With heartbeats 60 s apart no periodic beat lands
// during the run, so the count can only come from the final heartbeat each
// worker sends on shutdown -- and only if the driver's shutdown linger
// feeds it through the frame handler instead of discarding it.
TEST(FleetE2E, MetricsOutCountsEverySampleAfterShutdown) {
  const pid_t pid0 = spawn_serve({"--socket", kDir + "/m0.sock", "--quiet",
                                  "--heartbeat-ms", "60000"});
  ASSERT_GT(pid0, 0);
  const pid_t pid1 = spawn_serve({"--socket", kDir + "/m1.sock", "--quiet",
                                  "--heartbeat-ms", "60000"});
  ASSERT_GT(pid1, 0);
  {
    // --no-cache: every sample is simulated, whatever earlier runs cached.
    std::ofstream spec(kDir + "/m.spec");
    spec << "--core InO --bench mcf --injections 240 --seed 5 --no-cache\n";
  }
  const std::string metrics = kDir + "/m.json";
  constexpr std::uint64_t kShards = 8, kWorkers = 2, kStanzas = 1;
  ASSERT_EQ(sh(kBin + " fleet run --spec " + kDir + "/m.spec --shards " +
               std::to_string(kShards) + " --out-dir " + kDir +
               "/m_out --shutdown --quiet --metrics-out " + metrics + " " +
               kDir + "/m0.sock " + kDir + "/m1.sock"),
            0);
  const std::string json = slurp(metrics);
  const auto counter = [&](const std::string& name) {
    const std::string key = "\"" + name + "\": ";
    const std::size_t at = json.find(key);
    EXPECT_NE(at, std::string::npos) << name << " in " << json;
    return at == std::string::npos
               ? 0
               : std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
  };
  EXPECT_EQ(counter("campaign.samples"), 240u) << json;
  // Every shard forks from a golden: recorded at most once per worker
  // and stanza, reused by the rest.
  const std::uint64_t goldens = counter("campaign.goldens");
  EXPECT_EQ(goldens + counter("campaign.golden.reused"), kShards * kStanzas)
      << json;
  EXPECT_LE(goldens, kWorkers * kStanzas) << json;

  EXPECT_EQ(reap(pid0), 0);
  EXPECT_EQ(reap(pid1), 0);
}

// `clear fleet run` itself: the CLI's running fold over arrivals, for a
// fixed-budget and an adaptive stanza at once, must write exactly the
// bytes `clear merge` makes of the K single-machine shard outputs.
TEST(FleetE2E, CliRunningMergeMatchesClearMergePerStanza) {
  const pid_t pid0 = spawn_serve({"--socket", kDir + "/r0.sock", "--quiet"});
  ASSERT_GT(pid0, 0);
  const pid_t pid1 = spawn_serve({"--socket", kDir + "/r1.sock", "--quiet"});
  ASSERT_GT(pid1, 0);
  const std::vector<std::string> stanzas = {
      "--core InO --bench mcf --injections 480 --seed 13",
      "--core InO --bench gcc --injections 480 --seed 13 --confidence 0.1",
  };
  {
    std::ofstream spec(kDir + "/r.spec");
    spec << stanzas[0] << "\n---\n" << stanzas[1] << "\n";
  }
  const std::string out = kDir + "/r_out";
  ASSERT_EQ(sh(kBin + " fleet run --spec " + kDir + "/r.spec --shards 8" +
               " --out-dir " + out + " --shutdown --quiet " + kDir +
               "/r0.sock " + kDir + "/r1.sock"),
            0);
  EXPECT_EQ(reap(pid0), 0);
  EXPECT_EQ(reap(pid1), 0);

  for (std::size_t i = 0; i < stanzas.size(); ++i) {
    const std::string ref = kDir + "/r_ref" + std::to_string(i);
    std::string merge_cmd = kBin + " merge --out " + ref + ".csr";
    for (int k = 0; k < 8; ++k) {
      const std::string part = ref + "_" + std::to_string(k) + ".csr";
      ASSERT_EQ(sh(kBin + " run " + stanzas[i] + " --shard " +
                   std::to_string(k) + "/8 --out " + part),
                0);
      merge_cmd += " " + part;
    }
    ASSERT_EQ(sh(merge_cmd), 0);
    const std::string got =
        slurp(out + "/campaign" + std::to_string(i) + ".csr");
    ASSERT_FALSE(got.empty()) << "stanza " << i;
    EXPECT_EQ(got, slurp(ref + ".csr")) << "stanza " << i;
  }
}

// `clear serve --workers N` fan-out driven as a fleet of explore shards:
// the children register under distinct "#i" identities and the merged
// ledger equals the in-process shard merge byte for byte.
TEST(FleetE2E, ServeFanOutExploreMatchesLocalMerge) {
  const pid_t parent = spawn_serve(
      {"--workers", "2", "--socket", kDir + "/f.sock", "--quiet"});
  ASSERT_GT(parent, 0);

  std::vector<fleet::Endpoint> workers;
  std::string err;
  ASSERT_TRUE(fleet::expand_endpoints({kDir + "/f.sock@2"}, &workers, &err));
  ASSERT_EQ(workers.size(), 2u);

  explore::ExploreSpec spec;
  std::string perr;
  ASSERT_TRUE(fleet::parse_explore_stanza(
      "--core InO --per-ff 1 --benches mcf --seed 1", &spec, &perr))
      << perr;
  const auto shards = fleet::build_explore_shards(spec, 2);

  fleet::FleetOptions opts;
  opts.shutdown_workers = true;
  std::vector<fleet::ShardResult> results;
  const auto report = fleet::run_fleet(
      workers, shards, opts, {},
      [&](const fleet::ShardResult& res) { results.push_back(res); });
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(report.workers_lost, 0u);
  // The hello identities are the fan-out children's "--name base#i".
  EXPECT_NE(report.workers[0].name, report.workers[1].name);
  EXPECT_NE(report.workers[0].name.find("#"), std::string::npos);
  EXPECT_GT(report.workers[0].capacity, 0u);

  std::vector<explore::Ledger> got;
  for (const auto& res : results) {
    ASSERT_EQ(res.payloads.size(), 1u);
    explore::Ledger ledger;
    ASSERT_EQ(explore::decode_ledger(res.payloads[0], &ledger),
              explore::LedgerStatus::kOk);
    got.push_back(std::move(ledger));
  }
  const explore::Ledger merged = explore::merge_ledger_files(got);
  EXPECT_TRUE(merged.complete());

  // In-process reference: the worker-side entry point on the same stanza
  // texts (cache-warm after the fleet run, so this is quick).
  std::vector<explore::Ledger> local;
  for (const auto& shard : shards) {
    explore::Ledger ledger;
    ASSERT_EQ(explore::decode_ledger(
                  fleet::run_explore_stanza(shard.text, nullptr), &ledger),
              explore::LedgerStatus::kOk);
    local.push_back(std::move(ledger));
  }
  EXPECT_EQ(explore::encode_ledger(merged),
            explore::encode_ledger(explore::merge_ledger_files(local)));

  EXPECT_EQ(reap(parent), 0);
}

// `clear fleet explore` itself: the CLI's running ledger fold over
// arrivals must write exactly the bytes `clear explore merge` makes of
// the K single-machine shard ledgers.
TEST(FleetE2E, CliFleetExploreMatchesExploreMerge) {
  const pid_t parent = spawn_serve(
      {"--workers", "2", "--socket", kDir + "/x.sock", "--quiet"});
  ASSERT_GT(parent, 0);
  const std::string spec = " --core InO --benches gcc --per-ff 1 --seed 3";
  ASSERT_EQ(sh(kBin + " fleet explore" + spec + " --shards 3 --ledger " +
               kDir + "/x.cxl --shutdown --quiet " + kDir + "/x.sock@2"),
            0);
  EXPECT_EQ(reap(parent), 0);

  std::string merge_cmd = kBin + " explore merge --out " + kDir + "/x_ref.cxl";
  for (int k = 0; k < 3; ++k) {
    const std::string part = kDir + "/x_ref" + std::to_string(k) + ".cxl";
    ASSERT_EQ(sh(kBin + " explore run" + spec + " --shard " +
                 std::to_string(k) + "/3 --ledger " + part + " --quiet"),
              0);
    merge_cmd += " " + part;
  }
  ASSERT_EQ(sh(merge_cmd), 0);
  const std::string got = slurp(kDir + "/x.cxl");
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got, slurp(kDir + "/x_ref.cxl"));
}

// ---- serve robustness ------------------------------------------------------

// `clear fleet run` driving one worker: spec, output directory and any
// extra flags, then the endpoint.
std::string fleet_run(const std::string& endpoint, const std::string& spec,
                      const std::string& out_dir,
                      const std::string& extra = "--quiet") {
  return kBin + " fleet run --spec " + kDir + "/" + spec + " --out-dir " +
         kDir + "/" + out_dir + " " + extra + " " + endpoint;
}

TEST(ServeRobustness, TwoConcurrentDriversBothGetExactBytes) {
  const pid_t daemon = spawn_serve({"--socket", kDir + "/c.sock", "--quiet"});
  ASSERT_GT(daemon, 0);
  {
    std::ofstream a(kDir + "/a.spec");
    a << "--core InO --bench gcc --injections 60 --seed 3\n";
    std::ofstream b(kDir + "/b.spec");
    b << "--core InO --bench mcf --injections 60 --seed 3\n";
  }
  int rc_a = -1, rc_b = -1;
  // Thread-per-connection: both drivers make progress simultaneously
  // instead of queueing behind the accept loop.
  std::thread ta(
      [&] { rc_a = sh(fleet_run(kDir + "/c.sock", "a.spec", "got_a")); });
  std::thread tb(
      [&] { rc_b = sh(fleet_run(kDir + "/c.sock", "b.spec", "got_b")); });
  ta.join();
  tb.join();
  EXPECT_EQ(rc_a, 0);
  EXPECT_EQ(rc_b, 0);

  ASSERT_EQ(sh(kBin + " run --core InO --bench gcc --injections 60 --seed 3" +
               " --out " + kDir + "/ref_a.csr"),
            0);
  ASSERT_EQ(sh(kBin + " run --core InO --bench mcf --injections 60 --seed 3" +
               " --out " + kDir + "/ref_b.csr"),
            0);
  const std::string got_a = slurp(kDir + "/got_a/campaign0.csr");
  const std::string got_b = slurp(kDir + "/got_b/campaign0.csr");
  ASSERT_FALSE(got_a.empty());
  ASSERT_FALSE(got_b.empty());
  EXPECT_EQ(got_a, slurp(kDir + "/ref_a.csr"));
  EXPECT_EQ(got_b, slurp(kDir + "/ref_b.csr"));

  ::kill(daemon, SIGTERM);
  EXPECT_EQ(reap(daemon), 0);
}

// What a worker computes depends on the stanza alone: a daemon whose
// environment names a confidence target, an interval method and a sample
// scale returns the bytes `clear run` writes for the same manifest
// without them.
TEST(ServeRobustness, WorkerEnvironmentDoesNotChangeResultBytes) {
  const pid_t daemon = spawn_serve(
      {"--socket", kDir + "/env.sock", "--quiet"},
      {"CLEAR_CONFIDENCE=0.1", "CLEAR_CONFIDENCE_METHOD=cp",
       "CLEAR_INJECTIONS=5"});
  ASSERT_GT(daemon, 0);
  {
    std::ofstream spec(kDir + "/env.spec");
    spec << "--core InO --bench gcc --injections 60 --seed 29\n";
  }
  EXPECT_EQ(sh(fleet_run(kDir + "/env.sock", "env.spec", "env_out",
                         "--shutdown --quiet")),
            0);
  ASSERT_EQ(sh("env -u CLEAR_CONFIDENCE -u CLEAR_CONFIDENCE_METHOD "
               "-u CLEAR_INJECTIONS " +
               kBin + " run --spec " + kDir + "/env.spec --out " + kDir +
               "/env_ref.csr"),
            0);
  const std::string got = slurp(kDir + "/env_out/campaign0.csr");
  ASSERT_FALSE(got.empty());
  EXPECT_TRUE(got == slurp(kDir + "/env_ref.csr"))
      << "the worker's .csr differs from clear run's";
  EXPECT_EQ(reap(daemon), 0);
}

TEST(ServeRobustness, HelloDeadlineBoundsASilentServer) {
  // A listener that never speaks: connect succeeds (the kernel completes
  // it from the backlog), the CSV1 hello never arrives.
  const std::string path = kDir + "/silent.sock";
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(fd, 1), 0);
  {
    std::ofstream spec(kDir + "/silent.spec");
    spec << "--core InO --bench mcf --injections 60 --seed 3\n";
  }
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(sh(fleet_run(path, "silent.spec", "silent_out",
                         "--hello-timeout-ms 300 --quiet 2>&1")),
            1);
  // The deadline fired: no multi-second hang, no indefinite block.
  EXPECT_LT(std::chrono::steady_clock::now() - start, 10s);
  ::close(fd);
}

// --shutdown holds when the driver refuses the manifest itself, before
// anything is dispatched: the daemon still exits, under both fleet verbs,
// and the exit code is the refusal's.
TEST(ServeRobustness, ShutdownStopsTheDaemonEvenWhenRefused) {
  const pid_t daemon = spawn_serve({"--socket", kDir + "/r.sock", "--quiet"});
  ASSERT_GT(daemon, 0);
  {
    std::ofstream spec(kDir + "/unresolvable.spec");
    spec << "--core InO --bench no_such_bench_xyz\n";
  }
  EXPECT_EQ(sh(fleet_run(kDir + "/r.sock", "unresolvable.spec",
                         "refused_out", "--shutdown --quiet 2>&1")),
            1);
  EXPECT_EQ(reap(daemon), 0);

  const pid_t explorer =
      spawn_serve({"--socket", kDir + "/rx.sock", "--quiet"});
  ASSERT_GT(explorer, 0);
  EXPECT_EQ(sh(kBin + " fleet explore --core NoSuchCore --ledger " + kDir +
               "/refused.cxl --shutdown --quiet " + kDir + "/rx.sock 2>&1"),
            2);
  EXPECT_EQ(reap(explorer), 0);
  EXPECT_FALSE(std::filesystem::exists(kDir + "/refused.cxl"));
}

// A daemon frozen mid-job sends no heartbeats: the driver declares it
// dead after its 5 s dead deadline instead of blocking forever.
TEST(ServeRobustness, DriverGivesUpOnAStoppedDaemon) {
  const pid_t daemon = spawn_serve({"--socket", kDir + "/z.sock", "--quiet"});
  ASSERT_GT(daemon, 0);
  wait_for_file(kDir + "/z.sock");
  {
    std::ofstream spec(kDir + "/frozen.spec");
    // Cache-cold and seconds long: still mid-simulation at the stop.
    spec << "--core InO --bench gcc --injections 8000000 --seed 23 "
            "--no-cache\n";
  }
  int rc = -2;
  std::thread driver([&rc] {
    rc = sh(fleet_run(kDir + "/z.sock", "frozen.spec", "frozen_out",
                      "--quiet 2>&1"));
  });
  std::this_thread::sleep_for(700ms);
  EXPECT_EQ(::kill(daemon, SIGSTOP), 0);
  const auto stopped_at = std::chrono::steady_clock::now();
  driver.join();
  EXPECT_EQ(rc, 1);
  EXPECT_LT(std::chrono::steady_clock::now() - stopped_at, 5s + 5s);
  ::kill(daemon, SIGCONT);
  ::kill(daemon, SIGTERM);
  EXPECT_EQ(reap(daemon), 0);
}

TEST(ServeRobustness, SigtermCancelsInflightJobAndExitsPromptly) {
  const pid_t daemon = spawn_serve({"--socket", kDir + "/t.sock", "--quiet"});
  ASSERT_GT(daemon, 0);
  wait_for_file(kDir + "/t.sock");
  {
    std::ofstream spec(kDir + "/long.spec");
    // Cache-cold and big enough to still be mid-simulation at the signal.
    spec << "--core InO --bench gcc --injections 40000 --seed 19\n";
  }
  ASSERT_EQ(sh(fleet_run(kDir + "/t.sock", "long.spec", "long_out") +
               " 2>&1 &"),
            0);
  std::this_thread::sleep_for(700ms);
  ASSERT_EQ(::kill(daemon, SIGTERM), 0);
  // handle_connection polls g_stop: the in-flight job is cancelled and
  // the daemon drains well inside the reap window.
  EXPECT_EQ(reap(daemon), 0);
}

}  // namespace
