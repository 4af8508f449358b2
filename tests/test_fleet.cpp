// Fleet orchestrator tests: protocol v2 codecs (hello identity, shard
// assign/ack, steal, heartbeat) with bit-flip refusal, endpoint grammar
// and @N fan-out expansion, shard builders (campaign manifest sharding,
// explore stanza round-trip, forbidden-flag refusal, duplicate shard
// ids), worker-side explore execution + cancellation, the worker's
// connection handler driven in-process over a socketpair (including a
// steal of the queued second shard), and the multi-process end-to-ends of
// the acceptance criteria: a worker SIGKILLed mid-shard -- also while
// holding two shards -- whose shards are redispatched and whose merged
// bytes still equal the single-machine merge, the level-by-level
// two-deep dispatch order, `clear fleet run`'s running
// merge against `clear merge` of the same partition, `clear serve
// --workers N` fan-out driven as a fleet, two concurrent submitters
// against one daemon, the submit hello deadline against a silent server,
// and SIGTERM draining an in-flight daemon.
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
#include <string>
#include <thread>
#include <vector>

#include "engine/protocol.h"
#include "explore/explore.h"
#include "explore/ledger.h"
#include "fleet/fleet.h"
#include "fleet/worker.h"
#include "inject/wire.h"

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
// its pid, so a test can SIGKILL exactly one worker of a fleet.
pid_t spawn_serve(const std::vector<std::string>& extra_args) {
  std::vector<std::string> store = {kBin, "serve"};
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
  ::execv(kBin.c_str(), argv.data());
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
  a.priority = engine::JobPriority::kInteractive;
  a.text = "--core InO --per-ff 1 --shard 3/8";
  serve::ShardAssign a2;
  ASSERT_TRUE(serve::decode_shard_assign(serve::encode_shard_assign(a), &a2));
  EXPECT_EQ(a2.shard_id, a.shard_id);
  EXPECT_EQ(a2.kind, serve::ShardKind::kExplore);
  EXPECT_EQ(a2.priority, engine::JobPriority::kInteractive);
  EXPECT_EQ(a2.text, a.text);

  serve::ShardAck k;
  k.shard_id = 77;
  k.status = serve::ShardAckStatus::kRevoked;
  serve::ShardAck k2;
  ASSERT_TRUE(serve::decode_shard_ack(serve::encode_shard_ack(k), &k2));
  EXPECT_EQ(k2.shard_id, 77u);
  EXPECT_EQ(k2.status, serve::ShardAckStatus::kRevoked);

  std::uint64_t stolen = 0;
  ASSERT_TRUE(serve::decode_steal(serve::encode_steal(99), &stolen));
  EXPECT_EQ(stolen, 99u);

  std::uint32_t inflight = 0;
  ASSERT_TRUE(serve::decode_heartbeat(serve::encode_heartbeat(5), &inflight));
  EXPECT_EQ(inflight, 5u);

  // Truncated payloads are refused, never misparsed.
  EXPECT_FALSE(serve::decode_shard_assign("short", &a2));
  EXPECT_FALSE(serve::decode_shard_ack("1234", &k2));
  EXPECT_FALSE(serve::decode_steal("1234", &stolen));
  EXPECT_FALSE(serve::decode_heartbeat("12", &inflight));
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

// ---- the worker, in-process ------------------------------------------------

TEST(FleetWorker, ConnectionHandlerAnswersOverASocketpair) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  fleet::WorkerOptions opts;
  opts.hello = fleet::worker_hello("in-process");
  opts.quiet = true;
  opts.heartbeat_ms = 0;  // only the frames this test asks for
  fleet::Worker worker(opts);
  bool shutdown = false;
  std::thread handler([&worker, &shutdown, fd = fds[0]] {
    shutdown = worker.handle_connection(serve::FrameConn(util::Socket(fd)));
  });
  serve::FrameConn client{util::Socket(fds[1])};
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

    // Stealing a shard this worker never held.
    ASSERT_TRUE(client.send(serve::FrameType::kSteal, serve::encode_steal(42)));
    ASSERT_EQ(client.recv(&frame, 5000), Recv::kFrame);
    ASSERT_EQ(frame.type, serve::FrameType::kShardAck);
    serve::ShardAck ack;
    ASSERT_TRUE(serve::decode_shard_ack(frame.payload, &ack));
    EXPECT_EQ(ack.shard_id, 42u);
    EXPECT_EQ(ack.status, serve::ShardAckStatus::kUnknown);

    // A job frame with no priority byte.
    ASSERT_TRUE(client.send(serve::FrameType::kJob, ""));
    ASSERT_EQ(client.recv(&frame, 5000), Recv::kFrame);
    ASSERT_EQ(frame.type, serve::FrameType::kDone);
    serve::Done done;
    ASSERT_TRUE(serve::decode_done(frame.payload, &done));
    EXPECT_EQ(done.outcome, serve::JobOutcome::kBadRequest);

    // kShutdown ends the handler, which closes its end.
    ASSERT_TRUE(client.send(serve::FrameType::kShutdown, ""));
    EXPECT_EQ(client.recv(&frame, 5000), Recv::kClosed);
  };
  converse();
  client.close();  // releases the handler if the conversation failed early
  handler.join();
  EXPECT_TRUE(shutdown);
}

// A pipelining driver keeps a second shard queued behind the running one.
// Stealing the queued shard revokes it (no kDone will ever come for it)
// while the front shard still delivers its kResult and kDone.
TEST(FleetWorker, StealingTheQueuedShardLeavesTheFrontRunning) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  fleet::WorkerOptions opts;
  opts.hello = fleet::worker_hello("in-process");
  opts.quiet = true;
  opts.heartbeat_ms = 0;  // only the frames this test asks for
  fleet::Worker worker(opts);
  std::thread handler([&worker, fd = fds[0]] {
    (void)worker.handle_connection(serve::FrameConn(util::Socket(fd)));
  });
  serve::FrameConn client{util::Socket(fds[1])};
  using Recv = serve::FrameConn::Recv;

  const auto converse = [&] {
    serve::Frame frame;
    ASSERT_EQ(client.recv(&frame, 5000), Recv::kFrame);
    ASSERT_EQ(frame.type, serve::FrameType::kHello);

    // Two cache-cold shards back to back: the engine runs them in
    // submission order, so shard 2 waits behind shard 1.
    for (std::uint64_t id : {1u, 2u}) {
      serve::ShardAssign assign;
      assign.shard_id = id;
      assign.text = "--core InO --bench mcf --injections 2000 --seed 43 "
                    "--no-cache --shard " + std::to_string(id - 1) + "/2";
      ASSERT_TRUE(client.send(serve::FrameType::kShardAssign,
                              serve::encode_shard_assign(assign)));
    }
    for (std::uint64_t id : {1u, 2u}) {
      ASSERT_EQ(client.recv(&frame, 5000), Recv::kFrame);
      ASSERT_EQ(frame.type, serve::FrameType::kShardAck);
      serve::ShardAck ack;
      ASSERT_TRUE(serve::decode_shard_ack(frame.payload, &ack));
      EXPECT_EQ(ack.shard_id, id);
      EXPECT_EQ(ack.status, serve::ShardAckStatus::kAccepted);
    }
    ASSERT_TRUE(client.send(serve::FrameType::kSteal, serve::encode_steal(2)));

    // Progress of the front may interleave; the revocation, the front's
    // result and its done must all arrive.
    bool revoked = false;
    std::size_t results = 0;
    std::size_t dones = 0;
    while (dones == 0 || !revoked) {
      ASSERT_EQ(client.recv(&frame, 30000), Recv::kFrame);
      if (frame.type == serve::FrameType::kShardAck) {
        serve::ShardAck ack;
        ASSERT_TRUE(serve::decode_shard_ack(frame.payload, &ack));
        EXPECT_EQ(ack.shard_id, 2u);
        EXPECT_EQ(ack.status, serve::ShardAckStatus::kRevoked);
        revoked = true;
      } else if (frame.type == serve::FrameType::kResult) {
        std::uint32_t index = 99;
        std::string bytes;
        ASSERT_TRUE(serve::decode_result(frame.payload, &index, &bytes));
        EXPECT_EQ(index, 0u);
        inject::ShardFile shard;
        EXPECT_EQ(inject::decode_shard(bytes, &shard), inject::WireStatus::kOk);
        ++results;
      } else if (frame.type == serve::FrameType::kDone) {
        serve::Done done;
        ASSERT_TRUE(serve::decode_done(frame.payload, &done));
        EXPECT_EQ(done.outcome, serve::JobOutcome::kOk);
        ++dones;
      } else {
        ASSERT_EQ(frame.type, serve::FrameType::kProgress);
      }
    }
    EXPECT_EQ(results, 1u);
    EXPECT_EQ(dones, 1u);

    // The revoked shard retires silently: nothing but progress of the
    // front remains before the handler closes on kShutdown.
    ASSERT_TRUE(client.send(serve::FrameType::kShutdown, ""));
    Recv got;
    while ((got = client.recv(&frame, 30000)) == Recv::kFrame) {
      EXPECT_EQ(frame.type, serve::FrameType::kProgress);
    }
    EXPECT_EQ(got, Recv::kClosed);
  };
  converse();
  client.close();  // releases the handler if the conversation failed early
  handler.join();
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

TEST(FleetShards, ExploreStanzaHonoursPreSetCancel) {
  std::atomic<bool> cancel{true};
  EXPECT_THROW(
      (void)fleet::run_explore_stanza(
          "--core InO --per-ff 1 --benches mcf --shard 0/64", &cancel),
      explore::ExploreCancelled);
  EXPECT_THROW((void)fleet::run_explore_stanza("--bogus", nullptr),
               std::invalid_argument);
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
  ASSERT_EQ(sh(kBin + " fleet run --spec " + kDir + "/m.spec --shards 4" +
               " --out-dir " + kDir + "/m_out --shutdown --quiet" +
               " --metrics-out " + metrics + " " + kDir + "/m0.sock " + kDir +
               "/m1.sock"),
            0);
  const std::string json = slurp(metrics);
  const std::string key = "\"campaign.samples\": ";
  const std::size_t at = json.find(key);
  ASSERT_NE(at, std::string::npos) << json;
  EXPECT_EQ(std::strtoull(json.c_str() + at + key.size(), nullptr, 10), 240u)
      << json;

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

// ---- serve/submit robustness ----------------------------------------------

TEST(ServeRobustness, TwoConcurrentSubmittersBothGetExactBytes) {
  const pid_t daemon = spawn_serve({"--socket", kDir + "/c.sock", "--quiet"});
  ASSERT_GT(daemon, 0);
  {
    std::ofstream a(kDir + "/a.spec");
    a << "--core InO --bench gcc --injections 60 --seed 3\n";
    std::ofstream b(kDir + "/b.spec");
    b << "--core InO --bench mcf --injections 60 --seed 3\n";
  }
  int rc_a = -1, rc_b = -1;
  // Thread-per-connection: both clients make progress simultaneously
  // instead of queueing behind the accept loop.
  std::thread ta([&] {
    rc_a = sh(kBin + " submit --socket " + kDir + "/c.sock --spec " + kDir +
              "/a.spec --out-dir " + kDir + "/got_a --quiet");
  });
  std::thread tb([&] {
    rc_b = sh(kBin + " submit --socket " + kDir + "/c.sock --spec " + kDir +
              "/b.spec --out-dir " + kDir + "/got_b --quiet");
  });
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

TEST(ServeRobustness, SubmitHelloDeadlineBoundsASilentServer) {
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
  EXPECT_EQ(sh(kBin + " submit --socket " + path + " --spec " + kDir +
               "/silent.spec --out-dir " + kDir +
               "/silent_out --hello-timeout-ms 300 --quiet 2>&1"),
            1);
  // The deadline fired: no multi-second hang, no indefinite block.
  EXPECT_LT(std::chrono::steady_clock::now() - start, 10s);
  ::close(fd);
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
  ASSERT_EQ(sh(kBin + " submit --socket " + kDir + "/t.sock --spec " + kDir +
               "/long.spec --out-dir " + kDir + "/long_out --quiet 2>&1 &"),
            0);
  std::this_thread::sleep_for(700ms);
  ASSERT_EQ(::kill(daemon, SIGTERM), 0);
  // handle_connection polls g_stop: the in-flight job is cancelled and
  // the daemon drains well inside the reap window.
  EXPECT_EQ(reap(daemon), 0);
}

}  // namespace
