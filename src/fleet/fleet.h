// Fleet orchestrator: the driver side of the paper's cluster campaigns.
//
// The paper ran ~9M injection runs across a BEE3 FPGA cluster plus the
// Stampede supercomputer; this is the software equivalent of the machine
// that kept those nodes fed.  A fleet driver connects to any number of
// `clear serve` workers (the CSV1 protocol, engine/protocol.h), registers
// them from their hello (identity + capacity), and schedules a list of
// shards -- campaign shards (`clear run --shard k/K` manifests) or explore
// combo-space slices -- across the registry:
//
//   * pull dispatch: shards live in one shared queue; every worker holds
//     up to two -- one running, one queued behind it in the worker's
//     engine, so it starts the next shard the moment the previous one
//     ends -- and pulls again as each completes, so fast workers
//     naturally absorb more of the queue than slow ones;
//   * dead-worker redispatch: the one liveness rule.  A worker that stops
//     sending frames (heartbeats included) past the deadline -- or whose
//     connection drops -- is declared dead and its outstanding shards
//     return to the front of the queue.  A live worker keeps its shards,
//     so each shard is in exactly one place, and completes exactly once.
//     Re-execution is always safe: a shard's result derives from the
//     global sample/combo index alone, so whichever worker completes it
//     produces bit-identical bytes;
//   * live re-merge: each completed shard's payloads are handed once to a
//     callback and not kept; `clear fleet` folds every arrival in place
//     (inject::fold_shard / explore::fold_ledger) into output files that
//     are watchable while the campaign is still running.
//
// The worker end of the same protocol is fleet/worker.h; both ends read
// and write through serve::FrameConn.  `clear fleet` (src/cli/cli_fleet.cpp)
// is the CLI; docs/ARCHITECTURE.md shows the data flow.
#ifndef CLEAR_FLEET_FLEET_H
#define CLEAR_FLEET_FLEET_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/protocol.h"
#include "explore/explore.h"
#include "fleet/status.h"
#include "obs/metrics.h"

namespace clear::fleet {

// One worker address: a UNIX socket path, or 127.0.0.1:`port` when the
// path is empty (the same two transports `clear serve` listens on).
struct Endpoint {
  std::string socket_path;
  std::uint16_t port = 0;

  [[nodiscard]] std::string display() const;
  // Connects, retrying a refused or not-yet-bound endpoint for up to
  // retry_ms (daemon startup race).  Throws std::runtime_error.
  [[nodiscard]] serve::FrameConn connect(int retry_ms) const;
};

// Why a worker's hello did not register it.
enum class HelloFault : std::uint8_t {
  kNone = 0,     // hello read, every version matches this binary's
  kNoHello,      // no frame before the deadline, or the peer closed
  kBadStream,    // the first bytes are not a CSV1 frame
  kBadHello,     // a frame arrived, but not a decodable hello
  kVersionSkew,  // protocol, .csr or .cxl version differs from ours
};

// "no-hello", "bad-stream", "bad-hello", "version-skew" ("ok" for kNone):
// the states `clear status` reports for a worker that failed its hello.
[[nodiscard]] const char* hello_fault_name(HelloFault f) noexcept;

// Reads the hello a worker opens every connection with, waiting up to
// timeout_ms, and checks its protocol, .csr and .cxl versions against
// this binary's.  *out receives the decoded hello (also on kVersionSkew);
// on a fault, *why says what was wrong in words a log line can carry.
HelloFault read_hello(serve::FrameConn* conn, int timeout_ms,
                      serve::Hello* out, std::string* why);

// Parses one endpoint operand: "tcp:PORT" -> loopback TCP, anything else
// is a UNIX socket path.  Returns false (and fills *error) on a bad port.
bool parse_endpoint(const std::string& text, Endpoint* out,
                    std::string* error);

// Expands a list of endpoint operands; "path@N" expands to path.0 ..
// path.N-1 and "tcp:PORT@N" to ports PORT .. PORT+N-1, matching the
// socket names `clear serve --workers N` fans its children out on.
bool expand_endpoints(const std::vector<std::string>& operands,
                      std::vector<Endpoint>* out, std::string* error);

// One schedulable unit: an id (unique within the fleet run), the kind of
// work, and its spec text (grammar owned by the kind -- see
// serve::ShardKind).
struct ShardWork {
  std::uint64_t id = 0;
  serve::ShardKind kind = serve::ShardKind::kCampaign;
  std::string text;
};

// Builds the K campaign shards of a multi-campaign manifest: each shard's
// manifest carries every stanza of `manifest` with `--shard k/K`
// appended.  Every stanza is resolved once first, at plan::Site::kFleet:
// flags that pick a shard, an output file or a nested spec are refused
// (see the refusal table in plan/runplan.cpp).  Returns false and fills
// *error on a manifest no worker could resolve; an unknown benchmark
// throws, as at the worker.
bool build_campaign_shards(const std::string& manifest,
                           std::uint32_t shard_count,
                           std::vector<ShardWork>* out, std::string* error);

// Builds the K combo-space shards of an exploration: shard k's stanza is
// explore::spec_flags(spec) with --shard k/K appended.
[[nodiscard]] std::vector<ShardWork> build_explore_shards(
    const explore::ExploreSpec& spec, std::uint32_t shard_count);

// Parses one explore shard stanza -- the explore identity flags
// (explore::add_spec_flags) plus --shard -- into a spec: the inverse of
// build_explore_shards, run by the worker executing a kExplore shard.
// Returns false + *error on an unknown flag or a value that does not
// parse.
bool parse_explore_stanza(const std::string& text,
                          explore::ExploreSpec* spec, std::string* error);

// Executes one explore shard stanza in memory and returns the encoded
// `.cxl` ledger bytes.  `cancel` (optional) is polled at combo seams.
// Throws
// explore::ExploreCancelled when the flag flips, std::invalid_argument on
// a bad stanza (a kBadRequest at the daemon), std::runtime_error on
// execution failure.  This is the worker-side entry point for
// serve::ShardKind::kExplore.
[[nodiscard]] std::string run_explore_stanza(const std::string& text,
                                             const std::atomic<bool>* cancel);

// ---- the driver ------------------------------------------------------------

struct FleetOptions {
  int connect_retry_ms = 5000;  // per-worker connect retry budget
  int hello_timeout_ms = 10000;  // silent-after-accept hello deadline
  int dead_after_ms = 5000;  // no frame for this long -> worker is dead
  // Send kShutdown to live workers when the run ends -- completed or
  // failed alike, so a refused shard does not leave the daemons up.
  bool shutdown_workers = false;
  // Live fleet status file ("" = off): the driver rewrites this JSON
  // (schema clear-fleet-status-v1, fleet/status.h; tmp + atomic rename)
  // at most once a second with the shard tally, the worker registry and
  // each worker's latest heartbeat metric snapshot.  `clear explore watch
  // --status FILE` and `clear status --file FILE` render it.
  std::string status_out;
};

enum class WorkerState : std::uint8_t {
  kConnecting = 0,
  kIdle = 1,
  kBusy = 2,
  kDead = 3,
};

// Registry entry, as reported back to the CLI/tests.
struct WorkerStatus {
  std::size_t index = 0;     // position in the endpoint list
  std::string endpoint;      // Endpoint::display()
  std::string name;          // hello identity ("host:pid" by default)
  std::uint32_t capacity = 0;  // hello capacity (worker pool width)
  WorkerState state = WorkerState::kConnecting;
  std::size_t shards_done = 0;
  // Telemetry from the worker's latest heartbeat: its in-flight work item
  // count and its metric snapshot (has_metrics distinguishes "no
  // heartbeat yet" from "all zero").
  std::uint32_t inflight = 0;
  bool has_metrics = false;
  obs::Snapshot metrics;
};

// A registry entry as a row of the status document (fleet/status.h): what
// --status-out writes and the CLI's end-of-run registry draws.
[[nodiscard]] StatusRow status_row(const WorkerStatus& w);

// Scheduling events, delivered synchronously from run_fleet's loop.
// Tests hook these (e.g. to SIGKILL a worker mid-shard); the CLI logs
// them.
struct FleetEvent {
  enum class Kind : std::uint8_t {
    kWorkerUp = 0,    // hello received, worker registered
    kWorkerDead = 1,  // heartbeat deadline passed, connection dropped, or
                      // the worker never registered (unreachable, or its
                      // hello failed read_hello)
    kAssign = 2,      // shard dispatched to the worker (it may still be
                      // running its previous shard)
    kAck = 3,         // worker acknowledged the shard
    kShardDone = 4,   // shard completed
    kRequeue = 5,     // shard returned to the queue (worker death, or a
                      // failed or cancelled execution)
  };
  Kind kind = Kind::kWorkerUp;
  std::size_t worker = 0;
  std::string worker_name;
  std::uint64_t shard_id = 0;  // kWorkerDead: the running shard (0 = none)
  std::string detail;          // kWorkerDead: why the driver declared it
};
using EventFn = std::function<void(const FleetEvent&)>;

// One completed shard: the payload frames its worker returned, results
// 0..n-1 without a gap (campaign shards: one `.csr` per manifest stanza;
// explore shards: exactly one `.cxl`).  Valid only during the call.
struct ShardResult {
  std::uint64_t shard_id = 0;
  serve::ShardKind kind = serve::ShardKind::kCampaign;
  std::size_t worker = 0;  // registry index of the completing worker
  std::vector<std::string> payloads;
};
using ShardDoneFn = std::function<void(const ShardResult&)>;

// Registry + tallies only: payloads reach the caller through on_shard.
struct FleetReport {
  std::vector<WorkerStatus> workers;
  std::size_t redispatched = 0;  // requeues (dead workers, failed shards)
  std::size_t workers_lost = 0;  // workers declared dead during the run
};

// Runs one fleet: connects + registers `workers`, dispatches every shard
// in `shards` until all have completed, and returns the registry.
// `on_shard` fires once per shard as it completes, inside the dispatch
// loop (keep it O(payload)); a caller wanting every payload keeps them.
// Throws std::runtime_error on a duplicate shard id, when no registered
// worker remains alive with work pending, when a shard fails
// kMaxAttempts (fleet.cpp) times, or immediately on a kBadRequest refusal (a
// malformed shard is deterministic: every worker would refuse it) --
// after shutting the live workers down when opts.shutdown_workers asks.
FleetReport run_fleet(const std::vector<Endpoint>& workers,
                      const std::vector<ShardWork>& shards,
                      const FleetOptions& opts, const EventFn& event = {},
                      const ShardDoneFn& on_shard = {});

}  // namespace clear::fleet

#endif  // CLEAR_FLEET_FLEET_H
