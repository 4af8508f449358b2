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
//   * pull dispatch / work-stealing: shards live in one shared queue;
//     every worker holds up to two -- one running, one queued behind it
//     in the worker's engine, so it starts the next shard the moment the
//     previous one ends -- and pulls again as each completes, so fast
//     workers naturally absorb more of the queue than slow ones;
//   * ack deadlines: a dispatched shard the worker does not acknowledge
//     in time is revoked with a kSteal frame and re-queued for the next
//     idle worker;
//   * dead-worker redispatch: a worker that stops sending frames
//     (heartbeats included) past the deadline -- or whose connection
//     drops -- is declared dead and its outstanding shards return to the
//     front of the queue.  Re-execution is always safe: a shard's result
//     derives from the global sample/combo index alone, so whichever
//     worker completes it produces bit-identical bytes, and duplicate
//     completions are de-duplicated by shard id;
//   * live re-merge: each completed shard's payloads are handed once to a
//     callback and not kept, so `clear fleet` folds every arrival into
//     one running merge_shard_files / merge_ledger_files output that is
//     watchable while the campaign is still running.
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

#include "engine/engine.h"
#include "engine/protocol.h"
#include "explore/explore.h"
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
// appended.  Stanzas that already pick a shard, an output file or a
// nested spec are refused (those direct a local CLI, not a fleet).
// Returns false and fills *error on a malformed manifest.
bool build_campaign_shards(const std::string& manifest,
                           std::uint32_t shard_count,
                           std::vector<ShardWork>* out, std::string* error);

// Builds the K combo-space shards of an exploration: shard k's stanza is
// `spec` serialized to `clear explore run` flag tokens with --shard k/K.
[[nodiscard]] std::vector<ShardWork> build_explore_shards(
    const explore::ExploreSpec& spec, std::uint32_t shard_count);

// Parses one explore flag stanza (the `clear explore run` grammar subset
// a fleet dispatches: --core/--target/--metric/--seed/--per-ff/--benches/
// --batch/--no-prune/--shard) into a spec.  Returns false + *error on an
// unknown flag or bad value.  Shared by build_explore_shards' inverse --
// the `clear serve` worker executing a kExplore shard.
bool parse_explore_stanza(const std::string& text,
                          explore::ExploreSpec* spec, std::string* error);

// Executes one explore shard stanza in memory and returns the encoded
// `.cxl` ledger bytes.  `cancel` (optional) is polled at combo seams;
// `progress` (optional) streams combo counters.  Throws
// explore::ExploreCancelled when the flag flips, std::invalid_argument on
// a bad stanza (a kBadRequest at the daemon), std::runtime_error on
// execution failure.  This is the worker-side entry point for
// serve::ShardKind::kExplore.
[[nodiscard]] std::string run_explore_stanza(
    const std::string& text, const std::atomic<bool>* cancel,
    const explore::ProgressFn& progress = {});

// ---- the driver ------------------------------------------------------------

struct FleetOptions {
  int connect_retry_ms = 5000;  // per-worker connect retry budget
  int hello_timeout_ms = 10000;  // silent-after-accept hello deadline
  int dead_after_ms = 5000;  // no frame for this long -> worker is dead
  int ack_timeout_ms = 3000;  // unacked shard-assign -> steal + requeue
  int max_attempts = 3;       // kFailed executions per shard before giving up
  engine::JobPriority priority = engine::JobPriority::kBulk;
  bool shutdown_workers = false;  // send kShutdown to live workers at the end
  // Live fleet status file ("" = off): the driver rewrites this JSON
  // (schema clear-fleet-status-v1, tmp + atomic rename) every
  // status_interval_ms with the shard tally, the worker registry and each
  // worker's latest heartbeat metric snapshot.  `clear explore watch
  // --status FILE` and `clear status --file FILE` render it.
  std::string status_out;
  int status_interval_ms = 1000;
};

enum class WorkerState : std::uint8_t {
  kConnecting = 0,
  kIdle = 1,
  kBusy = 2,
  kDead = 3,
};

[[nodiscard]] const char* worker_state_name(WorkerState s) noexcept;

// Registry entry, as reported back to the CLI/tests.
struct WorkerStatus {
  std::size_t index = 0;     // position in the endpoint list
  std::string endpoint;      // Endpoint::display()
  std::string name;          // hello identity ("host:pid" by default)
  std::uint32_t capacity = 0;  // hello capacity (worker pool width)
  WorkerState state = WorkerState::kConnecting;
  std::size_t shards_done = 0;
  // Telemetry from the worker's latest heartbeat: its in-flight work item
  // count and, when the heartbeat carried a CMS1 tail, its metric
  // snapshot (has_metrics distinguishes "no tail yet" from "all zero").
  std::uint32_t inflight = 0;
  bool has_metrics = false;
  obs::Snapshot metrics;
};

// Scheduling events, delivered synchronously from run_fleet's loop.
// Tests hook these (e.g. to SIGKILL a worker mid-shard); the CLI logs
// them.
struct FleetEvent {
  enum class Kind : std::uint8_t {
    kWorkerUp = 0,    // hello received, worker registered
    kWorkerDead = 1,  // heartbeat deadline passed or connection dropped
    kAssign = 2,      // shard dispatched to the worker (it may still be
                      // running its previous shard)
    kAck = 3,         // worker acknowledged the shard
    kProgress = 4,    // progress frame for the worker's running shard
    kShardDone = 5,   // shard completed (first completion only)
    kRequeue = 6,     // shard returned to the queue (steal or death)
  };
  Kind kind = Kind::kWorkerUp;
  std::size_t worker = 0;
  std::string worker_name;
  std::uint64_t shard_id = 0;  // kWorkerDead: the running shard (0 = none)
  std::string detail;          // kWorkerDead: why the driver declared it
  engine::JobProgress progress;  // kProgress only
};
using EventFn = std::function<void(const FleetEvent&)>;

// One completed shard: the payload frames its worker returned, in result
// order (campaign shards: one `.csr` per manifest stanza; explore shards:
// exactly one `.cxl`).  Valid only during the ShardDoneFn call.
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
  std::size_t redispatched = 0;  // requeues (ack steals + dead workers)
  std::size_t workers_lost = 0;  // workers declared dead during the run
};

// Runs one fleet: connects + registers `workers`, dispatches every shard
// in `shards` until all have completed, and returns the registry.
// `on_shard` fires once per shard as it completes, inside the dispatch
// loop (keep it O(payload)); a caller wanting every payload keeps them.
// Throws std::runtime_error on a duplicate shard id, when no registered
// worker remains alive with work pending, when a shard fails more than
// max_attempts times, or immediately on a kBadRequest refusal (a
// malformed shard is deterministic: every worker would refuse it).
FleetReport run_fleet(const std::vector<Endpoint>& workers,
                      const std::vector<ShardWork>& shards,
                      const FleetOptions& opts, const EventFn& event = {},
                      const ShardDoneFn& on_shard = {});

}  // namespace clear::fleet

#endif  // CLEAR_FLEET_FLEET_H
