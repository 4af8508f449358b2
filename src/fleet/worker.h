// The worker end of CSV1 (engine/protocol.h): the `clear serve` daemon.
//
// A Worker accepts shard assignments (multi-campaign manifests in the
// `clear run --spec` grammar, or explore stanzas), runs them on the
// process-wide execution engine (explore shards through
// run_explore_stanza), beats a periodic heartbeat (the driver's one
// liveness signal, carrying the worker's metric snapshot), and returns
// each campaign's result as `.csr` wire bytes (or one `.cxl` ledger for
// an explore shard).  Each connection is serviced on its own
// thread, so concurrent fleet drivers (fleet.h; `clear fleet` runs one)
// make progress simultaneously.  src/cli/cli_serve.cpp only parses flags,
// installs the signal handler and fans out children.
#ifndef CLEAR_FLEET_WORKER_H
#define CLEAR_FLEET_WORKER_H

#include <atomic>
#include <string>
#include <utility>

#include "engine/protocol.h"
#include "util/socket.h"

namespace clear::fleet {

// The hello this process announces: the current protocol and format
// versions, the campaign pool width as capacity, and `name`.
[[nodiscard]] serve::Hello worker_hello(const std::string& name);

struct WorkerOptions {
  serve::Hello hello;     // the first frame on every connection
  bool quiet = false;     // no per-shard log lines on stdout
  // Gap between heartbeats (> 0).  It must stay below the driver's
  // --dead-after-ms, or a busy worker is declared dead.
  int heartbeat_ms = 1000;
  // Raised asynchronously (the CLI's SIGTERM/SIGINT handler): every
  // connection cancels its in-flight work and drains.  Must be lock-free
  // and outlive the worker; null = never.
  const std::atomic<int>* stop = nullptr;
};

class Worker {
 public:
  explicit Worker(WorkerOptions opts) : opts_(std::move(opts)) {}

  // Services one connection until the peer leaves, a stop is raised or a
  // (sibling's) kShutdown drains it.  Returns true when this client
  // requested the daemon shutdown.
  bool handle_connection(serve::FrameConn conn);

  // Accepts connections, one thread each, until a stop is raised or a
  // client sends kShutdown, then joins them all.
  void serve(util::Socket* listener);

 private:
  [[nodiscard]] bool stopped() const;

  WorkerOptions opts_;
  // Set when any connection receives kShutdown: the accept loop stops,
  // and idle sibling connections drain instead of holding it open.
  std::atomic<bool> shutdown_{false};
};

}  // namespace clear::fleet

#endif  // CLEAR_FLEET_WORKER_H
