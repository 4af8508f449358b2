// The clear-fleet-status-v1 document (docs/OBSERVABILITY.md): the file a
// fleet driver keeps current with --status-out, and what `clear status
// --json` prints after probing workers.  One struct, one writer, one
// reader; `clear status` and `clear explore watch --status` draw their
// tables from the struct.
#ifndef CLEAR_FLEET_STATUS_H
#define CLEAR_FLEET_STATUS_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace clear::fleet {

// The driver's shard tally.
struct ShardTally {
  std::size_t total = 0;
  std::size_t completed = 0;
  std::size_t queued = 0;
  std::size_t redispatched = 0;
};

// One worker row.  `state` is a driver registry state (as
// fleet::status_row spells it) or, from a probe, how far the probe got
// ("unreachable", "no-hello", "no-heartbeat", "up", ...).
struct StatusRow {
  std::size_t index = 0;
  std::string endpoint;
  std::string name;
  std::uint32_t capacity = 0;
  std::string state;
  std::size_t shards_done = 0;
  std::uint32_t inflight = 0;
  // The worker's latest heartbeat snapshot, when it sent one.
  std::optional<obs::Snapshot> metrics;
};

struct FleetStatus {
  std::optional<ShardTally> shards;     // null: a probe knows no tally
  std::vector<StatusRow> workers;
  std::optional<obs::Snapshot> driver;  // absent: no driver ran
};

// The document, in its fixed key order and layout.
[[nodiscard]] std::string status_to_json(const FleetStatus& status);

// Reads a document back.  Returns false and fills *error when `json` does
// not parse, is not of schema clear-fleet-status-v1, or holds a worker
// `metrics` that is neither null nor a decodable clear-metrics-v1 document
// or a `driver` that is present but not one.
bool status_from_json(const std::string& json, FleetStatus* out,
                      std::string* error);

}  // namespace clear::fleet

#endif  // CLEAR_FLEET_STATUS_H
