// `clear status`: fleet/worker telemetry tables.
//
// Two sources, one renderer:
//
//   * live probe (`clear status ENDPOINT...`): connect to each `clear
//     serve` worker, read its hello, and wait for one heartbeat -- the
//     liveness beacon carries the worker's clear-metrics-v1 snapshot
//     (docs/FORMATS.md), so a probe needs no new protocol frame;
//   * status file (`clear status --file FILE`): render the
//     clear-fleet-status-v1 document a running fleet driver maintains
//     via `clear fleet ... --status-out FILE` -- the same tables, plus
//     the shard tally and the driver's own scheduling metrics.
//
// docs/OBSERVABILITY.md is the metric catalog behind every column.
#include "cli/cli.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/protocol.h"
#include "fleet/fleet.h"
#include "fleet/status.h"
#include "obs/metrics.h"
#include "util/args.h"
#include "util/fs.h"
#include "util/table.h"

namespace clear::cli {

namespace {

using Clock = std::chrono::steady_clock;

// ---- cell formatting -------------------------------------------------------

std::string fmt_ns(std::uint64_t ns) {
  char buf[32];
  if (ns < 1000) {
    std::snprintf(buf, sizeof(buf), "%lluns",
                  static_cast<unsigned long long>(ns));
  } else if (ns < 1000ull * 1000) {
    std::snprintf(buf, sizeof(buf), "%.1fus", static_cast<double>(ns) / 1e3);
  } else if (ns < 1000ull * 1000 * 1000) {
    std::snprintf(buf, sizeof(buf), "%.1fms", static_cast<double>(ns) / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", static_cast<double>(ns) / 1e9);
  }
  return buf;
}

std::string fmt_bytes(std::uint64_t b) {
  char buf[32];
  if (b < 1024) {
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(b));
  } else if (b < 1024ull * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fK", static_cast<double>(b) / 1024);
  } else if (b < 1024ull * 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fM",
                  static_cast<double>(b) / (1024 * 1024));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fG",
                  static_cast<double>(b) / (1024 * 1024 * 1024));
  }
  return buf;
}

// Histogram quantile cell: buckets are log2, so a quantile is a bucket
// lower bound -- render it as an order-of-magnitude figure, "-" if empty.
std::string quantile_cell(const obs::Snapshot& s, const char* hist, double q) {
  const obs::HistogramRow* h = s.find_histogram(hist);
  if (h == nullptr || h->count == 0) return "-";
  return fmt_ns(h->quantile_lo(q));
}

std::string counter_cell(const obs::Snapshot& s, const char* name) {
  return std::to_string(s.counter_value(name));
}

// ---- table assembly --------------------------------------------------------

// The three status tables: worker registry (shards), cache
// behaviour, and hot-path latency quantiles.  When two or more workers
// reported telemetry, a merged "fleet" row closes the cache and latency
// tables (obs::merge: counters add, gauges keep the max).
std::string render_tables(const std::vector<fleet::StatusRow>& rows,
                          bool show_shards_done) {
  std::string out;

  std::vector<std::string> worker_headers = {"worker",   "endpoint", "state",
                                             "capacity", "inflight", "samples",
                                             "goldens"};
  if (show_shards_done) worker_headers.push_back("shards");
  util::TextTable workers(worker_headers);
  for (const fleet::StatusRow& r : rows) {
    std::vector<std::string> cells = {
        r.name.empty() ? "-" : r.name,
        r.endpoint,
        r.state,
        std::to_string(r.capacity),
        std::to_string(r.inflight),
        r.metrics ? counter_cell(*r.metrics, "campaign.samples") : "-",
        r.metrics ? counter_cell(*r.metrics, "campaign.goldens") : "-"};
    if (show_shards_done) cells.push_back(std::to_string(r.shards_done));
    workers.add_row(std::move(cells));
  }
  out += "workers:\n" + workers.str();

  std::vector<const fleet::StatusRow*> with_metrics;
  for (const fleet::StatusRow& r : rows) {
    if (r.metrics) with_metrics.push_back(&r);
  }
  if (with_metrics.empty()) {
    out += "\nno telemetry yet: workers send their metric snapshot with "
           "each heartbeat\n(`clear serve --heartbeat-ms`), so probe again "
           "after one interval.\n";
    return out;
  }
  obs::Snapshot fleet_total;
  for (const fleet::StatusRow* r : with_metrics) {
    obs::merge(&fleet_total, *r->metrics);
  }

  const auto cache_row = [](const std::string& name, const obs::Snapshot& s) {
    const std::uint64_t hits = s.counter_value("cache.hit");
    const std::uint64_t misses = s.counter_value("cache.miss");
    std::uint64_t pack = 0;
    for (const auto& g : s.gauges) {
      if (g.name == "cache.pack.bytes") pack = g.last;
    }
    std::vector<std::string> cells = {
        name,
        std::to_string(hits),
        std::to_string(misses),
        hits + misses == 0
            ? "-"
            : util::TextTable::pct(100.0 * static_cast<double>(hits) /
                                   static_cast<double>(hits + misses)),
        std::to_string(s.counter_value("cache.put")),
        std::to_string(s.counter_value("cache.eviction")),
        std::to_string(s.counter_value("cache.quarantine")),
        fmt_bytes(pack)};
    return cells;
  };
  util::TextTable cache({"worker", "hits", "misses", "hit%", "puts",
                         "evictions", "quarantined", "pack"});
  for (const fleet::StatusRow* r : with_metrics) {
    cache.add_row(cache_row(r->name, *r->metrics));
  }
  if (with_metrics.size() > 1) {
    cache.add_row(cache_row("fleet", fleet_total));
  }
  out += "\ncache:\n" + cache.str();

  const auto latency_row = [](const std::string& name,
                              const obs::Snapshot& s) {
    return std::vector<std::string>{
        name,
        quantile_cell(s, "campaign.sample.classify", 0.5),
        quantile_cell(s, "campaign.sample.classify", 0.95),
        quantile_cell(s, "campaign.snapshot.restore", 0.5),
        quantile_cell(s, "campaign.snapshot.restore", 0.95),
        quantile_cell(s, "campaign.fork.replay", 0.5),
        quantile_cell(s, "campaign.fork.replay", 0.95),
        quantile_cell(s, "engine.queue.wait", 0.5)};
  };
  util::TextTable latency({"worker", "classify p50", "classify p95",
                           "restore p50", "restore p95", "replay p50",
                           "replay p95", "qwait p50"});
  for (const fleet::StatusRow* r : with_metrics) {
    latency.add_row(latency_row(r->name, *r->metrics));
  }
  if (with_metrics.size() > 1) {
    latency.add_row(latency_row("fleet", fleet_total));
  }
  out += "\nlatency (log2 bucket lower bounds):\n" + latency.str();
  return out;
}

// ---- live probe ------------------------------------------------------------

// Connects to one worker, reads the hello, and waits up to `timeout_ms`
// for a heartbeat (which carries the worker's clear-metrics-v1 snapshot).
void probe(const fleet::Endpoint& ep, int connect_retry_ms, int timeout_ms,
           fleet::StatusRow* row) {
  row->endpoint = ep.display();
  row->state = "unreachable";
  serve::FrameConn conn;
  try {
    conn = ep.connect(connect_retry_ms);
  } catch (const std::runtime_error&) {
    return;
  }
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  serve::Hello hello;
  std::string why;
  const fleet::HelloFault fault =
      fleet::read_hello(&conn, timeout_ms, &hello, &why);
  if (fault != fleet::HelloFault::kNone) {
    row->state = fleet::hello_fault_name(fault);
    return;
  }
  row->name = hello.name.empty() ? row->endpoint : hello.name;
  row->capacity = hello.capacity;
  row->state = "no-heartbeat";  // until one lands
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return;
    serve::Frame frame;
    const serve::FrameConn::Recv got =
        conn.recv(&frame, static_cast<int>(left.count()));
    if (got == serve::FrameConn::Recv::kBad) {
      row->state = "bad-stream";
      return;
    }
    // Timeout or peer closed: keep whatever state we reached.
    if (got != serve::FrameConn::Recv::kFrame) return;
    // Any other frame: skip it and wait for a heartbeat.
    if (frame.type != serve::FrameType::kHeartbeat) continue;
    std::uint32_t inflight = 0;
    obs::Snapshot snap;
    if (!serve::decode_heartbeat(frame.payload, &inflight, &snap)) {
      row->state = "bad-stream";
      return;
    }
    row->inflight = inflight;
    row->state = "up";
    row->metrics = std::move(snap);
    return;
  }
}

}  // namespace

std::string render_status(const fleet::FleetStatus& status,
                          bool show_shards_done) {
  std::string out;
  if (const auto& t = status.shards) {
    out += "shards: " + std::to_string(t->completed) + "/" +
           std::to_string(t->total) + " completed, " +
           std::to_string(t->queued) + " queued, " +
           std::to_string(t->redispatched) + " redispatched\n\n";
  }
  out += render_tables(status.workers, show_shards_done);
  if (const auto& d = status.driver) {
    out += "\ndriver: dispatch " + counter_cell(*d, "fleet.dispatch") +
           "  ack " + counter_cell(*d, "fleet.ack") + "  redispatch " +
           counter_cell(*d, "fleet.redispatch") + "  dead " +
           counter_cell(*d, "fleet.worker.dead") + "  ack-rtt p50 " +
           quantile_cell(*d, "fleet.ack.rtt", 0.5) + " p95 " +
           quantile_cell(*d, "fleet.ack.rtt", 0.95) + "  hb-gap p50 " +
           quantile_cell(*d, "fleet.heartbeat.gap", 0.5) + "\n";
  }
  return out;
}

int cmd_status(int argc, const char* const* argv) {
  util::ArgParser args(
      "clear status [--file FILE | ENDPOINT...]",
      "Renders fleet/worker telemetry tables: per-worker shard, cache and\n"
      "latency columns.  With endpoints, probes each `clear serve` worker\n"
      "live (hello + one heartbeat, which carries the worker's metric\n"
      "snapshot).  With --file, renders the clear-fleet-status-v1 document\n"
      "a fleet driver maintains via `clear fleet ... --status-out`.\n"
      "docs/OBSERVABILITY.md documents every metric.");
  args.add_option("file", "FILE",
                  "render a clear-fleet-status-v1 status file instead of "
                  "probing workers");
  args.add_option("timeout", "MS",
                  "per-worker wait for the hello + first heartbeat", "3000");
  args.add_option("connect-retry", "MS", "per-worker connect retry budget",
                  "1000");
  args.add_flag("json", "emit JSON instead of tables (live probe: schema "
                        "clear-fleet-status-v1; --file: the file verbatim)");
  args.allow_positionals(
      "endpoints", "worker sockets (PATH, tcp:PORT, PATH@N, tcp:PORT@N)");
  int rc = 0;
  if (!parse_verb(args, argc, argv, "clear status", &rc)) return rc;
  const std::string file = args.get("file");
  if (file.empty() == args.positionals().empty()) {
    std::fprintf(stderr,
                 "clear status: give either --file FILE or worker "
                 "endpoints, not %s\n",
                 file.empty() ? "neither" : "both");
    return 2;
  }
  int timeout_ms = 3000, connect_retry_ms = 1000;
  if (!args.get_ms("timeout", 3000, &timeout_ms) ||
      !args.get_ms("connect-retry", 1000, &connect_retry_ms)) {
    std::fprintf(stderr, "clear status: --timeout/--connect-retry take "
                         "millisecond counts\n");
    return 2;
  }

  std::string error;
  if (!file.empty()) {
    std::string doc;
    if (!util::read_file(file, &doc)) {
      std::fprintf(stderr, "clear status: cannot read %s\n", file.c_str());
      return 1;
    }
    if (args.has("json")) {
      std::fputs(doc.c_str(), stdout);
      return 0;
    }
    fleet::FleetStatus status;
    if (!fleet::status_from_json(doc, &status, &error)) {
      std::fprintf(stderr, "clear status: %s: %s\n", file.c_str(),
                   error.c_str());
      return 1;
    }
    std::fputs(render_status(status, /*show_shards_done=*/true).c_str(),
               stdout);
    return 0;
  }

  std::vector<fleet::Endpoint> endpoints;
  if (!fleet::expand_endpoints(args.positionals(), &endpoints, &error)) {
    std::fprintf(stderr, "clear status: %s\n", error.c_str());
    return 2;
  }
  fleet::FleetStatus status;
  status.workers.resize(endpoints.size());
  std::size_t reachable = 0;
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    fleet::StatusRow& row = status.workers[i];
    row.index = i;
    probe(endpoints[i], connect_retry_ms, timeout_ms, &row);
    if (row.state != "unreachable") ++reachable;
  }
  // A probe knows no shard tally and ran no driver: those stay null/absent.
  std::fputs(args.has("json")
                 ? fleet::status_to_json(status).c_str()
                 : render_status(status, /*show_shards_done=*/false).c_str(),
             stdout);
  return reachable == 0 ? 1 : 0;
}

}  // namespace clear::cli
