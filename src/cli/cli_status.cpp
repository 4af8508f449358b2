// `clear status`: fleet/worker telemetry tables.
//
// Two sources, one renderer:
//
//   * live probe (`clear status ENDPOINT...`): connect to each `clear
//     serve` worker, read its hello, and wait for one heartbeat -- the
//     liveness beacon carries the worker's CMS1 metric snapshot
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
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/protocol.h"
#include "fleet/fleet.h"
#include "obs/metrics.h"
#include "util/args.h"
#include "util/table.h"

namespace clear::cli {

namespace {

using Clock = std::chrono::steady_clock;

// One row of the status tables, whichever source it came from.
struct WorkerRow {
  std::string endpoint;
  std::string name;
  std::string state;
  std::uint64_t capacity = 0;
  std::uint64_t inflight = 0;
  std::uint64_t shards_done = 0;
  bool has_metrics = false;
  obs::Snapshot metrics;
};

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

// The three tables the issue asks for: worker registry (shards), cache
// behaviour, and hot-path latency quantiles.  When two or more workers
// reported telemetry, a merged "fleet" row closes the cache and latency
// tables (obs::merge: counters add, gauges keep the max).
std::string render_tables(const std::vector<WorkerRow>& rows,
                          bool show_shards_done) {
  std::string out;

  std::vector<std::string> worker_headers = {"worker",   "endpoint", "state",
                                             "capacity", "inflight", "samples",
                                             "goldens"};
  if (show_shards_done) worker_headers.push_back("shards");
  util::TextTable workers(worker_headers);
  for (const WorkerRow& r : rows) {
    std::vector<std::string> cells = {
        r.name.empty() ? "-" : r.name,
        r.endpoint,
        r.state,
        std::to_string(r.capacity),
        std::to_string(r.inflight),
        r.has_metrics ? counter_cell(r.metrics, "campaign.samples") : "-",
        r.has_metrics ? counter_cell(r.metrics, "campaign.goldens") : "-"};
    if (show_shards_done) cells.push_back(std::to_string(r.shards_done));
    workers.add_row(std::move(cells));
  }
  out += "workers:\n" + workers.str();

  std::vector<const WorkerRow*> with_metrics;
  for (const WorkerRow& r : rows) {
    if (r.has_metrics) with_metrics.push_back(&r);
  }
  if (with_metrics.empty()) {
    out += "\nno telemetry yet: workers send their metric snapshot with "
           "each heartbeat\n(`clear serve --heartbeat-ms`), so probe again "
           "after one interval.\n";
    return out;
  }
  obs::Snapshot fleet_total;
  for (const WorkerRow* r : with_metrics) obs::merge(&fleet_total, r->metrics);

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
  for (const WorkerRow* r : with_metrics) {
    cache.add_row(cache_row(r->name, r->metrics));
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
  for (const WorkerRow* r : with_metrics) {
    latency.add_row(latency_row(r->name, r->metrics));
  }
  if (with_metrics.size() > 1) {
    latency.add_row(latency_row("fleet", fleet_total));
  }
  out += "\nlatency (log2 bucket lower bounds):\n" + latency.str();
  return out;
}

// ---- live probe ------------------------------------------------------------

// Connects to one worker, reads the hello, and waits up to `timeout_ms`
// for a heartbeat (whose optional tail is the CMS1 metric snapshot).
void probe(const fleet::Endpoint& ep, int connect_retry_ms, int timeout_ms,
           WorkerRow* row) {
  row->endpoint = ep.display();
  row->state = "unreachable";
  serve::FrameConn conn;
  try {
    conn = ep.connect(connect_retry_ms);
  } catch (const std::runtime_error&) {
    return;
  }
  row->state = "no-hello";
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  bool got_hello = false;
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
    if (frame.type == serve::FrameType::kHello) {
      serve::Hello hello;
      if (!serve::decode_hello(frame.payload, &hello)) {
        row->state = "bad-hello";
        return;
      }
      if (hello.proto_version != serve::kProtoVersion) {
        row->state = "version-skew";
        return;
      }
      row->name = hello.name.empty() ? row->endpoint : hello.name;
      row->capacity = hello.capacity;
      row->state = "no-heartbeat";  // until one lands
      got_hello = true;
    } else if (frame.type == serve::FrameType::kHeartbeat && got_hello) {
      std::uint32_t inflight = 0;
      std::string metrics;
      if (serve::decode_heartbeat(frame.payload, &inflight, &metrics)) {
        row->inflight = inflight;
        row->state = "up";
        row->has_metrics =
            !metrics.empty() && obs::decode_snapshot(metrics, &row->metrics);
        return;
      }
    }
    // Progress/result frames meant for another driver: skip.
  }
}

// ---- status-file parsing ---------------------------------------------------

// Minimal JSON reader for the two documents this CLI owns
// (clear-fleet-status-v1 wrapping clear-metrics-v1).  Integers are kept
// exact; floats are not needed by either schema but parse anyway.
struct Json {
  enum class Kind : std::uint8_t { kNull, kBool, kNum, kStr, kArr, kObj };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0;
  std::uint64_t u = 0;  // exact value when the token was a plain integer
  std::string str;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;

  [[nodiscard]] const Json* find(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] std::uint64_t as_u64() const {
    return kind == Kind::kNum ? u : 0;
  }
  [[nodiscard]] std::string as_str() const {
    return kind == Kind::kStr ? str : std::string();
  }
};

class JsonReader {
 public:
  JsonReader(const char* data, std::size_t size) : p_(data), end_(data + size) {}

  bool parse(Json* out) {
    return value(out, /*depth=*/0) && (skip_ws(), p_ == end_);
  }

 private:
  // The status document nests a fixed, shallow number of levels; 32
  // bounds a hostile input without recursing the stack away.
  static constexpr int kMaxDepth = 32;

  void skip_ws() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                          *p_ == '\r')) {
      ++p_;
    }
  }
  bool literal(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (static_cast<std::size_t>(end_ - p_) < len) return false;
    if (std::char_traits<char>::compare(p_, word, len) != 0) return false;
    p_ += len;
    return true;
  }
  bool string(std::string* out) {
    if (p_ == end_ || *p_ != '"') return false;
    ++p_;
    out->clear();
    while (p_ != end_ && *p_ != '"') {
      char c = *p_++;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (p_ == end_) return false;
      c = *p_++;
      switch (c) {
        case '"': case '\\': case '/': out->push_back(c); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (end_ - p_ < 4) return false;
          unsigned v = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = *p_++;
            v <<= 4;
            if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          // The writers only escape control characters; anything wider
          // degrades to '?' rather than growing a UTF-8 encoder here.
          out->push_back(v < 0x80 ? static_cast<char>(v) : '?');
          break;
        }
        default: return false;
      }
    }
    if (p_ == end_) return false;
    ++p_;  // closing quote
    return true;
  }
  bool value(Json* out, int depth) {
    if (depth > kMaxDepth) return false;
    skip_ws();
    if (p_ == end_) return false;
    if (*p_ == '{') {
      ++p_;
      out->kind = Json::Kind::kObj;
      skip_ws();
      if (p_ != end_ && *p_ == '}') {
        ++p_;
        return true;
      }
      for (;;) {
        skip_ws();
        std::string key;
        if (!string(&key)) return false;
        skip_ws();
        if (p_ == end_ || *p_++ != ':') return false;
        Json v;
        if (!value(&v, depth + 1)) return false;
        out->obj.emplace_back(std::move(key), std::move(v));
        skip_ws();
        if (p_ == end_) return false;
        if (*p_ == ',') {
          ++p_;
          continue;
        }
        if (*p_ == '}') {
          ++p_;
          return true;
        }
        return false;
      }
    }
    if (*p_ == '[') {
      ++p_;
      out->kind = Json::Kind::kArr;
      skip_ws();
      if (p_ != end_ && *p_ == ']') {
        ++p_;
        return true;
      }
      for (;;) {
        Json v;
        if (!value(&v, depth + 1)) return false;
        out->arr.push_back(std::move(v));
        skip_ws();
        if (p_ == end_) return false;
        if (*p_ == ',') {
          ++p_;
          continue;
        }
        if (*p_ == ']') {
          ++p_;
          return true;
        }
        return false;
      }
    }
    if (*p_ == '"') {
      out->kind = Json::Kind::kStr;
      return string(&out->str);
    }
    if (literal("true")) {
      out->kind = Json::Kind::kBool;
      out->b = true;
      return true;
    }
    if (literal("false")) {
      out->kind = Json::Kind::kBool;
      return true;
    }
    if (literal("null")) return true;  // kind stays kNull
    // Number.
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    bool integral = true;
    while (p_ != end_ &&
           ((*p_ >= '0' && *p_ <= '9') || *p_ == '.' || *p_ == 'e' ||
            *p_ == 'E' || *p_ == '-' || *p_ == '+')) {
      if (*p_ == '.' || *p_ == 'e' || *p_ == 'E') integral = false;
      ++p_;
    }
    if (p_ == start) return false;
    const std::string token(start, p_);
    char* rest = nullptr;
    out->kind = Json::Kind::kNum;
    out->num = std::strtod(token.c_str(), &rest);
    if (rest == nullptr || *rest != '\0') return false;
    if (integral && token[0] != '-') {
      out->u = std::strtoull(token.c_str(), nullptr, 10);
    } else if (out->num > 0) {
      out->u = static_cast<std::uint64_t>(out->num);
    }
    return true;
  }

  const char* p_;
  const char* end_;
};

// Rebuilds an obs::Snapshot from an embedded clear-metrics-v1 object.
// Bucket pairs carry the bucket's lower bound; bucket_of() inverts it
// (every lower bound is exactly 2^(i-1), whose bit width is i).
bool snapshot_from_json(const Json& m, obs::Snapshot* out) {
  if (m.kind != Json::Kind::kObj) return false;
  const Json* schema = m.find("schema");
  if (schema == nullptr || schema->as_str() != "clear-metrics-v1") return false;
  if (const Json* counters = m.find("counters")) {
    for (const auto& [name, v] : counters->obj) {
      out->counters.push_back({name, v.as_u64()});
    }
  }
  if (const Json* gauges = m.find("gauges")) {
    for (const auto& [name, v] : gauges->obj) {
      obs::GaugeRow row;
      row.name = name;
      if (const Json* last = v.find("last")) row.last = last->as_u64();
      if (const Json* max = v.find("max")) row.max = max->as_u64();
      out->gauges.push_back(std::move(row));
    }
  }
  if (const Json* hists = m.find("histograms")) {
    for (const auto& [name, v] : hists->obj) {
      obs::HistogramRow row;
      row.name = name;
      if (const Json* unit = v.find("unit")) row.unit = unit->as_str();
      if (const Json* sum = v.find("sum")) row.sum = sum->as_u64();
      if (const Json* buckets = v.find("buckets")) {
        for (const Json& pair : buckets->arr) {
          if (pair.arr.size() != 2) return false;
          const std::size_t idx =
              obs::Histogram::bucket_of(pair.arr[0].as_u64());
          row.buckets[idx] += pair.arr[1].as_u64();
          row.count += pair.arr[1].as_u64();
        }
      }
      out->histograms.push_back(std::move(row));
    }
  }
  return true;
}

}  // namespace

bool render_fleet_status(const std::string& json, std::string* out,
                         std::string* error) {
  Json doc;
  if (!JsonReader(json.data(), json.size()).parse(&doc) ||
      doc.kind != Json::Kind::kObj) {
    *error = "not a JSON document";
    return false;
  }
  const Json* schema = doc.find("schema");
  if (schema == nullptr || schema->as_str() != "clear-fleet-status-v1") {
    *error = "schema is not clear-fleet-status-v1";
    return false;
  }
  out->clear();
  if (const Json* shards = doc.find("shards");
      shards != nullptr && shards->kind == Json::Kind::kObj) {
    const auto field = [&](const char* k) {
      const Json* v = shards->find(k);
      return v != nullptr ? v->as_u64() : 0;
    };
    *out += "shards: " + std::to_string(field("completed")) + "/" +
            std::to_string(field("total")) + " completed, " +
            std::to_string(field("queued")) + " queued, " +
            std::to_string(field("redispatched")) + " redispatched\n\n";
  }
  std::vector<WorkerRow> rows;
  if (const Json* workers = doc.find("workers")) {
    for (const Json& w : workers->arr) {
      WorkerRow row;
      if (const Json* v = w.find("endpoint")) row.endpoint = v->as_str();
      if (const Json* v = w.find("name")) row.name = v->as_str();
      if (const Json* v = w.find("state")) row.state = v->as_str();
      if (const Json* v = w.find("capacity")) row.capacity = v->as_u64();
      if (const Json* v = w.find("inflight")) row.inflight = v->as_u64();
      if (const Json* v = w.find("shards_done")) row.shards_done = v->as_u64();
      if (const Json* v = w.find("metrics");
          v != nullptr && v->kind == Json::Kind::kObj) {
        row.has_metrics = snapshot_from_json(*v, &row.metrics);
      }
      rows.push_back(std::move(row));
    }
  }
  *out += render_tables(rows, /*show_shards_done=*/true);
  if (const Json* driver = doc.find("driver");
      driver != nullptr && driver->kind == Json::Kind::kObj) {
    obs::Snapshot d;
    if (snapshot_from_json(*driver, &d)) {
      *out += "\ndriver: dispatch " + counter_cell(d, "fleet.dispatch") +
              "  ack " + counter_cell(d, "fleet.ack") + "  steal " +
              counter_cell(d, "fleet.steal") + "  redispatch " +
              counter_cell(d, "fleet.redispatch") + "  dead " +
              counter_cell(d, "fleet.worker.dead") + "  ack-rtt p50 " +
              quantile_cell(d, "fleet.ack.rtt", 0.5) + " p95 " +
              quantile_cell(d, "fleet.ack.rtt", 0.95) + "  hb-gap p50 " +
              quantile_cell(d, "fleet.heartbeat.gap", 0.5) + "\n";
    }
  }
  return true;
}

int cmd_status(int argc, const char* const* argv) {
  util::ArgParser args(
      "clear status [--file FILE | ENDPOINT...]",
      "Renders fleet/worker telemetry tables: per-worker shard, cache and\n"
      "latency columns.  With endpoints, probes each `clear serve` worker\n"
      "live (hello + one heartbeat, whose tail carries the worker's metric\n"
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
  std::string error;
  if (!args.parse(argc, argv, &error)) {
    std::fprintf(stderr, "clear status: %s\n%s", error.c_str(),
                 args.help().c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fputs(args.help().c_str(), stdout);
    return 0;
  }
  const std::string file = args.get("file");
  if (file.empty() == args.positionals().empty()) {
    std::fprintf(stderr,
                 "clear status: give either --file FILE or worker "
                 "endpoints, not %s\n",
                 file.empty() ? "neither" : "both");
    return 2;
  }
  std::uint64_t timeout_ms = 3000, connect_retry_ms = 1000;
  if (!args.get_u64("timeout", 3000, &timeout_ms) ||
      !args.get_u64("connect-retry", 1000, &connect_retry_ms)) {
    std::fprintf(stderr, "clear status: --timeout/--connect-retry take "
                         "millisecond counts\n");
    return 2;
  }

  if (!file.empty()) {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "clear status: cannot read %s\n", file.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string doc = buf.str();
    if (args.has("json")) {
      std::fputs(doc.c_str(), stdout);
      return 0;
    }
    std::string rendered;
    if (!render_fleet_status(doc, &rendered, &error)) {
      std::fprintf(stderr, "clear status: %s: %s\n", file.c_str(),
                   error.c_str());
      return 1;
    }
    std::fputs(rendered.c_str(), stdout);
    return 0;
  }

  std::vector<fleet::Endpoint> endpoints;
  if (!fleet::expand_endpoints(args.positionals(), &endpoints, &error)) {
    std::fprintf(stderr, "clear status: %s\n", error.c_str());
    return 2;
  }
  std::vector<WorkerRow> rows(endpoints.size());
  std::size_t reachable = 0;
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    probe(endpoints[i], static_cast<int>(connect_retry_ms),
          static_cast<int>(timeout_ms), &rows[i]);
    if (rows[i].state != "unreachable") ++reachable;
  }
  if (args.has("json")) {
    // Same shape as the fleet driver's status file, minus the shard
    // tally and driver sections a probe cannot know.
    std::string out = "{\n  \"schema\": \"clear-fleet-status-v1\",\n";
    out += "  \"shards\": null,\n  \"workers\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const WorkerRow& r = rows[i];
      out += i == 0 ? "\n" : ",\n";
      out += "    {\"index\": " + std::to_string(i) + ", \"endpoint\": \"" +
             json_escape(r.endpoint) + "\", \"name\": \"" +
             json_escape(r.name) + "\", \"capacity\": " +
             std::to_string(r.capacity) + ", \"state\": \"" +
             json_escape(r.state) + "\", \"shards_done\": 0, \"inflight\": " +
             std::to_string(r.inflight) + ", \"metrics\": ";
      if (r.has_metrics) {
        const std::string m = obs::to_json(r.metrics);
        std::string embedded;
        for (std::size_t c = 0; c < m.size(); ++c) {
          if (m[c] == '\n' && c + 1 == m.size()) break;
          embedded += m[c];
          if (m[c] == '\n') embedded += "    ";
        }
        out += embedded;
      } else {
        out += "null";
      }
      out += "}";
    }
    out += rows.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    std::fputs(out.c_str(), stdout);
  } else {
    std::fputs(render_tables(rows, /*show_shards_done=*/false).c_str(),
               stdout);
  }
  return reachable == 0 ? 1 : 0;
}

}  // namespace clear::cli
