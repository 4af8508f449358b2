#include "fleet/fleet.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <stdexcept>

#include "explore/ledger.h"
#include "fleet/status.h"
#include "inject/wire.h"
#include "obs/metrics.h"
#include "plan/runplan.h"
#include "util/args.h"
#include "util/env.h"
#include "util/fs.h"
#include "util/socket.h"

namespace clear::fleet {

namespace {

using Clock = std::chrono::steady_clock;

// kFailed executions of one shard before the run gives up on it.
constexpr int kMaxAttempts = 3;

int ms_since(Clock::time_point then, Clock::time_point now) {
  return static_cast<int>(
      std::chrono::duration_cast<std::chrono::milliseconds>(now - then)
          .count());
}

std::uint64_t ns_since(Clock::time_point then, Clock::time_point now) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - then)
          .count());
}

// Driver-side scheduling telemetry (docs/OBSERVABILITY.md).
struct FleetMetrics {
  obs::Counter& dispatch = obs::counter("fleet.dispatch");
  obs::Counter& acks = obs::counter("fleet.ack");
  obs::Counter& redispatch = obs::counter("fleet.redispatch");
  obs::Counter& workers_dead = obs::counter("fleet.worker.dead");
  obs::Histogram& ack_rtt = obs::histogram("fleet.ack.rtt");
  obs::Histogram& heartbeat_gap = obs::histogram("fleet.heartbeat.gap");
};

FleetMetrics& metrics() {
  static FleetMetrics m;
  return m;
}

}  // namespace

// ---- endpoints -------------------------------------------------------------

std::string Endpoint::display() const {
  if (!socket_path.empty()) return socket_path;
  return "tcp:" + std::to_string(port);
}

serve::FrameConn Endpoint::connect(int retry_ms) const {
  return serve::FrameConn(
      socket_path.empty()
          ? util::Socket::connect_tcp_loopback(port, retry_ms)
          : util::Socket::connect_unix(socket_path, retry_ms));
}

const char* hello_fault_name(HelloFault f) noexcept {
  switch (f) {
    case HelloFault::kNone: return "ok";
    case HelloFault::kNoHello: return "no-hello";
    case HelloFault::kBadStream: return "bad-stream";
    case HelloFault::kBadHello: return "bad-hello";
    case HelloFault::kVersionSkew: return "version-skew";
  }
  return "?";
}

HelloFault read_hello(serve::FrameConn* conn, int timeout_ms,
                      serve::Hello* out, std::string* why) {
  // The deadline bounds a server that accepts but never speaks (a wedged
  // daemon, another service on the port).
  serve::Frame frame;
  switch (conn->recv(&frame, timeout_ms)) {
    case serve::FrameConn::Recv::kFrame: break;
    case serve::FrameConn::Recv::kTimeout:
      *why = "no hello within " + std::to_string(timeout_ms) + " ms";
      return HelloFault::kNoHello;
    case serve::FrameConn::Recv::kClosed:
      *why = "no hello: connection closed by server";
      return HelloFault::kNoHello;
    case serve::FrameConn::Recv::kBad:
      *why = "bad stream: not a CSV1 frame";
      return HelloFault::kBadStream;
  }
  if (frame.type != serve::FrameType::kHello) {
    *why = std::string("bad hello: first frame is a ") +
           serve::frame_type_name(frame.type) + " frame";
    return HelloFault::kBadHello;
  }
  if (!serve::decode_hello(frame.payload, out)) {
    *why = "bad hello: malformed payload";
    return HelloFault::kBadHello;
  }
  // A worker of another version cannot serve this driver: its frames or
  // its .csr/.cxl bytes would not decode or merge here.
  if (out->proto_version != serve::kProtoVersion ||
      out->wire_version != inject::kWireVersion ||
      out->ledger_version != explore::kLedgerVersion) {
    *why = "version skew: worker speaks CSV1 v" +
           std::to_string(out->proto_version) + ", .csr v" +
           std::to_string(out->wire_version) + ", .cxl v" +
           std::to_string(out->ledger_version) + "; this binary v" +
           std::to_string(serve::kProtoVersion) + ", v" +
           std::to_string(inject::kWireVersion) + ", v" +
           std::to_string(explore::kLedgerVersion);
    return HelloFault::kVersionSkew;
  }
  return HelloFault::kNone;
}

bool parse_endpoint(const std::string& text, Endpoint* out,
                    std::string* error) {
  Endpoint e;
  if (text.rfind("tcp:", 0) == 0) {
    std::uint64_t v = 0;
    if (!util::parse_u64(std::string_view(text).substr(4), &v) || v == 0 ||
        v > 65535) {
      if (error != nullptr) *error = "bad TCP endpoint '" + text + "'";
      return false;
    }
    e.port = static_cast<std::uint16_t>(v);
  } else if (!text.empty()) {
    e.socket_path = text;
  } else {
    if (error != nullptr) *error = "empty worker endpoint";
    return false;
  }
  *out = e;
  return true;
}

bool expand_endpoints(const std::vector<std::string>& operands,
                      std::vector<Endpoint>* out, std::string* error) {
  out->clear();
  for (const std::string& op : operands) {
    std::string base = op;
    std::uint64_t fan = 0;  // 0 = no @N suffix
    const std::size_t at = op.rfind('@');
    std::uint64_t v = 0;
    if (at != std::string::npos &&
        util::parse_u64(std::string_view(op).substr(at + 1), &v) && v >= 1 &&
        v <= 4096) {
      base = op.substr(0, at);
      fan = v;
    }
    Endpoint e;
    if (!parse_endpoint(base, &e, error)) return false;
    if (fan == 0) {
      out->push_back(e);
      continue;
    }
    for (std::uint64_t i = 0; i < fan; ++i) {
      Endpoint child = e;
      if (!child.socket_path.empty()) {
        // Matches the `clear serve --workers N` child socket names.
        child.socket_path = e.socket_path + "." + std::to_string(i);
      } else {
        const std::uint64_t port = e.port + i;
        if (port > 65535) {
          if (error != nullptr) {
            *error = "endpoint '" + op + "' runs past port 65535";
          }
          return false;
        }
        child.port = static_cast<std::uint16_t>(port);
      }
      out->push_back(child);
    }
  }
  if (out->empty()) {
    if (error != nullptr) *error = "no worker endpoints";
    return false;
  }
  return true;
}

// ---- shard builders --------------------------------------------------------

bool build_campaign_shards(const std::string& manifest,
                           std::uint32_t shard_count,
                           std::vector<ShardWork>* out, std::string* error) {
  out->clear();
  if (shard_count == 0) {
    if (error != nullptr) *error = "shard count must be >= 1";
    return false;
  }
  // Resolving every stanza here fails fast on a manifest no worker
  // could resolve: the same code each worker runs (plan/runplan.h).
  std::vector<plan::RunPlan> plans;
  std::string why;
  if (!plan::resolve_manifest_text(manifest, "manifest", &plans, &why,
                                   plan::Site::kFleet)) {
    if (error != nullptr) *error = why;
    return false;
  }
  out->reserve(shard_count);
  for (std::uint32_t k = 0; k < shard_count; ++k) {
    ShardWork w;
    w.id = k;
    w.kind = serve::ShardKind::kCampaign;
    std::string text;
    for (std::size_t s = 0; s < plans.size(); ++s) {
      if (s != 0) text += "\n---\n";
      for (const std::string& tok : plans[s].tokens) {
        if (!text.empty() && text.back() != '\n') text += ' ';
        text += tok;
      }
      text += " --shard " + std::to_string(k) + "/" +
              std::to_string(shard_count);
    }
    text += '\n';
    w.text = std::move(text);
    out->push_back(std::move(w));
  }
  return true;
}

std::vector<ShardWork> build_explore_shards(const explore::ExploreSpec& spec,
                                            std::uint32_t shard_count) {
  if (shard_count == 0) {
    throw std::invalid_argument("fleet: shard count must be >= 1");
  }
  const std::string base = explore::spec_flags(spec);
  std::vector<ShardWork> out;
  out.reserve(shard_count);
  for (std::uint32_t k = 0; k < shard_count; ++k) {
    ShardWork w;
    w.id = k;
    w.kind = serve::ShardKind::kExplore;
    w.text = base + " --shard " + std::to_string(k) + "/" +
             std::to_string(shard_count) + "\n";
    out.push_back(std::move(w));
  }
  return out;
}

// ---- explore stanza execution (worker side) --------------------------------

bool parse_explore_stanza(const std::string& text,
                          explore::ExploreSpec* spec, std::string* error) {
  std::vector<std::vector<std::string>> stanzas;
  plan::split_spec_stanzas(text, &stanzas);
  if (stanzas.size() != 1) {
    if (error != nullptr) {
      *error = "explore shard wants exactly one stanza, got " +
               std::to_string(stanzas.size());
    }
    return false;
  }
  util::ArgParser args("explore shard stanza",
                       "fleet-dispatched explore combo-space slice");
  explore::add_spec_flags(&args);
  args.add_option("shard", "k/K", "combo-space shard", "0/1");
  std::string perror;
  if (!args.parse(stanzas[0], &perror)) {
    if (error != nullptr) *error = "explore shard stanza: " + perror;
    return false;
  }
  explore::ExploreSpec s;
  if (!explore::read_spec_flags(args, &s, &perror)) {
    if (error != nullptr) *error = perror;
    return false;
  }
  if (!plan::parse_shard(args.get("shard"), &s.shard_index, &s.shard_count)) {
    if (error != nullptr) {
      *error = "bad --shard '" + args.get("shard") + "' (want k/K with k < K)";
    }
    return false;
  }
  *spec = s;
  return true;
}

std::string run_explore_stanza(const std::string& text,
                               const std::atomic<bool>* cancel) {
  explore::ExploreSpec spec;
  std::string error;
  if (!parse_explore_stanza(text, &spec, &error)) {
    throw std::invalid_argument(error);
  }
  spec.cancel = cancel;
  // In-memory ledger: the shard's bytes travel back over the socket; the
  // driver owns persistence (and the merge).
  const explore::Ledger ledger = explore::run_exploration(spec, "");
  return explore::encode_ledger(ledger);
}

// ---- the driver ------------------------------------------------------------

namespace {

const char* worker_state_name(WorkerState s) noexcept {
  switch (s) {
    case WorkerState::kConnecting: return "connecting";
    case WorkerState::kIdle: return "idle";
    case WorkerState::kBusy: return "busy";
    case WorkerState::kDead: return "dead";
  }
  return "?";
}

}  // namespace

StatusRow status_row(const WorkerStatus& w) {
  StatusRow r;
  r.index = w.index;
  r.endpoint = w.endpoint;
  r.name = w.name;
  r.capacity = w.capacity;
  r.state = worker_state_name(w.state);
  r.shards_done = w.shards_done;
  r.inflight = w.inflight;
  if (w.has_metrics) r.metrics = w.metrics;
  return r;
}

namespace {

// Shards outstanding per worker: one running, one queued in the worker's
// engine behind it.  The worker starts the queued shard the moment the
// running one ends, instead of idling while it uploads results and the
// driver folds them and assigns the next shard.
constexpr std::size_t kPipelineDepth = 2;

// Minimum gap between two rewrites of FleetOptions::status_out.
constexpr int kStatusIntervalMs = 1000;

// One dispatched shard.
struct Outstanding {
  std::size_t pos = 0;  // index into the shards vector
  Clock::time_point assigned_at;
};

struct WorkerConn {
  serve::FrameConn conn;
  WorkerStatus status;
  // Dispatched shards in dispatch order.  The worker answers in request
  // order, so kResult/kDone belong to the front entry; acks
  // match by shard id.
  std::deque<Outstanding> outstanding;
  Clock::time_point last_seen;
  Clock::time_point last_heartbeat{};  // epoch value = none received yet
  // kResult payloads for the front shard, keyed by result index.
  std::map<std::uint32_t, std::string> payloads;

  // Drops the front shard (completed, failed or cancelled).
  void pop_front() {
    outstanding.pop_front();
    payloads.clear();
    if (outstanding.empty() && status.state != WorkerState::kDead) {
      status.state = WorkerState::kIdle;
    }
  }
};

class Driver {
 public:
  Driver(const std::vector<Endpoint>& endpoints,
         const std::vector<ShardWork>& shards, const FleetOptions& opts,
         const EventFn& event, const ShardDoneFn& on_shard)
      : endpoints_(endpoints), shards_(shards), opts_(opts), event_(event),
        on_shard_(on_shard), workers_(endpoints.size()),
        attempts_(shards.size(), 0) {}

  FleetReport run();

 private:
  void emit(FleetEvent::Kind kind, std::size_t w, std::uint64_t shard_id,
            const char* detail = nullptr) {
    if (!event_) return;
    FleetEvent e;
    e.kind = kind;
    e.worker = w;
    e.worker_name = workers_[w].status.name;
    e.shard_id = shard_id;
    if (detail != nullptr) e.detail = detail;
    event_(e);
  }

  void register_workers();
  void dispatch();
  void shut_down_workers(bool failed);
  void declare_dead(std::size_t w, const char* why);
  void requeue(std::size_t w, std::size_t n);
  void assign_idle();
  void check_deadlines(Clock::time_point now);
  void pump(std::size_t w);
  void handle_frame(std::size_t w, const serve::Frame& frame);
  void complete_shard(std::size_t w);
  void maybe_write_status(Clock::time_point now, bool force = false);
  [[nodiscard]] std::size_t live_count() const;

  const std::vector<Endpoint>& endpoints_;
  const std::vector<ShardWork>& shards_;
  const FleetOptions& opts_;
  const EventFn& event_;
  const ShardDoneFn& on_shard_;

  std::vector<WorkerConn> workers_;
  // Shard positions awaiting dispatch.  Every uncompleted shard is in
  // exactly one place: here, or in one worker's outstanding list.
  std::deque<std::size_t> queue_;
  std::vector<int> attempts_;
  std::size_t completed_count_ = 0;
  std::size_t redispatched_ = 0;
  std::size_t workers_lost_ = 0;
  Clock::time_point last_status_{};  // epoch value = never written
};

void Driver::register_workers() {
  for (std::size_t w = 0; w < endpoints_.size(); ++w) {
    WorkerConn& wc = workers_[w];
    wc.status.index = w;
    wc.status.endpoint = endpoints_[w].display();
    wc.status.name = wc.status.endpoint;  // until a hello names it
    wc.status.state = WorkerState::kDead;  // until the hello lands
    // An endpoint that cannot serve this fleet is reported and skipped;
    // the rest proceed.
    try {
      wc.conn = endpoints_[w].connect(opts_.connect_retry_ms);
    } catch (const std::runtime_error& e) {
      emit(FleetEvent::Kind::kWorkerDead, w, 0, e.what());
      continue;
    }
    serve::Hello hello;
    std::string why;
    if (read_hello(&wc.conn, opts_.hello_timeout_ms, &hello, &why) !=
        HelloFault::kNone) {
      wc.conn.close();
      emit(FleetEvent::Kind::kWorkerDead, w, 0, why.c_str());
      continue;
    }
    if (!hello.name.empty()) wc.status.name = hello.name;
    wc.status.capacity = hello.capacity;
    wc.status.state = WorkerState::kIdle;
    wc.last_seen = Clock::now();
    emit(FleetEvent::Kind::kWorkerUp, w, 0);
  }
}

std::size_t Driver::live_count() const {
  std::size_t n = 0;
  for (const WorkerConn& wc : workers_) {
    if (wc.status.state != WorkerState::kDead) ++n;
  }
  return n;
}

void Driver::declare_dead(std::size_t w, const char* why) {
  WorkerConn& wc = workers_[w];
  if (wc.status.state == WorkerState::kDead) return;
  // Capture the front shard before requeue() drops it: the death event
  // names the shard this worker was running when it went down.
  const std::uint64_t inflight_shard =
      wc.outstanding.empty() ? 0 : shards_[wc.outstanding.front().pos].id;
  wc.status.state = WorkerState::kDead;
  wc.conn.close();
  ++workers_lost_;
  metrics().workers_dead.add();
  requeue(w, wc.outstanding.size());
  emit(FleetEvent::Kind::kWorkerDead, w, inflight_shard, why);
}

// Returns worker w's first n outstanding shards to the front of the
// queue, in dispatch order: they are the oldest outstanding work, so the
// next idle workers take them first.
void Driver::requeue(std::size_t w, std::size_t n) {
  WorkerConn& wc = workers_[w];
  for (std::size_t at = 0; at < n && !wc.outstanding.empty(); ++at) {
    const std::size_t pos = wc.outstanding.front().pos;
    wc.pop_front();
    queue_.insert(queue_.begin() + static_cast<std::ptrdiff_t>(at), pos);
    ++redispatched_;
    metrics().redispatch.add();
    emit(FleetEvent::Kind::kRequeue, w, shards_[pos].id);
  }
}

// Tops every live worker up to kPipelineDepth shards, level by level:
// first one shard each, then a second, so a fleet with no more shards
// than workers still puts one on every worker.
void Driver::assign_idle() {
  for (std::size_t level = 1; level <= kPipelineDepth; ++level) {
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      WorkerConn& wc = workers_[w];
      if (wc.status.state == WorkerState::kDead ||
          wc.outstanding.size() >= level) {
        continue;
      }
      if (queue_.empty()) return;
      const std::size_t pos = queue_.front();
      queue_.pop_front();
      serve::ShardAssign assign;
      assign.shard_id = shards_[pos].id;
      assign.kind = shards_[pos].kind;
      assign.text = shards_[pos].text;
      if (!wc.conn.send(serve::FrameType::kShardAssign,
                        serve::encode_shard_assign(assign),
                        serve::kSendTimeoutMs)) {
        queue_.push_front(pos);
        declare_dead(w, "send failed");
        continue;
      }
      Outstanding o;
      o.pos = pos;
      o.assigned_at = Clock::now();
      wc.outstanding.push_back(o);
      wc.status.state = WorkerState::kBusy;
      metrics().dispatch.add();
      emit(FleetEvent::Kind::kAssign, w, shards_[pos].id);
    }
  }
}

// The one liveness rule: a worker that sends no frame for
// opts_.dead_after_ms is dead.  Its shards are taken from it only then,
// so no shard ever runs on two workers at once.
void Driver::check_deadlines(Clock::time_point now) {
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (workers_[w].status.state != WorkerState::kDead &&
        ms_since(workers_[w].last_seen, now) > opts_.dead_after_ms) {
      declare_dead(w, "heartbeat deadline");
    }
  }
}

void Driver::complete_shard(std::size_t w) {
  WorkerConn& wc = workers_[w];
  const std::size_t pos = wc.outstanding.front().pos;
  ++completed_count_;
  ShardResult res;
  res.shard_id = shards_[pos].id;
  res.kind = shards_[pos].kind;
  res.worker = w;
  res.payloads.reserve(wc.payloads.size());
  for (auto& entry : wc.payloads) {
    res.payloads.push_back(std::move(entry.second));
  }
  emit(FleetEvent::Kind::kShardDone, w, res.shard_id);
  if (on_shard_) on_shard_(res);  // handed over once, never kept
  ++wc.status.shards_done;
  wc.pop_front();
}

void Driver::handle_frame(std::size_t w, const serve::Frame& frame) {
  WorkerConn& wc = workers_[w];
  switch (frame.type) {
    case serve::FrameType::kHeartbeat: {
      // last_seen is already refreshed by the caller; what the payload
      // adds is the worker's load and its metric snapshot.
      std::uint32_t inflight = 0;
      obs::Snapshot snap;
      if (!serve::decode_heartbeat(frame.payload, &inflight, &snap)) {
        declare_dead(w, "bad heartbeat");
        return;
      }
      wc.status.inflight = inflight;
      wc.status.metrics = std::move(snap);
      wc.status.has_metrics = true;
      const auto now = Clock::now();
      if (wc.last_heartbeat != Clock::time_point{}) {
        metrics().heartbeat_gap.record(ns_since(wc.last_heartbeat, now));
      }
      wc.last_heartbeat = now;
      break;
    }
    case serve::FrameType::kShardAck: {
      std::uint64_t acked = 0;
      if (!serve::decode_shard_ack(frame.payload, &acked)) {
        declare_dead(w, "bad ack");
        return;
      }
      // The ack only measures the dispatch round trip: a worker that
      // falls silent is dead whether or not it acked.
      const auto it = std::find_if(
          wc.outstanding.begin(), wc.outstanding.end(),
          [&](const Outstanding& o) {
            return shards_[o.pos].id == acked;
          });
      if (it == wc.outstanding.end()) return;
      metrics().acks.add();
      metrics().ack_rtt.record(ns_since(it->assigned_at, Clock::now()));
      emit(FleetEvent::Kind::kAck, w, acked);
      break;
    }
    case serve::FrameType::kResult: {
      std::uint32_t index = 0;
      std::string bytes;
      if (!serve::decode_result(frame.payload, &index, &bytes)) {
        declare_dead(w, "bad result");
        return;
      }
      if (!wc.outstanding.empty()) wc.payloads[index] = std::move(bytes);
      break;
    }
    case serve::FrameType::kDone: {
      serve::Done done;
      if (!serve::decode_done(frame.payload, &done) ||
          wc.outstanding.empty()) {
        declare_dead(w, "bad done");
        return;
      }
      const std::size_t pos = wc.outstanding.front().pos;
      switch (done.outcome) {
        case serve::JobOutcome::kOk:
          // A gap in the result indices 0..n-1 is a malformed done.
          if (!wc.payloads.empty() &&
              wc.payloads.rbegin()->first + 1 != wc.payloads.size()) {
            declare_dead(w, "bad done");
            return;
          }
          complete_shard(w);
          break;
        case serve::JobOutcome::kBadRequest:
          // Deterministic refusal: every worker resolves the same stanza
          // the same way, so retrying elsewhere cannot help.
          throw std::runtime_error(
              "fleet: worker " + wc.status.name + " refused shard " +
              std::to_string(shards_[pos].id) + ": " + done.message);
        case serve::JobOutcome::kFailed:
          if (++attempts_[pos] >= kMaxAttempts) {
            throw std::runtime_error(
                "fleet: shard " + std::to_string(shards_[pos].id) +
                " failed " + std::to_string(attempts_[pos]) +
                " times, last on " + wc.status.name + ": " + done.message);
          }
          requeue(w, 1);
          break;
        case serve::JobOutcome::kCancelled:
          // The worker is shutting down; its dead deadline will follow.
          requeue(w, 1);
          break;
        default:
          // An outcome this driver doesn't know: the worker speaks a newer
          // protocol, so the shard's true fate is unknowable.  Requeue it
          // elsewhere and drop the worker.
          declare_dead(w, "unknown done outcome");
          return;
      }
      break;
    }
    default:
      // A frame the driver never asked for (kHello twice, a client-side
      // type): protocol breach, fail closed.
      declare_dead(w, "unexpected frame");
      break;
  }
}

// Rewrites opts_.status_out (schema clear-fleet-status-v1) at most every
// kStatusIntervalMs: the shard tally, the worker registry with each
// worker's latest heartbeat snapshot, and the driver's own scheduling
// metrics.  tmp + atomic rename so a concurrent reader (`clear explore
// watch --status`, `clear status --file`) never sees a torn document.
void Driver::maybe_write_status(Clock::time_point now, bool force) {
  if (opts_.status_out.empty()) return;
  if (!force && last_status_ != Clock::time_point{} &&
      ms_since(last_status_, now) < kStatusIntervalMs) {
    return;
  }
  last_status_ = now;
  FleetStatus status;
  status.shards = ShardTally{shards_.size(), completed_count_, queue_.size(),
                             redispatched_};
  for (const WorkerConn& wc : workers_) {
    status.workers.push_back(status_row(wc.status));
  }
  status.driver = obs::snapshot();
  // Best effort: a status file must not fail the fleet it reports on.
  (void)util::write_file_atomic(opts_.status_out, status_to_json(status));
}

// Handles every frame worker w has ready (wait_any saw it readable).
void Driver::pump(std::size_t w) {
  WorkerConn& wc = workers_[w];
  for (;;) {
    serve::Frame frame;
    const serve::FrameConn::Recv got = wc.conn.recv(&frame, 0);
    if (got == serve::FrameConn::Recv::kClosed) {
      declare_dead(w, "connection closed");
      return;
    }
    if (got == serve::FrameConn::Recv::kBad) {
      declare_dead(w, "bad frame");
      return;
    }
    wc.last_seen = Clock::now();  // any bytes count as a sign of life
    if (got == serve::FrameConn::Recv::kTimeout) return;
    handle_frame(w, frame);
    if (wc.status.state == WorkerState::kDead) return;
  }
}

// Dispatches until every shard has completed.
void Driver::dispatch() {
  if (live_count() == 0 && !shards_.empty()) {
    throw std::runtime_error("fleet: no workers registered");
  }
  while (completed_count_ < shards_.size()) {
    assign_idle();
    if (live_count() == 0) {
      throw std::runtime_error(
          "fleet: all workers died with " +
          std::to_string(shards_.size() - completed_count_) +
          " shard(s) outstanding");
    }
    std::vector<const util::Socket*> socks(workers_.size(), nullptr);
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (workers_[w].status.state != WorkerState::kDead) {
        socks[w] = &workers_[w].conn.socket();
      }
    }
    const int ready = util::Socket::wait_any(socks.data(), socks.size(), 50);
    if (ready >= 0) pump(static_cast<std::size_t>(ready));
    const auto now = Clock::now();
    check_deadlines(now);
    maybe_write_status(now);
  }
}

// Sends kShutdown to every live worker, then lingers up to 2 s until each
// closes its end.  The worker keeps heartbeating until it decodes the
// shutdown frame; if we close first, a heartbeat send can fail and make
// the worker drop the connection without draining its receive buffer --
// the shutdown frame would be lost and the daemon would stay up.  After a
// completed run the frames read meanwhile go through the normal handler:
// the worker's final heartbeat carries the metric snapshot that covers
// its last shard.  After a failed one they are only drained.
void Driver::shut_down_workers(bool failed) {
  for (WorkerConn& wc : workers_) {
    if (wc.status.state == WorkerState::kDead) continue;
    (void)wc.conn.send(serve::FrameType::kShutdown, "", serve::kSendTimeoutMs);
  }
  const auto deadline = Clock::now() + std::chrono::milliseconds(2000);
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    WorkerConn& wc = workers_[w];
    while (wc.status.state != WorkerState::kDead && Clock::now() < deadline) {
      serve::Frame frame;
      const serve::FrameConn::Recv got = wc.conn.recv(&frame, 100);
      if (got == serve::FrameConn::Recv::kTimeout) continue;
      if (got != serve::FrameConn::Recv::kFrame) break;
      if (!failed) handle_frame(w, frame);
    }
  }
}

FleetReport Driver::run() {
  for (std::size_t pos = 0; pos < shards_.size(); ++pos) {
    queue_.push_back(pos);
  }
  register_workers();
  try {
    dispatch();
  } catch (...) {
    if (opts_.shutdown_workers) shut_down_workers(/*failed=*/true);
    throw;
  }
  maybe_write_status(Clock::now(), /*force=*/true);
  if (opts_.shutdown_workers) shut_down_workers(/*failed=*/false);
  FleetReport report;
  report.workers.reserve(workers_.size());
  for (const WorkerConn& wc : workers_) report.workers.push_back(wc.status);
  report.redispatched = redispatched_;
  report.workers_lost = workers_lost_;
  return report;
}

}  // namespace

FleetReport run_fleet(const std::vector<Endpoint>& workers,
                      const std::vector<ShardWork>& shards,
                      const FleetOptions& opts, const EventFn& event,
                      const ShardDoneFn& on_shard) {
  std::vector<std::uint64_t> ids;
  ids.reserve(shards.size());
  for (const ShardWork& s : shards) ids.push_back(s.id);
  std::sort(ids.begin(), ids.end());
  const auto dup = std::adjacent_find(ids.begin(), ids.end());
  if (dup != ids.end()) {
    throw std::runtime_error("fleet: duplicate shard id " +
                             std::to_string(*dup));
  }
  Driver driver(workers, shards, opts, event, on_shard);
  return driver.run();
}

}  // namespace clear::fleet
