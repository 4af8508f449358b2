#include "fleet/fleet.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <sstream>
#include <stdexcept>

#include "plan/runplan.h"
#include "explore/ledger.h"
#include "inject/wire.h"
#include "obs/metrics.h"
#include "util/fs.h"
#include "util/socket.h"
#include "util/table.h"

namespace clear::fleet {

namespace {

using Clock = std::chrono::steady_clock;

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
  obs::Counter& steals = obs::counter("fleet.steal");
  obs::Counter& redispatch = obs::counter("fleet.redispatch");
  obs::Counter& workers_dead = obs::counter("fleet.worker.dead");
  obs::Histogram& ack_rtt = obs::histogram("fleet.ack.rtt");
  obs::Histogram& heartbeat_gap = obs::histogram("fleet.heartbeat.gap");
};

FleetMetrics& metrics() {
  static FleetMetrics m;
  return m;
}

std::string format_double(double v) {
  // Shortest representation that round-trips: %.15g when it re-parses
  // exactly, %.17g (always exact for IEEE doubles) otherwise.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  if (std::strtod(buf, nullptr) != v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

const char* metric_token(core::Metric m) {
  switch (m) {
    case core::Metric::kSdc: return "sdc";
    case core::Metric::kDue: return "due";
    case core::Metric::kJoint: return "joint";
  }
  return "sdc";
}

bool parse_metric_token(const std::string& text, core::Metric* out) {
  if (text == "sdc") *out = core::Metric::kSdc;
  else if (text == "due") *out = core::Metric::kDue;
  else if (text == "joint") *out = core::Metric::kJoint;
  else return false;
  return true;
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : text) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

// Flags a fleet refuses inside a campaign stanza: sharding belongs to the
// driver, and output/nesting/introspection flags direct a local CLI.
bool forbidden_campaign_token(const std::string& tok, std::string* which) {
  static constexpr const char* kForbidden[] = {
      "--shard", "--out", "--spec", "--dry-run", "--list-benches",
      "--metrics-out"};
  for (const char* f : kForbidden) {
    if (tok == f || (tok.rfind(f, 0) == 0 && tok.size() > std::strlen(f) &&
                     tok[std::strlen(f)] == '=')) {
      *which = f;
      return true;
    }
  }
  return false;
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

bool parse_endpoint(const std::string& text, Endpoint* out,
                    std::string* error) {
  Endpoint e;
  if (text.rfind("tcp:", 0) == 0) {
    const std::string digits = text.substr(4);
    char* end = nullptr;
    const unsigned long v = std::strtoul(digits.c_str(), &end, 10);
    if (digits.empty() || end == nullptr || *end != '\0' || v == 0 ||
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
    unsigned long fan = 0;  // 0 = no @N suffix
    const std::size_t at = op.rfind('@');
    if (at != std::string::npos && at + 1 < op.size()) {
      char* end = nullptr;
      const unsigned long v = std::strtoul(op.c_str() + at + 1, &end, 10);
      if (end != nullptr && *end == '\0' && v >= 1 && v <= 4096) {
        base = op.substr(0, at);
        fan = v;
      }
    }
    Endpoint e;
    if (!parse_endpoint(base, &e, error)) return false;
    if (fan == 0) {
      out->push_back(e);
      continue;
    }
    for (unsigned long i = 0; i < fan; ++i) {
      Endpoint child = e;
      if (!child.socket_path.empty()) {
        // Matches the `clear serve --workers N` child socket names.
        child.socket_path = e.socket_path + "." + std::to_string(i);
      } else {
        const unsigned long port = e.port + i;
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
  std::istringstream in(manifest);
  std::vector<std::vector<std::string>> stanzas;
  plan::split_spec_stanzas(in, &stanzas);
  // split_spec_stanzas yields one empty stanza for empty input; an empty
  // stanza anywhere would dispatch a bare `--shard k/K` manifest every
  // worker refuses, so fail at the driver instead.
  for (const auto& stanza : stanzas) {
    if (stanza.empty()) {
      if (error != nullptr) *error = "manifest holds no campaign stanzas";
      return false;
    }
  }
  for (std::size_t s = 0; s < stanzas.size(); ++s) {
    for (const std::string& tok : stanzas[s]) {
      std::string which;
      if (forbidden_campaign_token(tok, &which)) {
        if (error != nullptr) {
          *error = "campaign #" + std::to_string(s + 1) + " carries " + which +
                   ": sharding and output belong to the fleet driver";
        }
        return false;
      }
    }
  }
  out->reserve(shard_count);
  for (std::uint32_t k = 0; k < shard_count; ++k) {
    ShardWork w;
    w.id = k;
    w.kind = serve::ShardKind::kCampaign;
    std::string text;
    for (std::size_t s = 0; s < stanzas.size(); ++s) {
      if (s != 0) text += "\n---\n";
      for (const std::string& tok : stanzas[s]) {
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
  std::string base = "--core " + spec.core +
                     " --target " + format_double(spec.target) +
                     " --metric " + metric_token(spec.metric) +
                     " --seed " + std::to_string(spec.seed);
  if (spec.per_ff_samples != 0) {
    base += " --per-ff " + std::to_string(spec.per_ff_samples);
  }
  if (!spec.benchmarks.empty()) {
    base += " --benches ";
    for (std::size_t i = 0; i < spec.benchmarks.size(); ++i) {
      if (i != 0) base += ',';
      base += spec.benchmarks[i];
    }
  }
  if (spec.batch != 0) base += " --batch " + std::to_string(spec.batch);
  if (!spec.prune) base += " --no-prune";
  if (spec.confidence > 0.0) {
    // Identity fields of the adaptive sampler: every shard must carry
    // exactly the target the driver resolved (format_double round-trips
    // the double bit-exactly) or the per-shard ledgers would not merge.
    base += " --confidence " + format_double(spec.confidence);
    if (spec.confidence_method == util::IntervalMethod::kClopperPearson) {
      base += " --confidence-method cp";
    }
  }
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
  std::istringstream in(text);
  std::vector<std::vector<std::string>> stanzas;
  plan::split_spec_stanzas(in, &stanzas);
  if (stanzas.size() != 1) {
    if (error != nullptr) {
      *error = "explore shard wants exactly one stanza, got " +
               std::to_string(stanzas.size());
    }
    return false;
  }
  util::ArgParser args("explore shard stanza",
                       "fleet-dispatched explore combo-space slice");
  args.add_option("core", "C", "core model", "InO");
  args.add_option("target", "X", "improvement target", "50");
  args.add_option("metric", "M", "sdc|due|joint", "sdc");
  args.add_option("seed", "N", "campaign seed", "1");
  args.add_option("per-ff", "N", "injections per FF per benchmark", "0");
  args.add_option("benches", "CSV", "benchmark subset", "");
  args.add_option("shard", "k/K", "combo-space shard", "0/1");
  args.add_option("batch", "N", "combos per batch", "0");
  args.add_flag("no-prune", "evaluate every combination");
  args.add_option("confidence", "W", "adaptive profiling half-width target",
                  "0");
  args.add_option("confidence-method", "wilson|cp",
                  "interval method for --confidence", "wilson");
  std::vector<const char*> argv;
  argv.reserve(stanzas[0].size());
  for (const std::string& tok : stanzas[0]) argv.push_back(tok.c_str());
  std::string perror;
  if (!args.parse(static_cast<int>(argv.size()), argv.data(), &perror)) {
    if (error != nullptr) *error = "explore shard stanza: " + perror;
    return false;
  }
  explore::ExploreSpec s;
  s.core = args.get("core");
  {
    const std::string t = args.get("target");
    char* end = nullptr;
    s.target = std::strtod(t.c_str(), &end);
    if (t.empty() || end == nullptr || *end != '\0') {
      if (error != nullptr) *error = "bad --target '" + t + "'";
      return false;
    }
  }
  if (!parse_metric_token(args.get("metric"), &s.metric)) {
    if (error != nullptr) *error = "bad --metric '" + args.get("metric") + "'";
    return false;
  }
  std::uint64_t u = 0;
  if (!args.get_u64("seed", 1, &u)) {
    if (error != nullptr) *error = "bad --seed '" + args.get("seed") + "'";
    return false;
  }
  s.seed = u;
  if (!args.get_u64("per-ff", 0, &u)) {
    if (error != nullptr) *error = "bad --per-ff '" + args.get("per-ff") + "'";
    return false;
  }
  s.per_ff_samples = static_cast<std::size_t>(u);
  s.benchmarks = split_csv(args.get("benches"));
  if (!plan::parse_shard(args.get("shard"), &s.shard_index, &s.shard_count)) {
    if (error != nullptr) {
      *error = "bad --shard '" + args.get("shard") + "' (want k/K with k < K)";
    }
    return false;
  }
  if (!args.get_u64("batch", 0, &u)) {
    if (error != nullptr) *error = "bad --batch '" + args.get("batch") + "'";
    return false;
  }
  s.batch = static_cast<std::size_t>(u);
  s.prune = !args.has("no-prune");
  {
    const std::string t = args.get("confidence");
    char* end = nullptr;
    s.confidence = std::strtod(t.c_str(), &end);
    if (t.empty() || end == t.c_str() || *end != '\0' ||
        !(s.confidence >= 0) || s.confidence > 0.5) {
      if (error != nullptr) {
        *error = "bad --confidence '" + t + "' (want (0, 0.5], or 0 = off)";
      }
      return false;
    }
  }
  {
    const std::string m = args.get("confidence-method");
    if (m == "cp") {
      s.confidence_method = util::IntervalMethod::kClopperPearson;
    } else if (m != "wilson") {
      if (error != nullptr) {
        *error = "bad --confidence-method '" + m + "' (wilson or cp)";
      }
      return false;
    }
  }
  *spec = s;
  return true;
}

std::string run_explore_stanza(const std::string& text,
                               const std::atomic<bool>* cancel,
                               const explore::ProgressFn& progress) {
  explore::ExploreSpec spec;
  std::string error;
  if (!parse_explore_stanza(text, &spec, &error)) {
    throw std::invalid_argument(error);
  }
  spec.cancel = cancel;
  // In-memory ledger: the shard's bytes travel back over the socket; the
  // driver owns persistence (and the merge).
  const explore::Ledger ledger = explore::run_exploration(spec, "", progress);
  return explore::encode_ledger(ledger);
}

// ---- the driver ------------------------------------------------------------

const char* worker_state_name(WorkerState s) noexcept {
  switch (s) {
    case WorkerState::kConnecting: return "connecting";
    case WorkerState::kIdle: return "idle";
    case WorkerState::kBusy: return "busy";
    case WorkerState::kDead: return "dead";
  }
  return "?";
}

namespace {

// Shards outstanding per worker: one running, one queued in the worker's
// engine behind it.  The worker starts the queued shard the moment the
// running one ends, instead of idling while it uploads results and the
// driver folds them and assigns the next shard.
constexpr std::size_t kPipelineDepth = 2;

// One dispatched shard.
struct Outstanding {
  std::size_t pos = 0;  // index into the shards vector
  bool acked = false;
  bool stealing = false;  // kSteal sent; shard already requeued
  Clock::time_point assigned_at;
};

struct WorkerConn {
  serve::FrameConn conn;
  WorkerStatus status;
  // Dispatched shards in dispatch order.  The worker answers in request
  // order, so kProgress/kResult/kDone belong to the front entry; acks
  // match by shard id.
  std::deque<Outstanding> outstanding;
  Clock::time_point last_seen;
  Clock::time_point last_heartbeat{};  // epoch value = none received yet
  // kResult payloads for the front shard, keyed by result index.
  std::map<std::uint32_t, std::string> payloads;

  [[nodiscard]] bool stealing() const {
    return std::any_of(outstanding.begin(), outstanding.end(),
                       [](const Outstanding& o) { return o.stealing; });
  }
  // Drops the front shard (completed, failed or revoked).
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
        completed_(shards.size(), false), attempts_(shards.size(), 0) {}

  FleetReport run();

 private:
  void emit(FleetEvent::Kind kind, std::size_t w, std::uint64_t shard_id,
            const engine::JobProgress* progress = nullptr,
            const char* detail = nullptr) {
    if (!event_) return;
    FleetEvent e;
    e.kind = kind;
    e.worker = w;
    e.worker_name = workers_[w].status.name;
    e.shard_id = shard_id;
    if (detail != nullptr) e.detail = detail;
    if (progress != nullptr) e.progress = *progress;
    event_(e);
  }

  void register_workers();
  void declare_dead(std::size_t w, const char* why);
  void requeue(std::size_t w, std::size_t n);
  bool requeue_pos(std::size_t w, std::size_t at, std::size_t pos);
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
  std::deque<std::size_t> queue_;  // shard positions awaiting dispatch
  std::vector<bool> completed_;
  std::vector<int> attempts_;
  std::size_t completed_count_ = 0;
  std::size_t redispatched_ = 0;
  std::size_t workers_lost_ = 0;
  Clock::time_point last_status_{};  // epoch value = never written
};

// obs::to_json output, re-indented for embedding inside the status
// document (drops the trailing newline, indents continuation lines).
std::string embed_json(const std::string& json, const std::string& indent) {
  std::string out;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '\n' && i + 1 == json.size()) break;
    out.push_back(c);
    if (c == '\n') out += indent;
  }
  return out;
}

void Driver::register_workers() {
  for (std::size_t w = 0; w < endpoints_.size(); ++w) {
    WorkerConn& wc = workers_[w];
    wc.status.index = w;
    wc.status.endpoint = endpoints_[w].display();
    wc.status.state = WorkerState::kDead;  // until the hello lands
    try {
      wc.conn = endpoints_[w].connect(opts_.connect_retry_ms);
    } catch (const std::runtime_error&) {
      continue;  // unreachable endpoint: proceed with the rest
    }
    // Hello deadline: a server that accepts but never speaks must not
    // hang the whole fleet.  Version skew refuses the worker too: it
    // cannot serve this fleet.
    serve::Frame frame;
    serve::Hello hello;
    const bool registered =
        wc.conn.recv(&frame, opts_.hello_timeout_ms) ==
            serve::FrameConn::Recv::kFrame &&
        frame.type == serve::FrameType::kHello &&
        serve::decode_hello(frame.payload, &hello) &&
        hello.proto_version == serve::kProtoVersion &&
        hello.wire_version == inject::kWireVersion &&
        hello.ledger_version == explore::kLedgerVersion;
    if (!registered) {
      wc.conn.close();
      continue;
    }
    wc.status.name = hello.name.empty() ? wc.status.endpoint : hello.name;
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
  emit(FleetEvent::Kind::kWorkerDead, w, inflight_shard, nullptr, why);
}

// Puts shard `pos`, taken from worker w, at queue index `at` (unless
// someone else completed it meanwhile).  Returns whether it was queued.
bool Driver::requeue_pos(std::size_t w, std::size_t at, std::size_t pos) {
  if (completed_[pos]) return false;
  queue_.insert(queue_.begin() + static_cast<std::ptrdiff_t>(at), pos);
  ++redispatched_;
  metrics().redispatch.add();
  emit(FleetEvent::Kind::kRequeue, w, shards_[pos].id);
  return true;
}

// Returns worker w's first n outstanding shards to the front of the
// queue, in dispatch order: they are the oldest outstanding work, so the
// next idle workers take them first.  Shards a steal already requeued
// are only dropped.
void Driver::requeue(std::size_t w, std::size_t n) {
  WorkerConn& wc = workers_[w];
  std::size_t at = 0;
  for (; n > 0 && !wc.outstanding.empty(); --n) {
    const Outstanding o = wc.outstanding.front();
    wc.pop_front();
    if (!o.stealing && requeue_pos(w, at, o.pos)) ++at;
  }
}

// Tops every live worker up to kPipelineDepth shards, level by level:
// first one shard each, then a second, so a fleet with no more shards
// than workers still puts one on every worker.
void Driver::assign_idle() {
  for (std::size_t level = 1; level <= kPipelineDepth; ++level) {
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      WorkerConn& wc = workers_[w];
      // A worker with a steal in limbo gets no new work until the steal
      // resolves.
      if (wc.status.state == WorkerState::kDead ||
          wc.outstanding.size() >= level || wc.stealing()) {
        continue;
      }
      // Pull the next uncompleted shard (completed entries are stale
      // requeue copies -- their first execution won).
      while (!queue_.empty() && completed_[queue_.front()]) queue_.pop_front();
      if (queue_.empty()) return;
      const std::size_t pos = queue_.front();
      queue_.pop_front();
      serve::ShardAssign assign;
      assign.shard_id = shards_[pos].id;
      assign.kind = shards_[pos].kind;
      assign.priority = opts_.priority;
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

void Driver::check_deadlines(Clock::time_point now) {
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    WorkerConn& wc = workers_[w];
    if (wc.status.state == WorkerState::kDead) continue;
    if (ms_since(wc.last_seen, now) > opts_.dead_after_ms) {
      declare_dead(w, "heartbeat deadline");
      continue;
    }
    // Unacked for too long: revoke and hand the shard to someone else.
    // The worker stays registered (frames still count against the dead
    // deadline) but gets no new work until the steal resolves.
    std::size_t at = 0;
    for (Outstanding& o : wc.outstanding) {
      if (o.acked || o.stealing ||
          ms_since(o.assigned_at, now) <= opts_.ack_timeout_ms) {
        continue;
      }
      if (!wc.conn.send(serve::FrameType::kSteal,
                        serve::encode_steal(shards_[o.pos].id),
                        serve::kSendTimeoutMs)) {
        declare_dead(w, "send failed");
        break;
      }
      o.stealing = true;
      metrics().steals.add();
      if (requeue_pos(w, at, o.pos)) ++at;
    }
  }
}

void Driver::complete_shard(std::size_t w) {
  WorkerConn& wc = workers_[w];
  const std::size_t pos = wc.outstanding.front().pos;
  if (!completed_[pos]) {
    completed_[pos] = true;
    ++completed_count_;
    ShardResult res;
    res.shard_id = shards_[pos].id;
    res.kind = shards_[pos].kind;
    res.worker = w;
    res.payloads.reserve(wc.payloads.size());
    for (auto& [index, bytes] : wc.payloads) {
      (void)index;
      res.payloads.push_back(std::move(bytes));
    }
    emit(FleetEvent::Kind::kShardDone, w, res.shard_id);
    if (on_shard_) on_shard_(res);  // handed over once, never kept
    ++wc.status.shards_done;
  }
  // Duplicate completion (the shard was stolen and re-dispatched, then
  // the original worker finished anyway): drop the payloads -- they are
  // bit-identical to the delivered ones by construction.
  wc.pop_front();
}

void Driver::handle_frame(std::size_t w, const serve::Frame& frame) {
  WorkerConn& wc = workers_[w];
  switch (frame.type) {
    case serve::FrameType::kHeartbeat: {
      // last_seen is already refreshed by the caller; what the payload
      // adds is the worker's load and (v2 tail) its metric snapshot.
      std::uint32_t inflight = 0;
      std::string blob;
      if (serve::decode_heartbeat(frame.payload, &inflight, &blob)) {
        wc.status.inflight = inflight;
        obs::Snapshot snap;
        if (!blob.empty() && obs::decode_snapshot(blob, &snap)) {
          wc.status.metrics = std::move(snap);
          wc.status.has_metrics = true;
        }
      }
      const auto now = Clock::now();
      if (wc.last_heartbeat != Clock::time_point{}) {
        metrics().heartbeat_gap.record(ns_since(wc.last_heartbeat, now));
      }
      wc.last_heartbeat = now;
      break;
    }
    case serve::FrameType::kShardAck: {
      serve::ShardAck ack;
      if (!serve::decode_shard_ack(frame.payload, &ack)) {
        declare_dead(w, "bad ack");
        return;
      }
      const auto it = std::find_if(
          wc.outstanding.begin(), wc.outstanding.end(),
          [&](const Outstanding& o) {
            return shards_[o.pos].id == ack.shard_id;
          });
      switch (ack.status) {
        case serve::ShardAckStatus::kAccepted:
          if (it == wc.outstanding.end()) return;
          it->acked = true;
          metrics().acks.add();
          metrics().ack_rtt.record(ns_since(it->assigned_at, Clock::now()));
          emit(FleetEvent::Kind::kAck, w, ack.shard_id);
          break;
        case serve::ShardAckStatus::kRevoked:
          // Steal honoured: the worker dropped the shard (no kDone will
          // come) and is ready for new work.  The shard is already back
          // in the queue.  The worker sends nothing for a revoked shard,
          // so no frame of the shards behind it can precede this ack.
          if (it == wc.outstanding.end()) return;
          if (it == wc.outstanding.begin()) {
            wc.pop_front();
          } else {
            wc.outstanding.erase(it);
          }
          break;
        case serve::ShardAckStatus::kUnknown:
          // The worker finished the shard before the steal arrived; its
          // kDone is ahead of this ack in the stream and already ran
          // complete_shard, which dropped the entry.
          break;
        default:
          // An ack status this driver doesn't know: the worker speaks a
          // newer protocol; refuse rather than guess its shard state.
          declare_dead(w, "unknown ack status");
          return;
      }
      break;
    }
    case serve::FrameType::kProgress: {
      engine::JobProgress p;
      if (serve::decode_progress(frame.payload, &p) &&
          !wc.outstanding.empty()) {
        emit(FleetEvent::Kind::kProgress, w,
             shards_[wc.outstanding.front().pos].id, &p);
      }
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
          complete_shard(w);
          break;
        case serve::JobOutcome::kBadRequest:
          // Deterministic refusal: every worker resolves the same stanza
          // the same way, so retrying elsewhere cannot help.
          throw std::runtime_error(
              "fleet: worker " + wc.status.name + " refused shard " +
              std::to_string(shards_[pos].id) + ": " + done.message);
        case serve::JobOutcome::kFailed:
          if (++attempts_[pos] >= opts_.max_attempts && !completed_[pos]) {
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
// status_interval_ms: the shard tally, the worker registry with each
// worker's latest heartbeat snapshot, and the driver's own scheduling
// metrics.  tmp + atomic rename so a concurrent reader (`clear explore
// watch --status`, `clear status --file`) never sees a torn document.
void Driver::maybe_write_status(Clock::time_point now, bool force) {
  if (opts_.status_out.empty()) return;
  if (!force && last_status_ != Clock::time_point{} &&
      ms_since(last_status_, now) < opts_.status_interval_ms) {
    return;
  }
  last_status_ = now;
  std::string out = "{\n  \"schema\": \"clear-fleet-status-v1\",\n";
  out += "  \"shards\": {\"total\": " + std::to_string(shards_.size()) +
         ", \"completed\": " + std::to_string(completed_count_) +
         ", \"queued\": " + std::to_string(queue_.size()) +
         ", \"redispatched\": " + std::to_string(redispatched_) + "},\n";
  out += "  \"workers\": [";
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const WorkerStatus& st = workers_[w].status;
    out += w == 0 ? "\n" : ",\n";
    out += "    {\"index\": " + std::to_string(st.index) + ", \"endpoint\": \"";
    out += util::json_escape(st.endpoint);
    out += "\", \"name\": \"";
    out += util::json_escape(st.name);
    out += "\", \"capacity\": " + std::to_string(st.capacity) +
           ", \"state\": \"" + worker_state_name(st.state) +
           "\", \"shards_done\": " + std::to_string(st.shards_done) +
           ", \"inflight\": " + std::to_string(st.inflight) + ", \"metrics\": ";
    out += st.has_metrics
               ? embed_json(obs::to_json(st.metrics), "    ")
               : std::string("null");
    out += "}";
  }
  out += workers_.empty() ? "],\n" : "\n  ],\n";
  out += "  \"driver\": " + embed_json(obs::to_json(obs::snapshot()), "  ");
  out += "\n}\n";
  (void)util::write_file_atomic(opts_.status_out, out);  // best effort
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

FleetReport Driver::run() {
  for (std::size_t pos = 0; pos < shards_.size(); ++pos) {
    queue_.push_back(pos);
  }
  register_workers();
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
  maybe_write_status(Clock::now(), /*force=*/true);
  if (opts_.shutdown_workers) {
    for (WorkerConn& wc : workers_) {
      if (wc.status.state == WorkerState::kDead) continue;
      (void)wc.conn.send(serve::FrameType::kShutdown, "",
                         serve::kSendTimeoutMs);
    }
    // Linger until each worker closes its end.  The worker keeps
    // heartbeating until it decodes the shutdown frame; if we close
    // first, a heartbeat send can fail and make the worker drop the
    // connection without draining its receive buffer -- the shutdown
    // frame would be lost and the daemon would stay up.  Frames read
    // meanwhile go through the normal handler: the worker's final
    // heartbeat carries the metric snapshot that covers its last shard.
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      WorkerConn& wc = workers_[w];
      const auto deadline = Clock::now() + std::chrono::milliseconds(2000);
      while (wc.status.state != WorkerState::kDead && Clock::now() < deadline) {
        serve::Frame frame;
        const serve::FrameConn::Recv got = wc.conn.recv(&frame, 100);
        if (got == serve::FrameConn::Recv::kTimeout) continue;
        if (got != serve::FrameConn::Recv::kFrame) break;
        handle_frame(w, frame);
      }
    }
  }
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
