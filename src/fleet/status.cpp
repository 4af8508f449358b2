#include "fleet/status.h"

#include "util/json.h"
#include "util/table.h"

namespace clear::fleet {

namespace {

constexpr const char* kSchema = "clear-fleet-status-v1";

// obs::to_json output, re-indented for embedding inside the document
// (drops the trailing newline, indents continuation lines).
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

// Reads a clear-metrics-v1 member into *out; JSON null reads as no
// snapshot where `null_ok`.  False for anything else.
bool snapshot_of(const util::Json& doc, bool null_ok,
                 std::optional<obs::Snapshot>* out) {
  if (null_ok && doc.kind == util::Json::Kind::kNull) {
    out->reset();
    return true;
  }
  obs::Snapshot s;
  if (!obs::snapshot_from_json(doc, &s)) return false;
  *out = std::move(s);
  return true;
}

}  // namespace

std::string status_to_json(const FleetStatus& status) {
  std::string out = std::string("{\n  \"schema\": \"") + kSchema +
                    "\",\n  \"shards\": ";
  if (const auto& t = status.shards) {
    out += "{\"total\": " + std::to_string(t->total) +
           ", \"completed\": " + std::to_string(t->completed) +
           ", \"queued\": " + std::to_string(t->queued) +
           ", \"redispatched\": " + std::to_string(t->redispatched) + "}";
  } else {
    out += "null";
  }
  out += ",\n  \"workers\": [";
  for (std::size_t i = 0; i < status.workers.size(); ++i) {
    const StatusRow& r = status.workers[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"index\": " + std::to_string(r.index) + ", \"endpoint\": \"" +
           util::json_escape(r.endpoint) + "\", \"name\": \"" +
           util::json_escape(r.name) +
           "\", \"capacity\": " + std::to_string(r.capacity) +
           ", \"state\": \"" + util::json_escape(r.state) +
           "\", \"shards_done\": " + std::to_string(r.shards_done) +
           ", \"inflight\": " + std::to_string(r.inflight) + ", \"metrics\": ";
    out += r.metrics ? embed_json(obs::to_json(*r.metrics), "    ") : "null";
    out += "}";
  }
  out += status.workers.empty() ? "]" : "\n  ]";
  if (status.driver) {
    out += ",\n  \"driver\": " + embed_json(obs::to_json(*status.driver), "  ");
  }
  out += "\n}\n";
  return out;
}

bool status_from_json(const std::string& json, FleetStatus* out,
                      std::string* error) {
  util::Json doc;
  if (!util::parse_json(json, &doc) || doc.kind != util::Json::Kind::kObj) {
    *error = "not a JSON document";
    return false;
  }
  if (doc.str_at("schema") != kSchema) {
    *error = std::string("schema is not ") + kSchema;
    return false;
  }
  FleetStatus st;
  if (const util::Json* shards = doc.find("shards");
      shards != nullptr && shards->kind == util::Json::Kind::kObj) {
    st.shards = ShardTally{shards->u64_at("total"), shards->u64_at("completed"),
                           shards->u64_at("queued"),
                           shards->u64_at("redispatched")};
  }
  if (const util::Json* workers = doc.find("workers")) {
    for (const util::Json& w : workers->arr) {
      StatusRow row;
      row.index = w.u64_at("index");
      row.endpoint = w.str_at("endpoint");
      row.name = w.str_at("name");
      row.capacity = static_cast<std::uint32_t>(w.u64_at("capacity"));
      row.state = w.str_at("state");
      row.shards_done = w.u64_at("shards_done");
      row.inflight = static_cast<std::uint32_t>(w.u64_at("inflight"));
      const util::Json* metrics = w.find("metrics");
      if (metrics == nullptr || !snapshot_of(*metrics, true, &row.metrics)) {
        *error = "worker " + std::to_string(row.index) +
                 ": metrics is neither null nor a clear-metrics-v1 document";
        return false;
      }
      st.workers.push_back(std::move(row));
    }
  }
  if (const util::Json* driver = doc.find("driver");
      driver != nullptr && !snapshot_of(*driver, false, &st.driver)) {
    *error = "driver: not a clear-metrics-v1 document";
    return false;
  }
  *out = std::move(st);
  return true;
}

}  // namespace clear::fleet
