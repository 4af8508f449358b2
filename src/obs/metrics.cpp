#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "util/env.h"
#include "util/fs.h"
#include "util/json.h"
#include "util/table.h"

namespace clear::obs {

namespace {

std::atomic<bool> g_enabled{util::env_long("CLEAR_METRICS", 1) != 0};

// One registry per kind, keyed by name.  Leaked deliberately (like
// CachePack::instance): handles handed to hot paths must outlive every
// worker thread, including past static destruction at exit.
struct Registry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
  std::map<std::string, std::string> hist_units;
};

Registry& registry() {
  static auto* r = new Registry;
  return *r;
}

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

std::size_t Counter::stripe() noexcept {
  // A stable per-thread stripe: hash the thread id once and cache it.
  // Distinct threads may share a stripe (fetch_add stays correct); the
  // stripes only exist to keep the common case contention-free.
  static thread_local const std::size_t slot =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      kCounterStripes;
  return slot;
}

Counter& counter(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> g(r.mu);
  auto& slot = r.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& gauge(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> g(r.mu);
  auto& slot = r.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& histogram(const std::string& name, const std::string& unit) {
  Registry& r = registry();
  std::lock_guard<std::mutex> g(r.mu);
  auto& slot = r.histograms[name];
  if (!slot) {
    slot = std::make_unique<Histogram>();
    r.hist_units[name] = unit;
  }
  return *slot;
}

std::uint64_t HistogramRow::quantile_lo(double q) const noexcept {
  if (count == 0) return 0;
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(count));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kHistBuckets; ++i) {
    seen += buckets[i];
    if (seen > target) return Histogram::bucket_lo(i);
  }
  return Histogram::bucket_lo(kHistBuckets - 1);
}

std::uint64_t Snapshot::counter_value(const std::string& name) const {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

const HistogramRow* Snapshot::find_histogram(const std::string& name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

Snapshot snapshot() {
  Registry& r = registry();
  std::lock_guard<std::mutex> g(r.mu);
  Snapshot s;
  s.counters.reserve(r.counters.size());
  for (const auto& [name, c] : r.counters) {
    s.counters.push_back({name, c->value()});
  }
  s.gauges.reserve(r.gauges.size());
  for (const auto& [name, gg] : r.gauges) {
    s.gauges.push_back({name, gg->last(), gg->max()});
  }
  s.histograms.reserve(r.histograms.size());
  for (const auto& [name, h] : r.histograms) {
    HistogramRow row;
    row.name = name;
    row.unit = r.hist_units[name];
    h->read(&row.buckets, &row.count, &row.sum);
    s.histograms.push_back(std::move(row));
  }
  return s;  // maps iterate sorted: rows come out name-ordered
}

void merge(Snapshot* into, const Snapshot& from) {
  for (const auto& c : from.counters) {
    auto it = std::find_if(into->counters.begin(), into->counters.end(),
                           [&](const CounterRow& r) { return r.name == c.name; });
    if (it == into->counters.end()) {
      into->counters.push_back(c);
    } else {
      it->value += c.value;
    }
  }
  for (const auto& gg : from.gauges) {
    auto it = std::find_if(into->gauges.begin(), into->gauges.end(),
                           [&](const GaugeRow& r) { return r.name == gg.name; });
    if (it == into->gauges.end()) {
      into->gauges.push_back(gg);
    } else {
      it->last = std::max(it->last, gg.last);
      it->max = std::max(it->max, gg.max);
    }
  }
  for (const auto& h : from.histograms) {
    auto it = std::find_if(
        into->histograms.begin(), into->histograms.end(),
        [&](const HistogramRow& r) { return r.name == h.name; });
    if (it == into->histograms.end()) {
      into->histograms.push_back(h);
    } else {
      it->count += h.count;
      it->sum += h.sum;
      for (std::size_t i = 0; i < kHistBuckets; ++i) {
        it->buckets[i] += h.buckets[i];
      }
    }
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(into->counters.begin(), into->counters.end(), by_name);
  std::sort(into->gauges.begin(), into->gauges.end(), by_name);
  std::sort(into->histograms.begin(), into->histograms.end(), by_name);
}

std::string to_json(const Snapshot& s) {
  std::string out = "{\n  \"schema\": \"clear-metrics-v1\",\n";
  out += "  \"counters\": {";
  for (std::size_t i = 0; i < s.counters.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"";
    out += util::json_escape(s.counters[i].name);
    out += "\": " + std::to_string(s.counters[i].value);
  }
  out += s.counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  for (std::size_t i = 0; i < s.gauges.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"";
    out += util::json_escape(s.gauges[i].name);
    out += "\": {\"last\": " + std::to_string(s.gauges[i].last) +
           ", \"max\": " + std::to_string(s.gauges[i].max) + "}";
  }
  out += s.gauges.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  for (std::size_t i = 0; i < s.histograms.size(); ++i) {
    const auto& h = s.histograms[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    \"";
    out += util::json_escape(h.name);
    out += "\": {\"unit\": \"";
    out += util::json_escape(h.unit);
    out += "\", \"count\": " + std::to_string(h.count) +
           ", \"sum\": " + std::to_string(h.sum) + ", \"buckets\": [";
    bool first = true;
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      if (!first) out += ", ";
      first = false;
      out += "[" + std::to_string(Histogram::bucket_lo(b)) + ", " +
             std::to_string(h.buckets[b]) + "]";
    }
    out += "]}";
  }
  out += s.histograms.empty() ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

namespace {

// A count is one non-negative integer: a string, a fraction, a negative
// number or a missing member fails the read instead of reading as 0.
bool count_of(const util::Json* v, std::uint64_t* out) {
  if (v == nullptr || v->kind != util::Json::Kind::kNum ||
      static_cast<double>(v->u) != v->num) {
    return false;
  }
  *out = v->u;
  return true;
}

}  // namespace

// Bucket pairs carry the bucket's lower bound; bucket_of() inverts it
// (every lower bound is exactly 2^(i-1), whose bit width is i).
bool snapshot_from_json(const util::Json& doc, Snapshot* out) {
  if (doc.str_at("schema") != "clear-metrics-v1") return false;
  const util::Json* counters = doc.find("counters");
  const util::Json* gauges = doc.find("gauges");
  const util::Json* hists = doc.find("histograms");
  for (const util::Json* section : {counters, gauges, hists}) {
    if (section != nullptr && section->kind != util::Json::Kind::kObj) {
      return false;
    }
  }
  *out = Snapshot();
  if (counters != nullptr) {
    for (const auto& [name, v] : counters->obj) {
      CounterRow row{name, 0};
      if (!count_of(&v, &row.value)) return false;
      out->counters.push_back(std::move(row));
    }
  }
  if (gauges != nullptr) {
    for (const auto& [name, v] : gauges->obj) {
      GaugeRow row{name, 0, 0};
      if (!count_of(v.find("last"), &row.last) ||
          !count_of(v.find("max"), &row.max)) {
        return false;
      }
      out->gauges.push_back(std::move(row));
    }
  }
  if (hists != nullptr) {
    for (const auto& [name, v] : hists->obj) {
      HistogramRow row;
      row.name = name;
      row.unit = v.str_at("unit");
      if (!count_of(v.find("sum"), &row.sum)) return false;
      if (const util::Json* buckets = v.find("buckets")) {
        for (const util::Json& pair : buckets->arr) {
          std::uint64_t lo = 0, n = 0;
          if (pair.arr.size() != 2 || !count_of(&pair.arr[0], &lo) ||
              !count_of(&pair.arr[1], &n)) {
            return false;
          }
          const std::size_t b = Histogram::bucket_of(lo);
          if (Histogram::bucket_lo(b) != lo) return false;
          row.buckets[b] += n;
          row.count += n;
        }
      }
      out->histograms.push_back(std::move(row));
    }
  }
  return true;
}

bool write_json_file(const Snapshot& s, const std::string& path) {
  if (path.empty()) return true;
  const std::string json = to_json(s);
  if (path == "-") {
    std::cout << json;
    return true;
  }
  // tmp + rename: a failed or killed write never leaves a truncated
  // document for a reader (check_metrics_schema.py, a fleet dashboard).
  return util::write_file_atomic(path, json);
}

}  // namespace clear::obs
