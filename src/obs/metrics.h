// Process-wide metrics registry: the observability layer every hot path
// reports into (docs/OBSERVABILITY.md is the metric catalog).
//
// Three primitive kinds, all safe to mutate from any thread:
//
//   * Counter   - monotonic event count, sharded across cache-line-padded
//                 stripes so concurrent workers never contend on one line,
//   * Gauge     - last-written value plus running maximum (queue depths,
//                 pack bytes),
//   * Histogram - bounded latency/size distribution over 64 fixed log2
//                 buckets (bucket 0 holds zero, bucket i holds values with
//                 bit-width i, i.e. [2^(i-1), 2^i)); never allocates after
//                 registration.
//
// Span is the RAII timing helper: it stamps steady_clock at construction
// and records the elapsed nanoseconds into a Histogram at destruction.
//
// Design rules:
//
//   * Result-neutral: nothing in this header feeds simulation state, RNG
//     streams or wire payloads -- `.csr`/`.cxl` bytes are bit-identical
//     with collection on or off (pinned by test_obs).
//   * Cheap: every mutation is gated on one relaxed atomic load
//     (enabled()); test_obs enforces <2% campaign wall-clock overhead
//     with collection on.
//   * Snapshot-consistent: snapshot() reads each histogram's buckets once
//     and derives the count from their sum, so a reader always sees a
//     count that equals the bucket total even while workers mutate it.
//   * Registration interns by name: the first registration wins, later
//     ones return the same object, and handles stay valid forever (the
//     registry is leaked deliberately, like CachePack::instance).
//
// CLEAR_METRICS=0 disables collection at process start; set_enabled()
// overrides at runtime (test_obs's overhead check measures both modes in
// one process).  The CLI verbs that accept --metrics-out write a JSON dump
// there.
#ifndef CLEAR_OBS_METRICS_H
#define CLEAR_OBS_METRICS_H

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace clear::util {
struct Json;
}  // namespace clear::util

namespace clear::obs {

// ---- collection gate -------------------------------------------------------

// True when metric mutations are recorded.  Initialized once from
// CLEAR_METRICS (default on); set_enabled() overrides afterwards.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

// ---- primitives ------------------------------------------------------------

constexpr std::size_t kCounterStripes = 16;
constexpr std::size_t kHistBuckets = 64;

// Cache-line-padded atomic so adjacent stripes never false-share.
struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> v{0};
};

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!enabled() || n == 0) return;
    stripes_[stripe()].v.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& s : stripes_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  static std::size_t stripe() noexcept;
  std::array<PaddedU64, kCounterStripes> stripes_;
};

class Gauge {
 public:
  void set(std::uint64_t v) noexcept {
    if (!enabled()) return;
    last_.store(v, std::memory_order_relaxed);
    std::uint64_t prev = max_.load(std::memory_order_relaxed);
    while (prev < v &&
           !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t last() const noexcept {
    return last_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> last_{0};
  std::atomic<std::uint64_t> max_{0};
};

class Histogram {
 public:
  // Bucket index for a value: 0 for 0, bit_width(v) otherwise -- bucket i
  // covers [2^(i-1), 2^i), bucket 63 additionally absorbs the top half of
  // the u64 range.  Exposed for the unit test that pins the boundaries.
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) noexcept {
    std::size_t b = 0;
    while (v != 0) {
      ++b;
      v >>= 1;
    }
    return b < kHistBuckets ? b : kHistBuckets - 1;
  }
  // Inclusive lower bound of bucket i (0, 1, 2, 4, 8, ...).
  [[nodiscard]] static std::uint64_t bucket_lo(std::size_t i) noexcept {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }

  void record(std::uint64_t v) noexcept {
    if (!enabled()) return;
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  // One coherent read: count is derived from the bucket total, never kept
  // as a separate (skewable) atomic.
  void read(std::array<std::uint64_t, kHistBuckets>* buckets,
            std::uint64_t* count, std::uint64_t* sum) const noexcept {
    *count = 0;
    for (std::size_t i = 0; i < kHistBuckets; ++i) {
      (*buckets)[i] = buckets_[i].load(std::memory_order_relaxed);
      *count += (*buckets)[i];
    }
    *sum = sum_.load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

// RAII timing span: records elapsed nanoseconds into `h` at destruction.
// The construction-time enabled() check skips the clock read entirely
// when collection is off.
class Span {
 public:
  explicit Span(Histogram& h) noexcept
      : h_(&h), armed_(enabled()),
        t0_(armed_ ? std::chrono::steady_clock::now()
                   : std::chrono::steady_clock::time_point{}) {}
  ~Span() {
    if (!armed_) return;
    const auto dt = std::chrono::steady_clock::now() - t0_;
    h_->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Histogram* h_;
  bool armed_;
  std::chrono::steady_clock::time_point t0_;
};

// ---- registry --------------------------------------------------------------

// Interned registration: one object per name for the process lifetime.
// Hot paths grab the reference once (function-local static) and mutate it
// lock-free afterwards.  `unit` is advisory documentation carried into
// snapshots ("ns", "bytes", "count"); the first registration's unit wins.
[[nodiscard]] Counter& counter(const std::string& name);
[[nodiscard]] Gauge& gauge(const std::string& name);
[[nodiscard]] Histogram& histogram(const std::string& name,
                                   const std::string& unit = "ns");

// ---- snapshots -------------------------------------------------------------

struct HistogramRow {
  std::string name;
  std::string unit;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kHistBuckets> buckets{};

  // Smallest bucket lower bound at or above quantile q of the recorded
  // distribution (0 when empty): the rendering helper for p50/p95 cells.
  [[nodiscard]] std::uint64_t quantile_lo(double q) const noexcept;
};

struct CounterRow {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeRow {
  std::string name;
  std::uint64_t last = 0;
  std::uint64_t max = 0;
};

// Name-sorted, point-in-time view of every registered metric.
struct Snapshot {
  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;
  std::vector<HistogramRow> histograms;

  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  [[nodiscard]] const HistogramRow* find_histogram(
      const std::string& name) const;
};

[[nodiscard]] Snapshot snapshot();

// Folds `from` into `into` (fleet aggregation): counters and histogram
// buckets/sums add; gauges keep the max of both sides (a fleet-wide
// gauge is a high-water mark, not a total).
void merge(Snapshot* into, const Snapshot& from);

// ---- codecs ----------------------------------------------------------------

// Stable JSON export, schema "clear-metrics-v1" (documented in
// docs/OBSERVABILITY.md, validated by tools/check_metrics_schema.py).
// Histogram buckets are emitted sparsely as [bucket_lo, count] pairs.
[[nodiscard]] std::string to_json(const Snapshot& s);

// Reads a clear-metrics-v1 object back (the inverse of to_json, up to a
// histogram's count, which is re-derived from its buckets).  Returns false
// when `doc` is not an object of that schema, a value is not a
// non-negative integer, or a bucket is not a [bucket lower bound, count]
// pair.
[[nodiscard]] bool snapshot_from_json(const util::Json& doc, Snapshot* out);

// Writes to_json() to `path` ("" = no-op, "-" = stdout) via tmp + rename
// (util::write_file_atomic).  Returns false, leaving any previous file
// untouched, when the file cannot be written.
bool write_json_file(const Snapshot& s, const std::string& path);

}  // namespace clear::obs

#endif  // CLEAR_OBS_METRICS_H
