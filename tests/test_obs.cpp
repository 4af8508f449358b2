// Observability layer tests: histogram bucket boundaries, counter/gauge
// primitives, snapshot coherence, quantile rendering, the heartbeat's
// snapshot codec (exact round trip, fail-closed decode) and fleet merge
// semantics;
// then the acceptance criteria of the metrics layer as multi-process
// e2es: `.csr` and `.cxl` bytes bit-identical with CLEAR_METRICS=0/1
// across cores, thread counts and shard slices, --metrics-out emitting
// schema clear-metrics-v1, and a live `clear serve` loopback whose
// heartbeat frames carry decodable metric snapshots that aggregate; and
// the collection budget, a campaign with metrics on at most 2% slower.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/variants.h"
#include "engine/engine.h"
#include "engine/protocol.h"
#include "fleet/status.h"
#include "inject/campaign.h"
#include "obs/metrics.h"
#include "util/socket.h"

namespace {

using namespace clear;
using namespace std::chrono_literals;

const std::string kBin = CLEAR_CLI_BIN;
const std::string kDir = "obs_e2e";

class ObsEnv : public ::testing::Environment {
 public:
  void SetUp() override {
    std::filesystem::remove_all(kDir);
    std::filesystem::create_directories(kDir);
  }
};
const ::testing::Environment* const kEnv =
    ::testing::AddGlobalTestEnvironment(new ObsEnv);

int sh(const std::string& cmd) {
  const int rc = std::system((cmd + " > /dev/null").c_str());
  if (rc == -1) return -1;
  if (WIFEXITED(rc)) return WEXITSTATUS(rc);
  return -1;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---- histogram bucket boundaries -------------------------------------------

TEST(ObsHistogram, BucketBoundariesArePinned) {
  // Bucket 0 holds exactly zero; bucket i holds bit-width-i values,
  // i.e. [2^(i-1), 2^i).
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3u);
  EXPECT_EQ(obs::Histogram::bucket_of(7), 3u);
  EXPECT_EQ(obs::Histogram::bucket_of(8), 4u);
  EXPECT_EQ(obs::Histogram::bucket_of(1000), 10u);
  EXPECT_EQ(obs::Histogram::bucket_of(1u << 20), 21u);
  // The top bucket absorbs everything past 2^62.
  EXPECT_EQ(obs::Histogram::bucket_of(~std::uint64_t{0}), 63u);

  EXPECT_EQ(obs::Histogram::bucket_lo(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_lo(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_lo(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_lo(10), 512u);
  for (std::size_t i = 1; i < obs::kHistBuckets; ++i) {
    // Every bucket's lower bound maps back into that bucket, and the
    // value just below it into the previous one.
    EXPECT_EQ(obs::Histogram::bucket_of(obs::Histogram::bucket_lo(i)), i);
    EXPECT_EQ(obs::Histogram::bucket_of(obs::Histogram::bucket_lo(i) - 1),
              i - 1);
  }
}

TEST(ObsHistogram, RecordAndCoherentRead) {
  obs::Histogram h;
  h.record(0);
  h.record(1);
  h.record(5);
  h.record(5);
  std::array<std::uint64_t, obs::kHistBuckets> buckets{};
  std::uint64_t count = 0, sum = 0;
  h.read(&buckets, &count, &sum);
  EXPECT_EQ(count, 4u);
  EXPECT_EQ(sum, 11u);
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[3], 2u);
}

TEST(ObsHistogram, QuantileLo) {
  obs::HistogramRow row;
  // 90 fast samples in bucket 3 ([4,8)), 10 slow in bucket 10 ([512,1024)).
  row.buckets[3] = 90;
  row.buckets[10] = 10;
  row.count = 100;
  EXPECT_EQ(row.quantile_lo(0.5), obs::Histogram::bucket_lo(3));
  EXPECT_EQ(row.quantile_lo(0.95), obs::Histogram::bucket_lo(10));
  obs::HistogramRow empty;
  EXPECT_EQ(empty.quantile_lo(0.5), 0u);
}

// ---- counters, gauges, spans, gate -----------------------------------------

TEST(ObsCounter, StripedAddsSumAcrossThreads) {
  obs::Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 1000; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 8000u);
  c.add(42);
  EXPECT_EQ(c.value(), 8042u);
}

TEST(ObsGauge, TracksLastAndMax) {
  obs::Gauge g;
  g.set(7);
  g.set(100);
  g.set(3);
  EXPECT_EQ(g.last(), 3u);
  EXPECT_EQ(g.max(), 100u);
}

TEST(ObsGate, DisabledMutationsAreDropped) {
  ASSERT_TRUE(obs::enabled());  // tests run with the default gate
  obs::Counter c;
  obs::Histogram h;
  obs::Gauge g;
  obs::set_enabled(false);
  c.add();
  g.set(9);
  h.record(5);
  { obs::Span span(h); }
  obs::set_enabled(true);
  std::array<std::uint64_t, obs::kHistBuckets> buckets{};
  std::uint64_t count = 0, sum = 0;
  h.read(&buckets, &count, &sum);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.last(), 0u);
  EXPECT_EQ(g.max(), 0u);
  EXPECT_EQ(count, 0u);
  { obs::Span span(h); }
  h.read(&buckets, &count, &sum);
  EXPECT_EQ(count, 1u);  // re-enabled span records again
}

TEST(ObsRegistry, InternsByName) {
  obs::Counter& a = obs::counter("test.obs.interned");
  obs::Counter& b = obs::counter("test.obs.interned");
  EXPECT_EQ(&a, &b);
  a.add(3);
  const obs::Snapshot s = obs::snapshot();
  EXPECT_GE(s.counter_value("test.obs.interned"), 3u);
}

// ---- heartbeat codec and merge ----------------------------------------------

obs::Snapshot sample_snapshot() {
  obs::Snapshot s;
  s.counters.push_back({"cache.hit", 10});
  s.counters.push_back({"cache.miss", 2});
  s.gauges.push_back({"engine.queue.depth", 3, 9});
  obs::HistogramRow h;
  h.name = "campaign.sample.classify";
  h.unit = "ns";
  h.buckets[12] = 5;
  h.buckets[20] = 1;
  h.count = 6;
  h.sum = 123456;
  s.histograms.push_back(h);
  return s;
}

// What a heartbeat must carry exactly: the top histogram bucket, u64
// extremes and names that JSON has to escape.
obs::Snapshot edge_snapshot() {
  obs::Snapshot s = sample_snapshot();
  s.counters.push_back({"max \"quoted\" \\ back\tslash\n\x01", UINT64_MAX});
  s.gauges.push_back({"engine.queue.depth.peak", 0, UINT64_MAX});
  obs::HistogramRow h;
  h.name = "engine.queue.wait";
  h.unit = "n\"s";
  h.buckets[0] = 3;
  h.buckets[1] = 1;
  h.buckets[obs::kHistBuckets - 1] = UINT64_MAX - 4;
  h.count = UINT64_MAX;
  h.sum = UINT64_MAX;
  s.histograms.push_back(h);
  return s;
}

TEST(ObsCodec, HeartbeatCarriesTheSnapshotExactly) {
  const obs::Snapshot s = edge_snapshot();
  const std::string payload = serve::encode_heartbeat(7, s);
  EXPECT_EQ(payload.substr(4), obs::to_json(s));  // the --metrics-out bytes
  std::uint32_t inflight = 0;
  obs::Snapshot out;
  ASSERT_TRUE(serve::decode_heartbeat(payload, &inflight, &out));
  EXPECT_EQ(inflight, 7u);
  ASSERT_EQ(out.counters.size(), s.counters.size());
  for (std::size_t i = 0; i < s.counters.size(); ++i) {
    EXPECT_EQ(out.counters[i].name, s.counters[i].name);
    EXPECT_EQ(out.counters[i].value, s.counters[i].value);
  }
  ASSERT_EQ(out.gauges.size(), s.gauges.size());
  for (std::size_t i = 0; i < s.gauges.size(); ++i) {
    EXPECT_EQ(out.gauges[i].name, s.gauges[i].name);
    EXPECT_EQ(out.gauges[i].last, s.gauges[i].last);
    EXPECT_EQ(out.gauges[i].max, s.gauges[i].max);
  }
  ASSERT_EQ(out.histograms.size(), s.histograms.size());
  for (std::size_t i = 0; i < s.histograms.size(); ++i) {
    EXPECT_EQ(out.histograms[i].name, s.histograms[i].name);
    EXPECT_EQ(out.histograms[i].unit, s.histograms[i].unit);
    EXPECT_EQ(out.histograms[i].count, s.histograms[i].count);
    EXPECT_EQ(out.histograms[i].sum, s.histograms[i].sum);
    EXPECT_EQ(out.histograms[i].buckets, s.histograms[i].buckets);
  }
}

TEST(ObsCodec, HeartbeatWithoutASnapshotDocumentFailsClosed) {
  const std::string payload = serve::encode_heartbeat(1, edge_snapshot());
  std::uint32_t inflight = 0;
  obs::Snapshot out;
  // Every cut before the document's closing brace is refused, the bare
  // 4-byte heartbeat of a v6 peer included.
  const std::size_t close = payload.rfind('}');
  for (std::size_t n = 0; n <= close; ++n) {
    EXPECT_FALSE(serve::decode_heartbeat(payload.substr(0, n), &inflight,
                                         &out))
        << "accepted a " << n << "-byte prefix";
  }
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string p = payload;
    const std::size_t at = p.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return p.replace(at, from.size(), to);
  };
  for (const std::string& bad :
       {with("clear-metrics-v1", "clear-metrics-v2"),          // other schema
        with("\"schema\"", "\"format\""),                      // no schema
        with("[2048, 5]", "[2048, 5, 1]"),                     // not a pair
        with("[2048, 5]", "[2047, 5]"),                        // not a bound
        with("[2048, 5]", "[2048, -5]"),                       // negative
        with("\"cache.hit\": 10", "\"cache.hit\": \"10\""),    // a string
        with("\"cache.hit\": 10", "\"cache.hit\": 1.5"),       // a fraction
        with(", \"max\": 9}", "}"),                            // no max
        with("\"sum\": 123456", "\"total\": 123456"),          // no sum
        with("\"counters\": {", "\"counters\": 5, \"x\": {"),  // a number
        payload + "x",                                         // trailing
        std::string(4, '\0') + "\x01\x02"}) {                  // not JSON
    EXPECT_FALSE(serve::decode_heartbeat(bad, &inflight, &out)) << bad;
  }
  ASSERT_TRUE(serve::decode_heartbeat(payload, &inflight, &out));
}

TEST(ObsMerge, CountersAddGaugesMax) {
  obs::Snapshot a = sample_snapshot();
  obs::Snapshot b = sample_snapshot();
  b.counters[0].value = 5;       // cache.hit
  b.gauges[0].last = 1;
  b.gauges[0].max = 20;
  b.counters.push_back({"fleet.dispatch", 4});  // only on one side
  obs::merge(&a, b);
  EXPECT_EQ(a.counter_value("cache.hit"), 15u);
  EXPECT_EQ(a.counter_value("cache.miss"), 4u);
  EXPECT_EQ(a.counter_value("fleet.dispatch"), 4u);
  EXPECT_EQ(a.gauges[0].max, 20u);  // high-water mark, not a total
  const obs::HistogramRow* h = a.find_histogram("campaign.sample.classify");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 12u);
  EXPECT_EQ(h->sum, 246912u);
  EXPECT_EQ(h->buckets[12], 10u);
}

TEST(ObsJson, SchemaAndSparseBuckets) {
  const std::string json = obs::to_json(sample_snapshot());
  EXPECT_NE(json.find("\"schema\": \"clear-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"cache.hit\": 10"), std::string::npos);
  // Sparse pairs: [bucket_lo, count] for the two occupied buckets only.
  EXPECT_NE(json.find("[2048, 5]"), std::string::npos);
  EXPECT_NE(json.find("[524288, 1]"), std::string::npos);
}

// ---- result neutrality (the acceptance criterion) --------------------------

// Runs the same campaign on `threads` worker threads with CLEAR_METRICS=0
// and =1; the .csr bytes must be bit-identical -- collection must never
// feed simulation state.
void expect_neutral_csr(const std::string& tag, const std::string& threads,
                        const std::string& flags) {
  const std::string off = kDir + "/" + tag + "_off.csr";
  const std::string on = kDir + "/" + tag + "_on.csr";
  const std::string env = "CLEAR_THREADS=" + threads + " CLEAR_METRICS=";
  ASSERT_EQ(sh(env + "0 " + kBin + " run " + flags + " --out " + off), 0);
  ASSERT_EQ(sh(env + "1 " + kBin + " run " + flags + " --out " + on), 0);
  const std::string a = slurp(off);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(on)) << tag << ": metrics changed the .csr bytes";
}

TEST(ObsNeutrality, CsrBytesIdenticalAcrossGate) {
  expect_neutral_csr("ino_t1", "1", "--bench gzip --injections 90 --seed 11");
  expect_neutral_csr("ino_t8", "8", "--bench gzip --injections 90 --seed 11");
  expect_neutral_csr("ino_shard", "8",
                     "--bench gzip --injections 90 --seed 11 --shard 1/3");
  expect_neutral_csr("ooo_t2", "2",
                     "--core OoO --bench gzip --injections 60 --seed 7");
}

TEST(ObsNeutrality, CxlBytesIdenticalAcrossGate) {
  const std::string flags =
      " explore run --core InO --target 50 --benches inner_product "
      "--per-ff 1 --seed 3 --quiet --ledger ";
  const std::string off = kDir + "/explore_off.cxl";
  const std::string on = kDir + "/explore_on.cxl";
  ASSERT_EQ(sh("CLEAR_METRICS=0 " + kBin + flags + off), 0);
  ASSERT_EQ(sh("CLEAR_METRICS=1 " + kBin + flags + on), 0);
  const std::string a = slurp(off);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(on)) << "metrics changed the .cxl bytes";
}

// ---- cost: the 2% collection budget ----------------------------------------

// Every per-FF outcome counter of a campaign, in order.
std::vector<std::uint64_t> counters_of(const inject::CampaignResult& r) {
  std::vector<std::uint64_t> v{r.nominal_cycles};
  for (const auto& c : r.per_ff) {
    v.insert(v.end(), {c.vanished, c.omm, c.ut, c.hang, c.ed, c.recovered});
  }
  return v;
}

// The collection budget (docs/OBSERVABILITY.md): an InO mcf campaign with
// metrics on takes at most 2% longer than with them off.  Both modes run
// in this process through obs::set_enabled, so they share cache, thermal
// and allocator state, and the best of 3 per mode cancels scheduler noise.
// Only a delta over 50 ms as well fails: on 120 samples a few milliseconds
// of jitter are noise.
TEST(ObsCost, CollectionStaysWithinTwoPercentOfCampaignTime) {
  const bool was_enabled = obs::enabled();
  const auto prog = core::build_variant_program("mcf", core::Variant::base());
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = &prog;
  spec.injections = 120;
  double best[2] = {1e9, 1e9};  // seconds with metrics off, on
  inject::CampaignResult result[2];
  for (int rep = 0; rep < 3; ++rep) {
    for (const bool on : {false, true}) {
      obs::set_enabled(on);
      const auto t0 = std::chrono::steady_clock::now();
      result[on] = engine::run_campaign(spec);
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      best[on] = std::min(best[on], dt.count());
    }
  }
  obs::set_enabled(was_enabled);
  EXPECT_EQ(counters_of(result[0]), counters_of(result[1]));
  const double delta = best[1] - best[0];
  EXPECT_FALSE(delta > 0.02 * best[0] && delta > 0.05)
      << "metrics off " << best[0] << " s, on " << best[1] << " s";
}

// ---- --metrics-out ----------------------------------------------------------

TEST(ObsCli, MetricsOutWritesSchemaV1) {
  const std::string out = kDir + "/run_metrics.json";
  ASSERT_EQ(sh(kBin + " run --bench gzip --injections 60 --seed 5 "
                      "--no-cache --metrics-out " + out),
            0);
  const std::string json = slurp(out);
  EXPECT_NE(json.find("\"schema\": \"clear-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("campaign.samples"), std::string::npos);
  EXPECT_NE(json.find("campaign.sample.classify"), std::string::npos);
}

TEST(ObsCli, StatusNeedsExactlyOneSource) {
  EXPECT_EQ(sh(kBin + " status 2>/dev/null"), 2);  // no source
  EXPECT_EQ(sh(kBin + " status --file x.json sock 2>/dev/null"), 2);  // both
}

// ---- serve loopback: heartbeats carry snapshots ----------------------------

pid_t spawn_serve(const std::vector<std::string>& extra_args) {
  std::vector<std::string> store = {kBin, "serve"};
  store.insert(store.end(), extra_args.begin(), extra_args.end());
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int null_fd = ::open("/dev/null", O_RDWR);
  if (null_fd >= 0) {
    ::dup2(null_fd, STDIN_FILENO);
    ::dup2(null_fd, STDOUT_FILENO);
    ::dup2(null_fd, STDERR_FILENO);
    if (null_fd > STDERR_FILENO) ::close(null_fd);
  }
  std::vector<char*> argv;
  for (std::string& s : store) argv.push_back(s.data());
  argv.push_back(nullptr);
  ::execv(kBin.c_str(), argv.data());
  ::_exit(127);
}

void stop_serve(pid_t pid) {
  ::kill(pid, SIGTERM);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) return;
    std::this_thread::sleep_for(20ms);
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
}

TEST(ObsServe, HeartbeatsCarryDecodableSnapshots) {
  const std::string sock = kDir + "/hb.sock";
  const pid_t pid = spawn_serve({"--socket", sock, "--heartbeat-ms", "20",
                                 "--quiet"});
  ASSERT_GT(pid, 0);

  std::vector<obs::Snapshot> snaps;
  std::uint32_t last_inflight = 1;
  try {
    util::Socket conn = util::Socket::connect_unix(sock, 5000);
    std::string rx;
    bool got_hello = false;
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    // Collect two heartbeat snapshots off the idle daemon.
    while (snaps.size() < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      if (!conn.readable(100)) continue;
      char buf[4096];
      const long n = conn.recv_some(buf, sizeof(buf));
      ASSERT_GT(n, 0) << "server closed the connection early";
      rx.append(buf, static_cast<std::size_t>(n));
      for (;;) {
        serve::Frame frame;
        const serve::FrameStatus st = serve::decode_frame(&rx, &frame);
        if (st == serve::FrameStatus::kNeedMore) break;
        ASSERT_EQ(st, serve::FrameStatus::kOk);
        if (frame.type == serve::FrameType::kHello) {
          got_hello = true;
        } else if (frame.type == serve::FrameType::kHeartbeat) {
          EXPECT_TRUE(got_hello) << "heartbeat before hello";
          std::uint32_t inflight = 0;
          obs::Snapshot snap;
          ASSERT_TRUE(serve::decode_heartbeat(frame.payload, &inflight,
                                              &snap));
          snaps.push_back(std::move(snap));
          last_inflight = inflight;
        }
      }
    }
  } catch (const std::exception& e) {
    stop_serve(pid);
    FAIL() << e.what();
  }
  stop_serve(pid);
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(last_inflight, 0u);  // idle daemon holds no work

  // Fleet aggregation over live snapshots: merging is total for counters
  // and histograms, max for gauges -- no value may shrink.
  obs::Snapshot total = snaps[0];
  obs::merge(&total, snaps[1]);
  for (const auto& c : snaps[1].counters) {
    EXPECT_GE(total.counter_value(c.name), c.value) << c.name;
  }
}

TEST(ObsServe, FleetStatusFileAggregatesWorkerTelemetry) {
  const std::string sock = kDir + "/fleet.sock";
  const std::string status = kDir + "/status.json";
  const std::string metrics = kDir + "/fleet_metrics.json";
  const std::string spec = kDir + "/spec.txt";
  {
    std::ofstream out(spec);
    out << "--bench gzip --injections 400 --seed 9\n";
  }
  const pid_t pid = spawn_serve({"--socket", sock, "--heartbeat-ms", "5",
                                 "--quiet"});
  ASSERT_GT(pid, 0);
  const int rc = sh(kBin + " fleet run --spec " + spec + " --out-dir " +
                    kDir + "/fleet_out --shards 2 --status-out " + status +
                    " --metrics-out " + metrics + " --quiet " + sock);
  stop_serve(pid);
  ASSERT_EQ(rc, 0);

  const std::string doc = slurp(status);
  EXPECT_NE(doc.find("\"schema\": \"clear-fleet-status-v1\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"completed\": 2"), std::string::npos);
  // The driver's own scheduling metrics are always present.
  EXPECT_NE(doc.find("fleet.dispatch"), std::string::npos);
  // And the merged fleet dump carries the driver counters.
  const std::string merged = slurp(metrics);
  EXPECT_NE(merged.find("\"schema\": \"clear-metrics-v1\""),
            std::string::npos);
  EXPECT_NE(merged.find("fleet.ack"), std::string::npos);

  // The document reads back through the one reader: the tally, the
  // registry and the driver's counters.
  fleet::FleetStatus st;
  std::string err;
  ASSERT_TRUE(fleet::status_from_json(doc, &st, &err)) << err;
  ASSERT_TRUE(st.shards.has_value());
  EXPECT_EQ(st.shards->total, 2u);
  EXPECT_EQ(st.shards->completed, 2u);
  EXPECT_EQ(st.shards->queued, 0u);
  ASSERT_EQ(st.workers.size(), 1u);
  EXPECT_EQ(st.workers[0].endpoint, sock);
  EXPECT_EQ(st.workers[0].shards_done, 2u);
  ASSERT_TRUE(st.driver.has_value());
  EXPECT_GE(st.driver->counter_value("fleet.dispatch"), 2u);

  // `clear status --file` renders the document without error.
  EXPECT_EQ(sh(kBin + " status --file " + status), 0);
}

}  // namespace
