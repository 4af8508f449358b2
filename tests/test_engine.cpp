// Execution-engine tests: submit/wait/poll semantics, the work a job
// does as the obs counters see it, FIFO queue order, cooperative
// cancellation (including the killed-job fuzz over the campaign cache
// pack), Session::prefetch_async, the serve protocol codec,
// serve::FrameConn over a socketpair, and the `clear serve` loopback e2e
// -- a real daemon driven by a `clear fleet run` child, whose merged .csr
// bytes must match `clear run --out` exactly, and by raw frames for a
// manifest only the worker sees.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/session.h"
#include "engine/engine.h"
#include "engine/protocol.h"
#include "inject/campaign.h"
#include "inject/exec.h"
#include "inject/wire.h"
#include "isa/assembler.h"
#include "obs/metrics.h"
#include "util/fs.h"
#include "util/socket.h"
#include "workloads/workloads.h"
#include "merge_lists.h"
#include "scoped_env.h"

namespace {

using namespace clear;
using namespace std::chrono_literals;

isa::Program bench(const std::string& name) {
  return isa::assemble(workloads::build_benchmark(name));
}

class EngineEnv : public ::testing::Environment {
 public:
  void SetUp() override {
    // Isolate from other test binaries (ctest runs them in parallel).
    ::setenv("CLEAR_CACHE_DIR", ".clear_cache_test_engine", 1);
    std::filesystem::remove_all(".clear_cache_test_engine");
    std::filesystem::remove_all("engine_e2e");
    std::filesystem::create_directories("engine_e2e");
  }
};
const ::testing::Environment* const kEnv =
    ::testing::AddGlobalTestEnvironment(new EngineEnv);

void expect_identical(const inject::CampaignResult& a,
                      const inject::CampaignResult& b) {
  ASSERT_EQ(a.ff_count, b.ff_count);
  EXPECT_EQ(a.nominal_cycles, b.nominal_cycles);
  EXPECT_EQ(a.nominal_instrs, b.nominal_instrs);
  ASSERT_EQ(a.per_ff.size(), b.per_ff.size());
  for (std::size_t f = 0; f < a.per_ff.size(); ++f) {
    EXPECT_EQ(a.per_ff[f].vanished, b.per_ff[f].vanished) << "ff " << f;
    EXPECT_EQ(a.per_ff[f].omm, b.per_ff[f].omm) << "ff " << f;
    EXPECT_EQ(a.per_ff[f].ut, b.per_ff[f].ut) << "ff " << f;
    EXPECT_EQ(a.per_ff[f].hang, b.per_ff[f].hang) << "ff " << f;
    EXPECT_EQ(a.per_ff[f].ed, b.per_ff[f].ed) << "ff " << f;
    EXPECT_EQ(a.per_ff[f].recovered, b.per_ff[f].recovered) << "ff " << f;
  }
  EXPECT_EQ(a.totals.total(), b.totals.total());
}

inject::CampaignSpec small_spec(const isa::Program* prog,
                                const std::string& key,
                                std::size_t injections = 120) {
  inject::CampaignSpec spec;
  spec.core_name = "InO";
  spec.program = prog;
  spec.key = key;
  spec.injections = injections;
  spec.seed = 7;
  return spec;
}

// ---- submit/wait/poll ------------------------------------------------------

TEST(Engine, SubmitWaitMatchesRunCampaign) {
  const auto prog = bench("mcf");
  const auto spec = small_spec(&prog, "");  // uncached: really simulates
  const auto reference = engine::run_campaign(spec);

  engine::Job job = engine::Engine::instance().submit({spec});
  EXPECT_TRUE(job.valid());
  job.wait();
  EXPECT_TRUE(job.poll());
  EXPECT_EQ(job.state(), engine::JobState::kDone);
  const auto results = job.take_results();
  ASSERT_EQ(results.size(), 1u);
  expect_identical(results[0], reference);
}

TEST(Engine, ResultsKeepsTakeMovesAndSecondTakeThrows) {
  const auto prog = bench("mcf");
  engine::Job job = engine::Engine::instance().submit({small_spec(&prog, "")});
  const auto& ref = job.results();
  EXPECT_EQ(ref.size(), 1u);
  EXPECT_EQ(job.results().size(), 1u);  // results() is repeatable
  const auto moved = job.take_results();
  EXPECT_EQ(moved.size(), 1u);
  EXPECT_THROW((void)job.take_results(), std::logic_error);
}

TEST(Engine, InvalidHandleIsInertAndThrowsOnResults) {
  engine::Job job;
  EXPECT_FALSE(job.valid());
  EXPECT_TRUE(job.poll());
  job.wait();     // returns immediately
  job.cancel();   // no-op
  EXPECT_THROW((void)job.results(), std::logic_error);
}

TEST(Engine, FailedJobRethrowsExecutorError) {
  const auto prog = bench("mcf");
  auto spec = small_spec(&prog, "");
  spec.core_name = "NoSuchCore";
  engine::Job job = engine::Engine::instance().submit({spec});
  job.wait();
  EXPECT_EQ(job.state(), engine::JobState::kFailed);
  EXPECT_THROW((void)job.results(), std::invalid_argument);
  EXPECT_THROW((void)job.take_results(), std::invalid_argument);
}

// A job reports its state; the work it does is counted process-wide by
// the obs registry, which a worker's heartbeats carry to the driver.
TEST(Engine, UncachedJobCountsEverySampleAndOneGolden) {
  obs::set_enabled(true);
  const auto prog = bench("gcc");
  const std::uint64_t samples0 = obs::counter("campaign.samples").value();
  const std::uint64_t goldens0 = obs::counter("campaign.goldens").value();
  engine::Job job = engine::Engine::instance().submit(
      {small_spec(&prog, "", 400)});
  job.wait();
  EXPECT_EQ(job.state(), engine::JobState::kDone);
  EXPECT_EQ(obs::counter("campaign.samples").value() - samples0, 400u);
  EXPECT_EQ(obs::counter("campaign.goldens").value() - goldens0, 1u);
  (void)job.take_results();
}

TEST(Engine, FullyCachedJobSimulatesNothing) {
  obs::set_enabled(true);
  const auto prog = bench("mcf");
  const auto spec = small_spec(&prog, "engine/cached");
  const auto first = engine::run_campaign(spec);  // fills the pack

  const std::uint64_t hits0 = obs::counter("cache.hit").value();
  const std::uint64_t samples0 = obs::counter("campaign.samples").value();
  const std::uint64_t goldens0 = obs::counter("campaign.goldens").value();
  engine::Job job = engine::Engine::instance().submit({spec});
  job.wait();
  EXPECT_EQ(job.state(), engine::JobState::kDone);
  EXPECT_EQ(obs::counter("cache.hit").value() - hits0, 1u);
  EXPECT_EQ(obs::counter("campaign.samples").value(), samples0);
  EXPECT_EQ(obs::counter("campaign.goldens").value(), goldens0);
  const auto results = job.take_results();
  ASSERT_EQ(results.size(), 1u);
  expect_identical(results[0], first);
}

TEST(Engine, OnFinishRunsOnceTheJobIsTerminal) {
  const auto prog = bench("mcf");
  std::promise<void> finished;
  std::atomic<int> calls{0};
  engine::Job job = engine::Engine::instance().submit(
      {small_spec(&prog, "")}, [&] {
        if (calls.fetch_add(1) == 0) finished.set_value();
      });
  ASSERT_EQ(finished.get_future().wait_for(60s), std::future_status::ready);
  EXPECT_TRUE(job.poll());  // the state turned terminal first
  EXPECT_EQ(job.state(), engine::JobState::kDone);
  job.cancel();  // a terminal job does not retire again
  EXPECT_EQ(calls.load(), 1);
  (void)job.take_results();
}

// ---- queue order -----------------------------------------------------------

TEST(Engine, QueuedJobsRunInSubmissionOrder) {
  const auto prog = bench("gcc");
  // Completion order, recorded by each job's on_finish callback: 0 is
  // the head job, 1-4 the jobs queued behind it.
  struct Finished {
    std::mutex m;
    std::condition_variable cv;
    std::vector<int> order;
  };
  const auto finished = std::make_shared<Finished>();
  const auto record = [finished](int label) {
    return [finished, label] {
      {
        std::lock_guard<std::mutex> g(finished->m);
        finished->order.push_back(label);
      }
      finished->cv.notify_all();
    };
  };
  // A long head job occupies the dispatcher while the queue fills.
  engine::Job head = engine::Engine::instance().submit(
      {small_spec(&prog, "", 2000)}, record(0));
  std::vector<engine::Job> queued;
  for (int i = 1; i <= 4; ++i) {
    queued.push_back(engine::Engine::instance().submit(
        {small_spec(&prog, "", 60)}, record(i)));
  }

  for (auto& j : queued) j.wait();
  head.wait();
  std::unique_lock<std::mutex> g(finished->m);
  ASSERT_TRUE(finished->cv.wait_for(
      g, 60s, [&] { return finished->order.size() == 5; }));
  // One dispatcher runs one job at a time, first in, first out.
  EXPECT_EQ(finished->order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// ---- golden recordings shared across batches --------------------------------

// Shards of one campaign split over two batches share its golden through
// the process-wide memo, whether the engine queues the batches or two
// threads execute them at once.  Shards that miss the memo at the same
// moment each record instead of waiting, so the count of recordings
// depends on timing; every shard either records or reuses, one recording
// is kept, and the merge stays the unsharded campaign's bytes.
TEST(EngineMemo, ConcurrentBatchesOfOneCampaignShareItsGolden) {
  const auto prog = bench("gcc");
  obs::set_enabled(true);
  constexpr std::uint32_t kShards = 6;
  const auto batch_of = [](inject::CampaignSpec spec, std::uint32_t first) {
    std::vector<inject::CampaignSpec> out;
    spec.shard_count = kShards;
    for (spec.shard_index = first; spec.shard_index < kShards;
         spec.shard_index += 2) {
      out.push_back(spec);
    }
    return out;
  };
  const auto merged_bytes = [](std::vector<inject::CampaignResult> a,
                               const std::vector<inject::CampaignResult>& b) {
    a.insert(a.end(), b.begin(), b.end());
    return inject::detail::serialize_result(
        0, inject::merge_campaign_results(a));
  };
  const auto goldens = [] { return obs::counter("campaign.goldens").value(); };
  const auto reused = [] {
    return obs::counter("campaign.golden.reused").value();
  };
  for (const unsigned threads : {2u, 1u}) {
    auto spec = small_spec(&prog, "", 6000);
    spec.seed = 2100 + threads;  // a campaign no other test records
    const ScopedEnv thread_count("CLEAR_THREADS",
                                 std::to_string(threads).c_str());
    const std::string whole =
        inject::detail::serialize_result(0, engine::run_campaign(spec));
    const std::uint64_t goldens_before = goldens();
    const std::uint64_t reused_before = reused();
    std::vector<inject::CampaignResult> a, b;
    if (threads == 2) {
      // Two engine batches submitted together.
      engine::Job ja = engine::Engine::instance().submit(batch_of(spec, 0));
      engine::Job jb = engine::Engine::instance().submit(batch_of(spec, 1));
      a = ja.take_results();
      b = jb.take_results();
    } else {
      // One batch per thread, each executing inline on its thread.
      std::thread ta([&] {
        a = inject::detail::execute_campaigns(batch_of(spec, 0), {});
      });
      std::thread tb([&] {
        b = inject::detail::execute_campaigns(batch_of(spec, 1), {});
      });
      ta.join();
      tb.join();
    }
    const std::uint64_t recorded = goldens() - goldens_before;
    EXPECT_GE(recorded, 1u) << threads;
    EXPECT_EQ(recorded + reused() - reused_before, kShards) << threads;
    EXPECT_EQ(merged_bytes(a, b), whole) << threads;
    // A later shard forks from the kept recording.
    const std::uint64_t reused_after = reused();
    auto again = spec;
    again.shard_count = kShards;
    (void)engine::run_campaign(again);
    EXPECT_EQ(reused() - reused_after, 1u) << threads;
  }
}

// ---- the per-index outcome tally ---------------------------------------------

// Every pool task writes only the outcome byte of its own pass index, and
// the pass folds those bytes in index order, so a shard's .csr bytes and
// its cache payload do not depend on the worker-thread count.  Under TSan
// this also checks that the tasks' writes and the fold never race.  The
// adaptive campaign is sharded too: its pilot samples feed the stop
// decisions on every shard but the result only on the owning one.
TEST(EngineTally, ShardBytesAndCachePayloadsMatchAtAnyThreadCount) {
  const auto prog = bench("gcc");
  const std::uint32_t ino_ffs = arch::core_ff_count("InO");
  for (const bool adaptive : {false, true}) {
    std::string csr_at_1, pack_at_1;
    for (const unsigned threads : {1u, 2u, 4u}) {
      auto spec = small_spec(&prog, "tally", 6000);
      spec.seed = 2300;
      const ScopedEnv thread_count("CLEAR_THREADS",
                                   std::to_string(threads).c_str());
      spec.shard_count = 3;
      spec.shard_index = 1;
      if (adaptive) {
        spec.injections = static_cast<std::size_t>(ino_ffs) * 8;
        spec.confidence_half_width = 0.30;
      }
      // A fresh cache directory per run: each run simulates and writes
      // exactly one pack record, so equal packs mean equal payloads.
      const std::string cache = "engine_e2e/tally_" +
                                std::to_string(adaptive) + "_" +
                                std::to_string(threads);
      ::setenv("CLEAR_CACHE_DIR", cache.c_str(), 1);
      inject::ShardFile shard;
      shard.core_name = spec.core_name;
      shard.key = spec.key;
      shard.program_hash = inject::wire_program_hash(prog);
      shard.injections = spec.injections;
      shard.seed = spec.seed;
      shard.shard_count = spec.shard_count;
      shard.covered = {spec.shard_index};
      shard.result = engine::run_campaign(spec);
      ::setenv("CLEAR_CACHE_DIR", ".clear_cache_test_engine", 1);
      ASSERT_EQ(shard.result.adaptive(), adaptive);
      ASSERT_GT(shard.result.samples_executed(), 0u);
      const std::string csr = inject::encode_shard(shard);
      std::string pack;
      ASSERT_TRUE(util::read_file(cache + "/campaigns.pack", &pack));
      if (threads == 1) {
        csr_at_1 = csr;
        pack_at_1 = pack;
        continue;
      }
      EXPECT_EQ(csr, csr_at_1) << "adaptive " << adaptive << ", threads "
                               << threads;
      EXPECT_EQ(pack, pack_at_1) << "adaptive " << adaptive << ", threads "
                                 << threads;
    }
  }
}

// A warm batch serves its hits in one parallel pass, then stamps them in
// spec order with one index append: the results, the untouched pack and
// the index it leaves are the same at any thread count, and the index is
// the one that serving the specs one batch at a time leaves.
TEST(EngineTally, WarmBatchLeavesTheSameIndexAtAnyThreadCount) {
  const auto mcf = bench("mcf");
  const auto gcc = bench("gcc");
  std::vector<inject::CampaignSpec> batch;
  for (int i = 0; i < 6; ++i) {
    auto spec = small_spec(i % 2 ? &gcc : &mcf,
                           "warm/" + std::to_string(i), 90);
    spec.seed = 2400 + static_cast<std::uint64_t>(i);
    if (i == 5) spec.confidence_half_width = 0.3;
    batch.push_back(spec);
  }
  const std::string cold = "engine_e2e/warm_cold";
  ::setenv("CLEAR_CACHE_DIR", cold.c_str(), 1);
  const auto reference = inject::detail::execute_campaigns(batch, {});
  std::string pack, one_at_a_time_index;
  ASSERT_TRUE(util::read_file(cold + "/campaigns.pack", &pack));
  // threads 0: one single-spec batch per spec, the reference order.
  for (const unsigned threads : {0u, 1u, 4u}) {
    // A fresh copy per run: each opens the cold run's files.
    const std::string warm = "engine_e2e/warm_" + std::to_string(threads);
    std::filesystem::create_directories(warm);
    for (const char* name : {"campaigns.pack", "campaigns.idx"}) {
      std::filesystem::copy_file(cold + "/" + name, warm + "/" + name);
    }
    const ScopedEnv thread_count("CLEAR_THREADS",
                                 std::to_string(threads).c_str());
    ::setenv("CLEAR_CACHE_DIR", warm.c_str(), 1);
    const std::uint64_t hits = obs::counter("cache.hit").value();
    std::vector<inject::CampaignResult> served;
    if (threads == 0) {
      for (const auto& spec : batch) {
        served.push_back(inject::detail::execute_campaigns({spec}, {})[0]);
      }
    } else {
      served = inject::detail::execute_campaigns(batch, {});
    }
    ::setenv("CLEAR_CACHE_DIR", ".clear_cache_test_engine", 1);
    EXPECT_EQ(obs::counter("cache.hit").value() - hits, batch.size())
        << threads;
    ASSERT_EQ(served.size(), reference.size());
    for (std::size_t i = 0; i < served.size(); ++i) {
      EXPECT_EQ(inject::detail::serialize_result(0, served[i]),
                inject::detail::serialize_result(0, reference[i]))
          << "threads " << threads << ", spec " << i;
    }
    std::string warm_pack, index;
    ASSERT_TRUE(util::read_file(warm + "/campaigns.pack", &warm_pack));
    ASSERT_TRUE(util::read_file(warm + "/campaigns.idx", &index));
    EXPECT_EQ(warm_pack, pack) << threads;
    if (threads == 0) {
      one_at_a_time_index = index;
    } else {
      EXPECT_EQ(index, one_at_a_time_index) << threads;
    }
  }
}

// ---- cancellation ----------------------------------------------------------

TEST(EngineCancel, QueuedJobCancelsImmediately) {
  const auto prog = bench("gcc");
  engine::Job head = engine::Engine::instance().submit(
      {small_spec(&prog, "", 1500)});
  std::atomic<int> queued_notified{0};
  engine::Job queued = engine::Engine::instance().submit(
      {small_spec(&prog, "", 1500)}, [&] { ++queued_notified; });
  queued.cancel();
  queued.wait();  // must not wait for head to finish first
  EXPECT_EQ(queued.state(), engine::JobState::kCancelled);
  EXPECT_EQ(queued_notified, 1);  // on the thread that cancelled it
  EXPECT_THROW((void)queued.results(), engine::JobCancelled);
  head.wait();
  EXPECT_EQ(head.state(), engine::JobState::kDone);
}

TEST(EngineCancel, CancelIsIdempotentAndIgnoredWhenDone) {
  const auto prog = bench("mcf");
  engine::Job job = engine::Engine::instance().submit({small_spec(&prog, "")});
  job.wait();
  EXPECT_EQ(job.state(), engine::JobState::kDone);
  job.cancel();
  job.cancel();
  EXPECT_EQ(job.state(), engine::JobState::kDone);
  (void)job.take_results();
}

// The killed-job fuzz of the acceptance criteria: cancelling an in-flight
// job at scattered points must never corrupt the cache pack -- a fresh
// run of the same campaign afterwards is bit-identical to an undisturbed
// reference, and the pack keeps serving exact bytes.
TEST(EngineCancel, KilledJobFuzzNeverCorruptsCachePack) {
  const auto prog = bench("gcc");
  const auto spec = small_spec(&prog, "engine/fuzz", 600);

  // Undisturbed reference (its own pack entry, written once).
  const auto reference = engine::run_campaign(spec);

  const int kTrials = 6;
  for (int trial = 0; trial < kTrials; ++trial) {
    // Scatter the cancel across the job's lifetime: planning, golden
    // recording, early/late faulty phase, and (for the last trials on a
    // fast machine) possibly after completion -- every landing spot must
    // be harmless.
    auto victim_spec = spec;
    victim_spec.key = "engine/fuzz/victim" + std::to_string(trial);
    engine::Job victim = engine::Engine::instance().submit({victim_spec});
    std::this_thread::sleep_for(std::chrono::microseconds(1) * (1 << (2 * trial)));
    victim.cancel();
    victim.wait();
    const engine::JobState state = victim.state();
    EXPECT_TRUE(state == engine::JobState::kCancelled ||
                state == engine::JobState::kDone)
        << "state " << static_cast<int>(state);

    // The pack must still serve exact bytes: a fresh run of the victim's
    // campaign (cache miss when the cancel won, hit when it lost) equals
    // the reference, twice (the second run is a pack hit either way).
    expect_identical(engine::run_campaign(victim_spec), reference);
    expect_identical(engine::run_campaign(victim_spec), reference);
  }
}

// ---- Session::prefetch_async ----------------------------------------------

TEST(PrefetchAsync, CommitMatchesBlockingPrefetch) {
  core::Session blocking("InO", 1, 11);
  blocking.set_benchmarks({"mcf", "inner_product"});
  core::Session async("InO", 1, 11);
  async.set_benchmarks({"mcf", "inner_product"});

  const std::vector<core::Variant> vars{core::Variant::base(),
                                        [] {
                                          core::Variant v;
                                          v.cfcss = true;
                                          return v;
                                        }()};
  blocking.prefetch(vars);

  core::PrefetchTicket ticket = async.prefetch_async(vars);
  ticket.commit();
  ticket.commit();  // idempotent

  for (const auto& v : vars) {
    const core::ProfileSet& a = blocking.profiles(v);
    const core::ProfileSet& b = async.profiles(v);
    EXPECT_EQ(a.ff_count, b.ff_count);
    EXPECT_EQ(a.ff_sdc, b.ff_sdc);
    EXPECT_EQ(a.ff_due, b.ff_due);
    EXPECT_EQ(a.ff_total, b.ff_total);
    EXPECT_EQ(a.totals.total(), b.totals.total());
    EXPECT_DOUBLE_EQ(a.exec_overhead, b.exec_overhead);
  }
}

TEST(PrefetchAsync, DroppedTicketCancelsSafely) {
  core::Session session("InO", 1, 13);
  session.set_benchmarks({"mcf"});
  {
    core::PrefetchTicket ticket =
        session.prefetch_async({core::Variant::base()});
    // The batch is outstanding: the session refuses a new suite.
    EXPECT_THROW(session.set_benchmarks({"mcf"}), std::logic_error);
    // Dropped uncommitted: must cancel + join before the batch storage
    // (the programs the engine job points into) is released.
  }
  // The drop released the session's outstanding count, and nothing was
  // installed: the suite may still change.
  session.set_benchmarks({"mcf"});  // must not throw
  // The session is intact and can collect the same profiles fresh.
  const core::ProfileSet& p = session.profiles(core::Variant::base());
  EXPECT_GT(p.totals.total(), 0u);
}

TEST(PrefetchAsync, MoveAssignReleasesPendingBatch) {
  core::Session session("InO", 1, 17);
  session.set_benchmarks({"mcf"});
  core::PrefetchTicket a = session.prefetch_async({core::Variant::base()});
  core::PrefetchTicket b;
  b = std::move(a);
  // The moved-to ticket still holds the outstanding batch.
  EXPECT_THROW(session.set_benchmarks({"gcc"}), std::logic_error);
  // Overwriting a pending ticket cancels + joins its batch and releases
  // the session's outstanding count: set_benchmarks is legal again.
  b = core::PrefetchTicket();
  b.commit();  // an empty ticket commits nothing
  session.set_benchmarks({"gcc"});  // must not throw
}

TEST(SessionContract, SetBenchmarksThrowsOncePrefetchOutstanding) {
  core::Session session("InO", 1, 13);
  session.set_benchmarks({"mcf", "gcc"});  // legal: nothing collected yet
  core::PrefetchTicket ticket = session.prefetch_async({core::Variant::base()});
  EXPECT_THROW(session.set_benchmarks({"mcf"}), std::logic_error);
  ticket.commit();
  EXPECT_THROW(session.set_benchmarks({"mcf"}), std::logic_error);
}

TEST(SessionContract, SetBenchmarksThrowsOnceProfilesCollected) {
  core::Session session("InO", 1, 13);
  session.set_benchmarks({"mcf"});
  (void)session.profiles(core::Variant::base());
  EXPECT_THROW(session.set_benchmarks({"mcf", "gcc"}), std::logic_error);
}

// ---- serve protocol codec --------------------------------------------------

TEST(ServeProtocol, FrameRoundTripAndIncrementalDecode) {
  const std::string payload = "hello frame payload";
  const std::string bytes =
      serve::encode_frame(serve::FrameType::kShardAssign, payload);
  ASSERT_EQ(bytes.size(), serve::kFrameHeaderSize + payload.size());

  // Feed byte by byte: kNeedMore until the last byte, then one clean
  // frame and an empty buffer.
  std::string buf;
  serve::Frame frame;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    buf.push_back(bytes[i]);
    EXPECT_EQ(serve::decode_frame(&buf, &frame),
              serve::FrameStatus::kNeedMore);
  }
  buf.push_back(bytes.back());
  ASSERT_EQ(serve::decode_frame(&buf, &frame), serve::FrameStatus::kOk);
  EXPECT_EQ(frame.type, serve::FrameType::kShardAssign);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_TRUE(buf.empty());
}

TEST(ServeProtocol, CorruptFramesAreRefusedNotMisparsed) {
  const std::string good = serve::encode_frame(serve::FrameType::kResult,
                                               std::string(41, 'x'));
  serve::Frame frame;
  // A flipped bit anywhere (type, length, checksum or payload) must
  // yield kBad or kNeedMore -- never a wrong frame.
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bytes = good;
    bytes[i] = static_cast<char>(bytes[i] ^ 0x20);
    std::string buf = bytes;
    const serve::FrameStatus st = serve::decode_frame(&buf, &frame);
    if (st == serve::FrameStatus::kOk) {
      // Only legal if the flip landed in the type field AND produced
      // another known type with matching checksum -- impossible, since
      // the checksum covers the payload and the length/type fields gate
      // first.  Accept only an exact re-decode of a different type with
      // identical payload.
      ADD_FAILURE() << "flip at byte " << i << " decoded as a valid frame";
    }
  }
  // Unknown type word, the retired v2 job (2) and cancel (3) types, the
  // retired v3 steal (11) and the retired v5 progress (5): a well-formed
  // frame of any is refused, never read as another type.
  for (const char type : {char{99}, char{2}, char{3}, char{11}, char{5}}) {
    std::string bytes = good;
    bytes[0] = type;
    std::string buf = bytes;
    EXPECT_EQ(serve::decode_frame(&buf, &frame), serve::FrameStatus::kBad)
        << "type " << static_cast<int>(type);
  }
}

TEST(ServeProtocol, PayloadCodecsRoundTrip) {
  serve::Hello h;
  h.wire_version = 1;
  h.ledger_version = 1;
  serve::Hello h2;
  ASSERT_TRUE(serve::decode_hello(serve::encode_hello(h), &h2));
  EXPECT_EQ(h2.proto_version, serve::kProtoVersion);
  EXPECT_EQ(h2.wire_version, 1u);
  EXPECT_FALSE(serve::decode_hello("not a hello", &h2));

  std::uint32_t index = 0;
  std::string csr;
  ASSERT_TRUE(serve::decode_result(
      serve::encode_result(7, "csr-bytes-here"), &index, &csr));
  EXPECT_EQ(index, 7u);
  EXPECT_EQ(csr, "csr-bytes-here");

  serve::Done d;
  d.outcome = serve::JobOutcome::kBadRequest;
  d.message = "no such bench";
  serve::Done d2;
  ASSERT_TRUE(serve::decode_done(serve::encode_done(d), &d2));
  EXPECT_EQ(d2.outcome, serve::JobOutcome::kBadRequest);
  EXPECT_EQ(d2.message, "no such bench");
}

// ---- serve::FrameConn over a socketpair ------------------------------------

// The FrameConn under test, and the raw other end of its socketpair.
struct ConnPair {
  serve::FrameConn conn;
  util::Socket peer;
};

ConnPair conn_pair() {
  auto [ours, peer] = util::Socket::pair();
  return {serve::FrameConn(std::move(ours)), std::move(peer)};
}

using Recv = serve::FrameConn::Recv;

TEST(ServeProtocol, FrameConnAssemblesAFrameSentOneByteAtATime) {
  ConnPair p = conn_pair();
  const std::string bytes =
      serve::encode_frame(serve::FrameType::kShardAssign, "one byte at a time");
  serve::Frame frame;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    ASSERT_TRUE(p.peer.send_all(&bytes[i], 1));
    ASSERT_EQ(p.conn.recv(&frame, 0), Recv::kTimeout) << "byte " << i;
  }
  ASSERT_TRUE(p.peer.send_all(&bytes.back(), 1));
  ASSERT_EQ(p.conn.recv(&frame, 5000), Recv::kFrame);
  EXPECT_EQ(frame.type, serve::FrameType::kShardAssign);
  EXPECT_EQ(frame.payload, "one byte at a time");
  EXPECT_FALSE(p.conn.has_buffered());
}

TEST(ServeProtocol, FrameConnSplitsTwoFramesFromOneRead) {
  ConnPair p = conn_pair();
  const std::string both =
      serve::encode_frame(serve::FrameType::kResult, "first") +
      serve::encode_frame(serve::FrameType::kDone, "second");
  ASSERT_TRUE(p.peer.send_all(both.data(), both.size()));
  serve::Frame frame;
  ASSERT_EQ(p.conn.recv(&frame, 5000), Recv::kFrame);
  EXPECT_EQ(frame.type, serve::FrameType::kResult);
  EXPECT_EQ(frame.payload, "first");
  ASSERT_EQ(p.conn.recv(&frame, 0), Recv::kFrame);
  EXPECT_EQ(frame.type, serve::FrameType::kDone);
  EXPECT_EQ(frame.payload, "second");
  EXPECT_EQ(p.conn.recv(&frame, 0), Recv::kTimeout);
}

TEST(ServeProtocol, FrameConnReportsAFlippedPayloadByteAsBad) {
  ConnPair p = conn_pair();
  std::string bytes = serve::encode_frame(serve::FrameType::kResult,
                                          "payload under checksum");
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
  ASSERT_TRUE(p.peer.send_all(bytes.data(), bytes.size()));
  serve::Frame frame;
  EXPECT_EQ(p.conn.recv(&frame, 5000), Recv::kBad);
}

TEST(ServeProtocol, FrameConnReportsEofMidFrameAsClosed) {
  ConnPair p = conn_pair();
  const std::string bytes =
      serve::encode_frame(serve::FrameType::kShardAssign, "cut short by EOF");
  ASSERT_TRUE(p.peer.send_all(bytes.data(), bytes.size() / 2));
  p.peer.close();
  serve::Frame frame;
  EXPECT_EQ(p.conn.recv(&frame, -1), Recv::kClosed);
}

TEST(ServeProtocol, FrameConnTimeoutKeepsPartialBytes) {
  ConnPair p = conn_pair();
  const std::string bytes =
      serve::encode_frame(serve::FrameType::kShardAssign,
                          "arrives in two halves");
  const std::size_t half = bytes.size() / 2;
  serve::Frame frame;
  EXPECT_EQ(p.conn.recv(&frame, 20), Recv::kTimeout);  // nothing sent yet
  ASSERT_TRUE(p.peer.send_all(bytes.data(), half));
  EXPECT_EQ(p.conn.recv(&frame, 20), Recv::kTimeout);
  EXPECT_TRUE(p.conn.has_buffered());
  ASSERT_TRUE(p.peer.send_all(bytes.data() + half, bytes.size() - half));
  ASSERT_EQ(p.conn.recv(&frame, 5000), Recv::kFrame);
  EXPECT_EQ(frame.payload, "arrives in two halves");
}

// ---- serve loopback e2e ----------------------------------------------------

// Runs a shell command, returns its exit status (-1 if it died on a
// signal).  Stdout routed to /dev/null to keep ctest logs tidy.
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

const std::string kBin = CLEAR_CLI_BIN;

// Sends kShutdown to the daemon on `sock` when the test leaves, so one
// that failed before its own shutdown does not outlive the test.  A
// daemon that already exited has removed its socket file.
struct ShutdownAtExit {
  std::string sock;
  ~ShutdownAtExit() {
    if (!std::filesystem::exists(sock)) return;
    try {
      serve::FrameConn conn(util::Socket::connect_unix(sock, 1000));
      (void)conn.send(serve::FrameType::kShutdown, "", 1000);
    } catch (const std::exception&) {
      // Gone between the check and the connect.
    }
  }
};

TEST(ServeE2E, LoopbackResultsMatchLocalRunByteForByte) {
  const std::string dir = "engine_e2e";
  // A three-campaign manifest exercising the batch path, split into three
  // shards per stanza by the driver; the third stanza is adaptive.
  {
    std::ofstream spec(dir + "/job.spec");
    spec << "--core InO --bench gcc --injections 60 --seed 3\n"
         << "---\n"
         << "--core InO --bench mcf --injections 60 --seed 3\n"
         << "---\n"
         << "--core InO --bench gcc --injections 60 --seed 3 "
            "--confidence 0.1\n";
  }
  // Daemon + driver.  The driver retries the connect while the daemon
  // starts, and its --shutdown stops the daemon after the run.
  const ShutdownAtExit stop{dir + "/w.sock"};
  ASSERT_EQ(sh(kBin + " serve --socket " + dir + "/w.sock --quiet &"), 0);
  ASSERT_EQ(sh(kBin + " fleet run --spec " + dir + "/job.spec --out-dir " +
               dir + "/got --shards 3 --shutdown --quiet " + dir + "/w.sock"),
            0);

  // Local references through the very same CLI resolution: each stanza
  // run as the same three shards, then merged.
  const char* const stanzas[] = {
      "--bench gcc --injections 60 --seed 3",
      "--bench mcf --injections 60 --seed 3",
      "--bench gcc --injections 60 --seed 3 --confidence 0.1"};
  for (int i = 0; i < 3; ++i) {
    const std::string ref = dir + "/ref" + std::to_string(i);
    std::string merge = kBin + " merge --out " + ref + ".csr";
    for (int k = 0; k < 3; ++k) {
      const std::string part = ref + "_" + std::to_string(k) + ".csr";
      ASSERT_EQ(sh(kBin + " run " + stanzas[i] + " --shard " +
                   std::to_string(k) + "/3 --out " + part),
                0);
      merge += " " + part;
    }
    ASSERT_EQ(sh(merge), 0);
  }

  const std::string got0 = slurp(dir + "/got/campaign0.csr");
  const std::string got1 = slurp(dir + "/got/campaign1.csr");
  const std::string got2 = slurp(dir + "/got/campaign2.csr");
  ASSERT_FALSE(got0.empty());
  ASSERT_FALSE(got1.empty());
  ASSERT_FALSE(got2.empty());
  EXPECT_EQ(got0, slurp(dir + "/ref0.csr"));
  EXPECT_EQ(got1, slurp(dir + "/ref1.csr"));
  EXPECT_EQ(got2, slurp(dir + "/ref2.csr"));
  EXPECT_EQ(static_cast<unsigned char>(got2[4]), 2u);  // adaptive: v2

  // And they decode as exact, complete shard files.
  inject::ShardFile shard;
  ASSERT_EQ(inject::decode_shard(got0, &shard), inject::WireStatus::kOk);
  EXPECT_EQ(shard.key, "cli/InO/gcc/base");
  EXPECT_TRUE(shard.complete());
}

// A real daemon answers a manifest it cannot resolve, sent as a raw
// shard-assign (the fleet driver would refuse it before dispatching),
// with kDone(bad-request) naming the benchmark, and simulates nothing:
// no result frame comes before the refusal.
TEST(ServeE2E, BadManifestIsRefusedWithoutSimulating) {
  const std::string dir = "engine_e2e";
  const ShutdownAtExit stop{dir + "/w2.sock"};
  ASSERT_EQ(sh(kBin + " serve --socket " + dir + "/w2.sock --quiet &"), 0);
  serve::FrameConn conn(util::Socket::connect_unix(dir + "/w2.sock", 10000));
  serve::Frame frame;
  ASSERT_EQ(conn.recv(&frame, 10000), Recv::kFrame);
  ASSERT_EQ(frame.type, serve::FrameType::kHello);
  serve::ShardAssign assign;
  assign.shard_id = 1;
  assign.text = "--core InO --bench no_such_bench_xyz\n";
  ASSERT_TRUE(conn.send(serve::FrameType::kShardAssign,
                        serve::encode_shard_assign(assign)));
  // Heartbeats may interleave; everything else before kDone is an ack.
  serve::Done done;
  bool acked = false;
  for (;;) {
    ASSERT_EQ(conn.recv(&frame, 10000), Recv::kFrame);
    if (frame.type == serve::FrameType::kHeartbeat) continue;
    if (frame.type == serve::FrameType::kShardAck) {
      acked = true;
      continue;
    }
    ASSERT_EQ(frame.type, serve::FrameType::kDone)
        << serve::frame_type_name(frame.type);
    ASSERT_TRUE(serve::decode_done(frame.payload, &done));
    break;
  }
  EXPECT_TRUE(acked);
  EXPECT_EQ(done.outcome, serve::JobOutcome::kBadRequest);
  EXPECT_NE(done.message.find("no_such_bench_xyz"), std::string::npos)
      << done.message;
  ASSERT_TRUE(conn.send(serve::FrameType::kShutdown, ""));
  Recv got = Recv::kFrame;
  while (got == Recv::kFrame) got = conn.recv(&frame, 10000);  // heartbeats
  EXPECT_EQ(got, Recv::kClosed);
}

}  // namespace
