// perfbench_layers: the benchmark's per-layer probe.
//
// Links the clear library and times calls into each layer's public
// functions, one mode per workload:
//
//   perfbench_layers campaign --spec FILE --pack DIR --scratch DIR
//       core stepping, snapshot/restore/state_matches, ISS stepping,
//       classify() and cache-pack put() on the campaign manifest;
//   perfbench_layers explore --cache DIR --seed N --benches A,B,C
//                            --scratch DIR
//       cache-pack open/get, variant builds, warm Session::profiles,
//       evaluate_combo, combo_cost_lower_bound, ledger appends, pruning
//       share and cached engine submissions on a filled cache;
//   perfbench_layers fleet --spec FILE --shards K --out-dir DIR
//                          --pack DIR --scratch DIR ENDPOINT...
//       drives the fleet itself through fleet::run_fleet (scheduling
//       timestamps from its callbacks), then replays the arrived shards
//       through the .csr codec, the live re-merge and the frame decoder.
//
// Prints one JSON object: "samples" (raw per-call timings, summarised by
// perfbench/run.py), "values" (rates and shares), "metrics" (this
// process's obs snapshot) and, in fleet mode, "worker_metrics" (the
// workers' last heartbeat snapshots, merged).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "arch/core.h"
#include "core/combos.h"
#include "core/session.h"
#include "core/variants.h"
#include "engine/engine.h"
#include "engine/protocol.h"
#include "explore/explore.h"
#include "explore/ledger.h"
#include "fleet/fleet.h"
#include "inject/cachepack.h"
#include "inject/campaign.h"
#include "inject/wire.h"
#include "isa/iss.h"
#include "obs/metrics.h"
#include "plan/runplan.h"
#include "util/fs.h"

namespace {

using namespace clear;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kMaxCycles = 20'000'000;
// Wall budget per repeated measurement loop: long enough for stable
// rates, short enough that a traced run stays well inside its limit.
constexpr double kLoopBudgetS = 0.2;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Keeps timed results observable so the optimiser cannot drop the calls.
std::uint64_t g_sink = 0;

struct Report {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;
  std::string worker_metrics = "null";

  template <class F>
  void time_us(const std::string& name, F&& f) {
    const auto t0 = Clock::now();
    f();
    samples[name].push_back(seconds_since(t0) * 1e6);
  }
  template <class F>
  void time_ms(const std::string& name, F&& f) {
    time_us(name, std::forward<F>(f));
    samples[name].back() /= 1e3;
  }

  void print() const {
    std::ostringstream o;
    o.precision(17);
    o << "{\"samples\": {";
    const char* sep = "";
    for (const auto& [name, xs] : samples) {
      o << sep << "\"" << name << "\": [";
      for (std::size_t i = 0; i < xs.size(); ++i) o << (i ? ", " : "") << xs[i];
      o << "]";
      sep = ", ";
    }
    o << "}, \"values\": {";
    sep = "";
    for (const auto& [name, v] : values) {
      o << sep << "\"" << name << "\": " << v;
      sep = ", ";
    }
    o << "}, \"sink\": " << g_sink
      << ", \"metrics\": " << obs::to_json(obs::snapshot())
      << ", \"worker_metrics\": " << worker_metrics << "}";
    // One line: run.py reads the last line of the probe's output.
    std::string line = o.str();
    std::replace(line.begin(), line.end(), '\n', ' ');
    std::puts(line.c_str());
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

std::vector<plan::RunPlan> resolve(const std::string& text) {
  std::vector<plan::RunPlan> plans;
  std::string error;
  if (!plan::resolve_manifest_text(text, "perfbench", &plans, &error)) {
    throw std::runtime_error(error);
  }
  return plans;
}

// ---- arch / isa / classify -------------------------------------------------

// Golden begin()+step_to() of every plan's program, as simulated cycles
// per host second per core model.
void probe_stepping(const std::vector<plan::RunPlan>& plans, Report* r) {
  std::map<std::string, std::pair<double, double>> per_model;  // cycles, s
  for (const plan::RunPlan& p : plans) {
    const auto core = arch::make_core(p.core_name);
    const auto t0 = Clock::now();
    double cycles = 0;
    do {
      core->begin(p.prog, p.spec.cfg, nullptr);
      core->step_to(kMaxCycles, kMaxCycles);
      cycles += static_cast<double>(core->cycle());
    } while (seconds_since(t0) < kLoopBudgetS);
    auto& acc = per_model[p.core_name];
    acc.first += cycles;
    acc.second += seconds_since(t0);
  }
  for (const auto& [model, acc] : per_model) {
    const std::string name = model == "OoO" ? "ooo" : "ino";
    r->values["arch." + name + ".cycles_per_s"] = acc.first / acc.second;
  }
}

// Snapshot at 64 points along each golden run, then restore and compare
// against each checkpoint.
void probe_checkpoints(const std::vector<plan::RunPlan>& plans, Report* r) {
  constexpr int kPoints = 64;
  for (const plan::RunPlan& p : plans) {
    const auto core = arch::make_core(p.core_name);
    core->begin(p.prog, p.spec.cfg, nullptr);
    core->step_to(kMaxCycles, kMaxCycles);
    const std::uint64_t nominal = core->cycle();
    core->begin(p.prog, p.spec.cfg, nullptr);
    std::vector<arch::CoreCheckpoint> cps(kPoints);
    for (int i = 0; i < kPoints; ++i) {
      core->step_to(nominal * static_cast<std::uint64_t>(i + 1) / (kPoints + 1),
                    kMaxCycles);
      r->time_us("arch.snapshot_us", [&] { core->snapshot(&cps[i]); });
    }
    for (const arch::CoreCheckpoint& cp : cps) {
      r->time_us("arch.restore_us", [&] { core->restore(cp, nullptr); });
      bool same = false;
      r->time_us("arch.state_matches_us",
                 [&] { same = core->state_matches(cp); });
      g_sink += same ? 1 : 0;
    }
  }
}

// The functional ISS (the monitor core's checker) on the monitor
// stanzas' programs, or on every program when no stanza is monitored.
void probe_iss(const std::vector<plan::RunPlan>& plans, Report* r) {
  std::vector<const plan::RunPlan*> chosen;
  for (const plan::RunPlan& p : plans) {
    if (p.variant.monitor) chosen.push_back(&p);
  }
  if (chosen.empty()) {
    for (const plan::RunPlan& p : plans) chosen.push_back(&p);
  }
  double instrs = 0;
  const auto t0 = Clock::now();
  do {
    for (const plan::RunPlan* p : chosen) {
      isa::Machine m(p->prog);
      while (m.step()) instrs += 1;
    }
  } while (seconds_since(t0) < kLoopBudgetS);
  r->values["isa.iss.instrs_per_s"] = instrs / seconds_since(t0);
}

// classify() on real faulty outcomes: 16 single-flip runs per plan.
void probe_classify(const std::vector<plan::RunPlan>& plans, Report* r) {
  std::vector<std::pair<arch::CoreRunResult, const arch::CoreRunResult*>> runs;
  std::vector<arch::CoreRunResult> goldens(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const plan::RunPlan& p = plans[i];
    const auto core = arch::make_core(p.core_name);
    goldens[i] = core->run(p.prog, p.spec.cfg, nullptr, kMaxCycles);
    const std::uint64_t nominal = goldens[i].cycles;
    const std::uint32_t ffs = core->registry().ff_count();
    for (std::uint32_t k = 0; k < 16; ++k) {
      const auto flip = arch::InjectionPlan::single(
          1 + (nominal * (2 * k + 1)) / 33, (k * 2654435761u) % ffs);
      runs.emplace_back(core->run(p.prog, p.spec.cfg, &flip, nominal * 4),
                        &goldens[i]);
    }
  }
  constexpr int kBatch = 256;
  for (int b = 0; b < 200; ++b) {
    const auto t0 = Clock::now();
    for (int k = 0; k < kBatch; ++k) {
      const auto& [faulty, golden] = runs[(b * kBatch + k) % runs.size()];
      g_sink += static_cast<std::uint64_t>(inject::classify(faulty, *golden));
    }
    r->samples["inject.classify_ns"].push_back(seconds_since(t0) * 1e9 /
                                               kBatch);
  }
}

// ---- cache pack ------------------------------------------------------------

// Record fingerprints named by a pack's advisory index ("<hex fp> <clock>"
// lines, one per put or get).
std::vector<std::uint64_t> pack_fingerprints(const std::string& dir) {
  std::ifstream in(dir + "/" + inject::CachePack::kIndexName);
  std::set<std::uint64_t> seen;
  std::vector<std::uint64_t> fps;
  std::string fp_text, clock_text;
  while (in >> fp_text >> clock_text) {
    const std::uint64_t fp = std::strtoull(fp_text.c_str(), nullptr, 16);
    if (seen.insert(fp).second) fps.push_back(fp);
  }
  return fps;
}

// put() of a finished run's records into fresh packs: the write path a
// cold campaign or a fresh fleet worker takes.  At least 100 puts.
void probe_put(const std::string& pack_dir, const std::string& scratch,
               Report* r) {
  std::vector<std::pair<std::uint64_t, std::string>> records;
  {
    inject::CachePack src(pack_dir);
    for (const std::uint64_t fp : pack_fingerprints(pack_dir)) {
      std::string payload;
      if (src.get(fp, &payload)) records.emplace_back(fp, std::move(payload));
    }
  }
  if (records.empty()) throw std::runtime_error("no records in " + pack_dir);
  const std::size_t rounds = (100 + records.size() - 1) / records.size();
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::string dir = scratch + "/put" + std::to_string(round);
    if (!util::ensure_dir(dir)) throw std::runtime_error("cannot create " + dir);
    inject::CachePack dst(dir);
    for (const auto& [fp, payload] : records) {
      r->time_us("inject.cachepack.put_us",
                 [&] { dst.put(fp, "perfbench", payload); });
    }
  }
}

// ---- explore / core / soft / engine ----------------------------------------

std::vector<core::Variant> layer_variants(const core::Session& s,
                                          const std::vector<core::Combo>& cs) {
  std::map<std::string, core::Variant> unique{
      {core::Variant::base().key(), core::Variant::base()}};
  for (const core::Combo& c : cs) {
    if (c.abft != workloads::AbftKind::kNone) {
      bool supported = false;
      for (const auto& info : workloads::benchmark_list()) {
        if (info.abft != c.abft) continue;
        for (const auto& b : s.benchmarks()) supported |= (b == info.name);
      }
      if (!supported) continue;
    }
    for (const core::Variant& v : core::combo_layer_variants(c)) {
      unique.emplace(v.key(), v);
    }
  }
  std::vector<core::Variant> out;
  for (const auto& [key, v] : unique) out.push_back(v);
  return out;
}

void probe_explore_core(const std::string& core_name, std::uint64_t seed,
                        const std::vector<std::string>& benches,
                        const std::string& scratch, Report* r) {
  const std::vector<core::Combo> combos = core::enumerate_combos(core_name);
  core::Session session(core_name, 0, seed);
  if (!benches.empty()) session.set_benchmarks(benches);
  const std::vector<core::Variant> variants = layer_variants(session, combos);

  // Variant program builds (assembler + software transforms), cycling
  // through variants x benchmarks: at least 100 calls and the loop budget.
  {
    const auto t0 = Clock::now();
    const std::vector<std::string>& suite = session.benchmarks();
    for (std::size_t i = 0; i < 100 || seconds_since(t0) < kLoopBudgetS; ++i) {
      const core::Variant& v = variants[i % variants.size()];
      const std::string& bench = suite[(i / variants.size()) % suite.size()];
      try {
        r->time_us("soft.variant_build_us", [&] {
          g_sink += core::build_variant_program(bench, v).code.size();
        });
      } catch (const std::exception&) {
        // Unsupported (benchmark, ABFT variant) pair: nothing recorded.
      }
    }
  }

  // Warm profiles: a fresh session per call, so each call builds its
  // programs and reads its campaigns back from the pack.
  for (std::size_t i = 0; i < std::max<std::size_t>(40, variants.size()); ++i) {
    const core::Variant& v = variants[i % variants.size()];
    core::Session fresh(core_name, 0, seed);
    if (!benches.empty()) fresh.set_benchmarks(benches);
    r->time_ms("core.profiles_ms", [&] {
      g_sink += fresh.profiles(v).ff_count;
    });
  }

  session.prefetch(variants);
  core::Selector selector(session);
  for (const core::Combo& c : combos) {
    double lb = 0;
    r->time_us("core.cost_lower_bound_us", [&] {
      lb = core::combo_cost_lower_bound(session, selector.model(), c);
    });
    g_sink += static_cast<std::uint64_t>(lb);
  }
  for (const core::Combo& c : combos) {
    try {
      r->time_us("core.evaluate_combo_us", [&] {
        g_sink += static_cast<std::uint64_t>(
            core::evaluate_combo(session, selector, c, 50.0).energy);
      });
    } catch (const std::exception&) {
      // Combo the suite cannot express: nothing recorded.
    }
  }

  // Pruning share and the records the ledger appends below.
  explore::ExploreSpec spec;
  spec.core = core_name;
  spec.seed = seed;
  spec.benchmarks = benches;
  const explore::Ledger pruned = explore::run_exploration(spec, "");
  std::size_t n_pruned = 0;
  for (const auto& rec : pruned.records) {
    n_pruned += rec.kind == explore::RecordKind::kPruned ? 1 : 0;
  }
  r->values["explore.pruned." + core_name] = static_cast<double>(n_pruned);
  r->values["explore.records." + core_name] =
      static_cast<double>(pruned.records.size());

  const std::string ledger_path = scratch + "/append_" + core_name + ".cxl";
  std::remove(ledger_path.c_str());
  explore::LedgerWriter writer;
  writer.open(ledger_path, explore::resolve_identity(spec));
  for (const auto& rec : pruned.records) {
    r->time_us("explore.ledger.append_us", [&] { writer.append(rec); });
  }

  // Engine submissions whose every campaign is a cache hit: the exact
  // profiling prelude the exploration looks up.
  const std::string manifest = scratch + "/prelude_" + core_name + ".spec";
  explore::write_profile_manifest(spec, manifest);
  const std::vector<plan::RunPlan> plans = resolve(read_file(manifest));
  for (std::size_t i = 0; i < std::max<std::size_t>(50, plans.size()); ++i) {
    r->time_us("engine.submit_cached_us", [&] {
      engine::Job job =
          engine::Engine::instance().submit({plans[i % plans.size()].spec});
      g_sink += job.take_results().size();
    });
  }
}

void probe_pack_reads(const std::string& dir, Report* r) {
  for (int i = 0; i < 40; ++i) {
    r->time_ms("inject.cachepack.open_ms", [&] {
      inject::CachePack pack(dir);
      g_sink += pack.stats().records;
    });
  }
  inject::CachePack pack(dir);
  const std::vector<std::uint64_t> fps = pack_fingerprints(dir);
  for (std::size_t i = 0; i < std::max<std::size_t>(100, fps.size()); ++i) {
    std::string payload;
    r->time_us("inject.cachepack.get_us",
               [&] { g_sink += pack.get(fps[i % fps.size()], &payload); });
  }
}

// ---- fleet / plan / wire / protocol ----------------------------------------

struct Arrival {
  std::uint64_t shard_id = 0;
  std::vector<std::string> payloads;
};

void probe_fleet(const std::string& spec_path, std::uint32_t shard_count,
                 const std::string& out_dir,
                 const std::vector<std::string>& operands, Report* r) {
  const std::string manifest = read_file(spec_path);

  std::vector<fleet::ShardWork> shards;
  std::string error;
  if (!fleet::build_campaign_shards(manifest, shard_count, &shards, &error)) {
    throw std::runtime_error(error);
  }
  for (const fleet::ShardWork& s : shards) {
    r->time_ms("plan.resolve_ms", [&] { g_sink += resolve(s.text).size(); });
  }

  std::vector<fleet::Endpoint> workers;
  if (!fleet::expand_endpoints(operands, &workers, &error)) {
    throw std::runtime_error(error);
  }
  if (!util::ensure_dir(out_dir)) throw std::runtime_error("bad out dir");

  // Scheduling timestamps from the run_fleet callbacks.
  std::map<std::uint64_t, Clock::time_point> assigned;
  std::vector<double> busy_s(workers.size(), 0.0);
  Clock::time_point first_assign{}, last_done{};
  bool any_assign = false;
  const auto on_event = [&](const fleet::FleetEvent& e) {
    const auto now = Clock::now();
    if (e.kind == fleet::FleetEvent::Kind::kAssign) {
      assigned[e.shard_id] = now;
      if (!any_assign) first_assign = now;
      any_assign = true;
    } else if (e.kind == fleet::FleetEvent::Kind::kShardDone) {
      const double dt =
          std::chrono::duration<double>(now - assigned[e.shard_id]).count();
      r->samples["fleet.shard_turnaround_ms"].push_back(dt * 1e3);
      if (e.worker < busy_s.size()) busy_s[e.worker] += dt;
      last_done = now;
    }
  };

  // The same live re-merge `clear fleet run` performs, in arrival order.
  std::vector<Arrival> arrivals;
  std::map<std::size_t, std::vector<inject::ShardFile>> arrived;
  const auto on_shard = [&](const fleet::ShardResult& res) {
    arrivals.push_back({res.shard_id, res.payloads});
    for (std::size_t i = 0; i < res.payloads.size(); ++i) {
      inject::ShardFile shard;
      if (inject::decode_shard(res.payloads[i], &shard) !=
          inject::WireStatus::kOk) {
        throw std::runtime_error("shard payload failed .csr decode");
      }
      auto& parts = arrived[i];
      parts.push_back(std::move(shard));
      inject::write_shard_file(out_dir + "/campaign" + std::to_string(i) + ".csr",
                               inject::merge_shard_files(parts));
    }
  };

  fleet::FleetOptions opts;
  opts.shutdown_workers = true;
  const auto t_fleet = Clock::now();
  const fleet::FleetReport report =
      fleet::run_fleet(workers, shards, opts, on_event, on_shard);
  r->values["fleet.run_s"] = seconds_since(t_fleet);

  const double span =
      std::chrono::duration<double>(last_done - first_assign).count();
  double busy = 0;
  for (const double b : busy_s) busy += b;
  r->values["fleet.worker_idle_frac"] =
      span > 0 ? 1.0 - busy / (span * static_cast<double>(workers.size())) : 0;
  r->values["fleet.redispatched"] = static_cast<double>(report.redispatched);

  obs::Snapshot merged;
  bool have = false;
  for (const fleet::WorkerStatus& w : report.workers) {
    if (!w.has_metrics) continue;
    obs::merge(&merged, w.metrics);
    have = true;
  }
  if (have) r->worker_metrics = obs::to_json(merged);

  // Codec costs on the arrived payloads of the last stanza (the OoO one
  // in the benchmark's manifest).
  for (const Arrival& a : arrivals) {
    const std::string& bytes = a.payloads.back();
    inject::ShardFile shard;
    r->time_us("inject.wire.decode_us", [&] {
      g_sink += static_cast<std::uint64_t>(inject::decode_shard(bytes, &shard));
    });
    r->time_us("inject.wire.encode_us",
               [&] { g_sink += inject::encode_shard(shard).size(); });
  }

  // The driver's live re-merge, replayed over the arrival sequence.
  std::vector<double> totals;
  for (int rep = 0; rep < 3; ++rep) {
    std::map<std::size_t, std::vector<inject::ShardFile>> parts;
    const auto t0 = Clock::now();
    for (const Arrival& a : arrivals) {
      for (std::size_t i = 0; i < a.payloads.size(); ++i) {
        inject::ShardFile shard;
        (void)inject::decode_shard(a.payloads[i], &shard);
        parts[i].push_back(std::move(shard));
        inject::write_shard_file(out_dir + "/replay" + std::to_string(i) + ".csr",
                                 inject::merge_shard_files(parts[i]));
      }
    }
    totals.push_back(seconds_since(t0) * 1e3);
  }
  std::sort(totals.begin(), totals.end());
  r->values["inject.wire.merge_total_ms"] = totals[totals.size() / 2];

  // CSV1 frame decode of result frames carrying the arrived payloads.
  std::string stream;
  for (const Arrival& a : arrivals) {
    for (std::size_t i = 0; i < a.payloads.size(); ++i) {
      stream += serve::encode_frame(
          serve::FrameType::kResult,
          serve::encode_result(static_cast<std::uint32_t>(i), a.payloads[i]));
    }
  }
  double bytes = 0;
  const auto t0 = Clock::now();
  do {
    std::string buffer = stream;
    serve::Frame frame;
    while (serve::decode_frame(&buffer, &frame) == serve::FrameStatus::kOk) {
      g_sink += frame.payload.size();
    }
    bytes += static_cast<double>(stream.size());
  } while (seconds_since(t0) < kLoopBudgetS);
  r->values["protocol.frame_decode_mb_per_s"] = bytes / 1e6 / seconds_since(t0);
}

// ---- command line ----------------------------------------------------------

struct Args {
  std::map<std::string, std::string> opts;
  std::vector<std::string> positionals;

  const std::string& get(const std::string& k) const {
    const auto it = opts.find(k);
    if (it == opts.end()) throw std::invalid_argument("missing --" + k);
    return it->second;
  }
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 2; i < argc; ++i) {
    const std::string tok = argv[i];
    if (tok.rfind("--", 0) == 0 && i + 1 < argc) {
      a.opts[tok.substr(2)] = argv[++i];
    } else {
      a.positionals.push_back(tok);
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_layers campaign|explore|fleet ...\n");
    return 2;
  }
  const std::string mode = argv[1];
  try {
    const Args a = parse_args(argc, argv);
    Report r;
    if (mode == "campaign") {
      const std::vector<plan::RunPlan> plans = resolve(read_file(a.get("spec")));
      probe_stepping(plans, &r);
      probe_checkpoints(plans, &r);
      probe_iss(plans, &r);
      probe_classify(plans, &r);
      probe_put(a.get("pack"), a.get("scratch"), &r);
    } else if (mode == "explore") {
      const std::uint64_t seed = std::strtoull(a.get("seed").c_str(), nullptr, 10);
      std::vector<std::string> benches;
      std::stringstream list(a.get("benches"));
      for (std::string b; std::getline(list, b, ',');) benches.push_back(b);
      probe_pack_reads(a.get("cache"), &r);
      for (const char* core_name : {"InO", "OoO"}) {
        probe_explore_core(core_name, seed, benches, a.get("scratch"), &r);
      }
    } else if (mode == "fleet") {
      probe_fleet(a.get("spec"),
                  static_cast<std::uint32_t>(std::stoul(a.get("shards"))),
                  a.get("out-dir"), a.positionals, &r);
      probe_put(a.get("pack"), a.get("scratch"), &r);
    } else {
      std::fprintf(stderr, "perfbench_layers: unknown mode '%s'\n", mode.c_str());
      return 2;
    }
    r.print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_layers %s: %s\n", mode.c_str(), e.what());
    return 1;
  }
  return 0;
}
