#include "explore/explore.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "arch/core.h"
#include "core/selection.h"
#include "core/session.h"
#include "obs/metrics.h"
#include "util/args.h"
#include "util/fs.h"
#include "util/threadpool.h"
#include "workloads/workloads.h"

namespace clear::explore {

namespace {

// Anchors achieving (near-)full protection must clear this bar to serve
// as pruning references; a pruned combo can exceed an anchor's protection
// by at most the hardened-cell residual this tolerates.
constexpr double kAnchorProtectionPct = 99.5;

bool combo_equals(const core::Combo& a, const core::Combo& b) {
  return a.dice == b.dice && a.eds == b.eds && a.parity == b.parity &&
         a.dfc == b.dfc && a.assertions == b.assertions &&
         a.cfcss == b.cfcss && a.eddi == b.eddi && a.monitor == b.monitor &&
         a.abft == b.abft && a.recovery == b.recovery;
}

// True when the suite has a benchmark amenable to the combo's ABFT kind
// (non-ABFT combos run on any non-empty suite).  Suites without one get
// the combo recorded as kSkipped -- deterministically, since the suite is
// part of the ledger identity.
bool suite_supports(const std::vector<std::string>& suite,
                    const core::Combo& combo) {
  return std::any_of(suite.begin(), suite.end(), [&](const std::string& b) {
    return workloads::supports_abft(b, combo.abft);
  });
}

// A record that carries no evaluated point: kSkipped, or kPruned with its
// cost lower bound as the energy.
LedgerRecord unevaluated_record(RecordKind kind, std::uint32_t index,
                                const core::Combo& combo, double target,
                                double energy) {
  LedgerRecord rec;
  rec.kind = kind;
  rec.combo_index = index;
  rec.combo = combo.name();
  rec.target = target;
  rec.target_met = false;
  rec.energy = energy;
  return rec;
}

LedgerRecord point_record(RecordKind kind, std::uint32_t index,
                          const core::ComboPoint& p) {
  LedgerRecord rec;
  rec.kind = kind;
  rec.combo_index = index;
  rec.combo = p.combo;
  rec.target = p.target;
  rec.target_met = p.target_met;
  rec.energy = p.energy;
  rec.area = p.area;
  rec.power = p.power;
  rec.exec = p.exec;
  rec.sdc_protected_pct = p.sdc_protected_pct;
  rec.imp_sdc = p.imp.sdc;
  rec.imp_due = p.imp.due;
  return rec;
}

// A whole-string double ("" and trailing bytes refused).
bool parse_double(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && *end == '\0';
}

// Shortest text that reads back as exactly `v`: %.15g when it re-parses
// exactly, %.17g (always exact for IEEE doubles) otherwise.
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  if (std::strtod(buf, nullptr) != v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string item; std::getline(in, item, ',');) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

void validate_spec(const ExploreSpec& spec) {
  if (spec.core != "InO" && spec.core != "OoO") {
    throw std::invalid_argument("explore: unknown core '" + spec.core +
                                "' (InO or OoO)");
  }
  if (!(spec.target > 0.0)) {
    throw std::invalid_argument("explore: target must be > 0");
  }
  if (spec.shard_count == 0 || spec.shard_index >= spec.shard_count) {
    throw std::invalid_argument("explore: bad shard selection");
  }
  if (spec.confidence < 0.0 || spec.confidence > 0.5 ||
      spec.confidence != spec.confidence) {
    throw std::invalid_argument(
        "explore: confidence half-width must be in (0, 0.5], or 0 = off");
  }
  const auto suite = workloads::benchmarks_for_core(spec.core);
  for (const auto& b : spec.benchmarks) {
    if (std::find(suite.begin(), suite.end(), b) == suite.end()) {
      throw std::invalid_argument("explore: benchmark '" + b +
                                  "' is not in the " + spec.core + " suite");
    }
  }
}

}  // namespace

void add_spec_flags(util::ArgParser* args) {
  args->add_option("core", "InO|OoO", "processor model", "InO");
  args->add_option("target", "X", "SDC/DUE improvement target", "50");
  args->add_option("metric", "sdc|due|joint", "improvement metric", "sdc");
  args->add_option("seed", "N", "campaign RNG seed", "1");
  args->add_option("per-ff", "N",
                   "injections per flip-flop per benchmark (0 = per-core "
                   "default (2 InO, 1 OoO))",
                   "0");
  args->add_option("benches", "a,b,c",
                   "benchmark suite to profile on (default: full core "
                   "suite)");
  args->add_flag("no-prune",
                 "evaluate every combination (skip dominance pruning)");
  args->add_option("confidence", "W",
                   "confidence-driven adaptive profiling: stop sampling a "
                   "flip-flop once the 95% interval half-width on its SDC "
                   "and DUE rates is <= W, in (0, 0.5]; --per-ff becomes a "
                   "budget ceiling (0 = off)",
                   "0");
  args->add_option("confidence-method", "wilson|cp",
                   "interval method for --confidence (cp = "
                   "Clopper-Pearson)",
                   "wilson");
}

bool read_spec_flags(const util::ArgParser& args, ExploreSpec* spec,
                     std::string* error) {
  const auto bad = [&](const char* flag, const char* want) {
    *error = std::string("bad --") + flag + " '" + args.get(flag) + "'" + want;
    return false;
  };
  ExploreSpec s = *spec;
  s.core = args.get("core");
  if (!parse_double(args.get("target"), &s.target)) return bad("target", "");
  if (!core::parse_metric(args.get("metric"), &s.metric)) {
    return bad("metric", " (sdc, due or joint)");
  }
  std::uint64_t u = 0;
  if (!args.get_u64("seed", 1, &u)) return bad("seed", "");
  s.seed = u;
  if (!args.get_u64("per-ff", 0, &u)) return bad("per-ff", "");
  s.per_ff_samples = static_cast<std::size_t>(u);
  s.benchmarks = split_csv(args.get("benches"));
  s.prune = !args.has("no-prune");
  if (!parse_double(args.get("confidence"), &s.confidence)) {
    return bad("confidence", " (want a half-width in (0, 0.5], or 0 = off)");
  }
  if (!util::parse_interval_method(args.get("confidence-method"),
                                   &s.confidence_method)) {
    return bad("confidence-method", " (wilson or cp)");
  }
  *spec = std::move(s);
  return true;
}

std::string spec_flags(const ExploreSpec& spec) {
  std::string out = "--core " + spec.core + " --target " +
                    format_double(spec.target) + " --metric " +
                    core::metric_token(spec.metric) + " --seed " +
                    std::to_string(spec.seed);
  if (spec.per_ff_samples != 0) {
    out += " --per-ff " + std::to_string(spec.per_ff_samples);
  }
  for (std::size_t i = 0; i < spec.benchmarks.size(); ++i) {
    out += (i == 0 ? " --benches " : ",") + spec.benchmarks[i];
  }
  if (!spec.prune) out += " --no-prune";
  if (spec.confidence > 0.0) {
    out += " --confidence " + format_double(spec.confidence);
    if (spec.confidence_method == util::IntervalMethod::kClopperPearson) {
      out += " --confidence-method cp";
    }
  }
  return out;
}

std::vector<std::uint32_t> anchor_indices(const std::string& core) {
  core::Combo dice_only;
  dice_only.dice = true;
  core::Combo flagship;
  flagship.dice = true;
  flagship.parity = true;
  flagship.recovery =
      core == "OoO" ? arch::RecoveryKind::kRob : arch::RecoveryKind::kFlush;

  std::vector<std::uint32_t> out;
  const auto combos = core::enumerate_combos(core);
  for (std::uint32_t i = 0; i < combos.size(); ++i) {
    if (combo_equals(combos[i], dice_only) ||
        combo_equals(combos[i], flagship)) {
      out.push_back(i);
    }
  }
  return out;
}

Ledger resolve_identity(const ExploreSpec& spec) {
  validate_spec(spec);
  // A throwaway Session resolves the benchmark suite and the sample
  // scale exactly the way the run will (no campaigns are submitted).
  core::Session session(spec.core, spec.per_ff_samples, spec.seed);
  if (!spec.benchmarks.empty()) session.set_benchmarks(spec.benchmarks);

  Ledger identity;
  identity.core = spec.core;
  identity.target = spec.target;
  identity.metric = static_cast<std::uint32_t>(spec.metric);
  identity.seed = spec.seed;
  identity.per_ff_samples = session.per_ff_samples();
  identity.confidence = spec.confidence;
  // The method is identity only when sampling is adaptive: a fixed-budget
  // ledger (format v1) does not store it, so it reads back as the default.
  identity.confidence_method =
      spec.confidence > 0.0
          ? static_cast<std::uint32_t>(spec.confidence_method)
          : static_cast<std::uint32_t>(util::IntervalMethod::kWilson);
  identity.benchmarks = session.benchmarks();
  identity.combo_count =
      static_cast<std::uint32_t>(core::enumerate_combos(spec.core).size());
  identity.combo_fingerprint = core::enumeration_fingerprint(spec.core);
  identity.pruning = spec.prune;
  identity.shard_count = spec.shard_count;
  identity.covered = {spec.shard_index};
  return identity;
}

Ledger run_exploration(const ExploreSpec& spec, const std::string& ledger_path,
                       const ProgressFn& progress) {
  const Ledger identity = resolve_identity(spec);
  const std::vector<core::Combo> combos = core::enumerate_combos(spec.core);

  LedgerWriter writer;
  Ledger memory_state;
  const bool persistent = !ledger_path.empty();
  if (persistent) writer.open(ledger_path, identity);
  else memory_state = identity;
  const auto state = [&]() -> const Ledger& {
    return persistent ? writer.state() : memory_state;
  };
  const auto append = [&](const LedgerRecord& rec) {
    if (persistent) writer.append(rec);
    else memory_state.records.push_back(rec);
  };

  core::Session session(spec.core, spec.per_ff_samples, spec.seed);
  if (!spec.benchmarks.empty()) session.set_benchmarks(spec.benchmarks);
  if (spec.confidence > 0.0) {
    session.set_confidence(spec.confidence, spec.confidence_method);
  }
  core::Selector selector(session);

  // Cancellation seam: dropping out here, between records or inside an
  // evaluation is always clean -- records already appended are complete,
  // a batch's records are appended only after all its evaluations
  // returned, and the in-flight prefetch ticket cancels its engine job on
  // destruction.
  const auto check_cancel = [&spec] {
    if (spec.cancel != nullptr &&
        spec.cancel->load(std::memory_order_relaxed)) {
      throw ExploreCancelled();
    }
  };

  // Combos are evaluated on a pool of this run's own: ThreadPool::instance()
  // serializes its jobs, so evaluation there would queue behind the
  // campaigns of the batch being prefetched.  It is sized the way
  // campaigns size theirs (CLEAR_THREADS); a thread count only schedules,
  // so the records are the same for any value.
  const unsigned eval_threads = util::env_threads();
  util::ThreadPool eval_pool(eval_threads);

  // Stack table: one prepared core::ComboStack per software stack
  // (Combo::variant().key()), shared by every combo on it.  fill_stacks
  // builds the stacks a list of combos needs that are not built yet, in
  // parallel across stacks (each into its own map node), and points
  // stack_of at them before the list is evaluated; evaluation then only
  // reads the table, so it takes no lock.
  std::map<std::string, std::unique_ptr<core::ComboStack>> stacks;
  std::vector<const core::ComboStack*> stack_of(combos.size(), nullptr);
  static obs::Counter& stacks_built = obs::counter("explore.stacks");
  const auto fill_stacks = [&](const std::vector<std::uint32_t>& indices) {
    using Slot = std::unique_ptr<core::ComboStack>;
    std::vector<std::pair<std::uint32_t, Slot*>> build;
    std::vector<Slot*> slots;
    for (const std::uint32_t i : indices) {
      const auto [it, fresh] = stacks.try_emplace(combos[i].variant().key());
      if (fresh) build.emplace_back(i, &it->second);
      slots.push_back(&it->second);
    }
    eval_pool.run(build.size(), eval_threads, [&](std::size_t k, unsigned) {
      *build[k].second = std::make_unique<core::ComboStack>(
          session, combos[build[k].first], spec.metric);
    });
    stacks_built.add(build.size());
    for (std::size_t k = 0; k < indices.size(); ++k) {
      stack_of[indices[k]] = slots[k]->get();
    }
  };

  // Anchors: the fixed flagship designs, evaluated at their "max" point.
  // Every shard computes them (the campaign cache makes repeats cheap)
  // because the pruning bar derives from them; only shard 0 records them,
  // exactly once, so merged coverage stays disjoint.
  const std::vector<std::uint32_t> anchors = anchor_indices(spec.core);
  {
    std::vector<core::Variant> anchor_variants;
    for (const std::uint32_t ai : anchors) {
      const auto vars = core::combo_variants(combos[ai]);
      anchor_variants.insert(anchor_variants.end(), vars.begin(), vars.end());
    }
    session.prefetch(anchor_variants);
  }

  // Work list: owned combos with no record yet (resume skips the rest;
  // anchor records never cover a combo).
  const std::vector<std::uint32_t> pending = state().missing_indices();
  Progress prog;
  prog.pending = pending.size();

  const std::size_t batch = spec.batch != 0 ? spec.batch : 64;

  // The layer variants one batch of combos profiles on.
  const auto batch_variants = [&](std::size_t start, std::size_t end) {
    std::vector<core::Variant> vars{core::Variant::base()};
    for (std::size_t i = start; i < end; ++i) {
      const core::Combo& c = combos[pending[i]];
      if (!suite_supports(session.benchmarks(), c)) continue;
      const auto layers = core::combo_layer_variants(c);
      vars.insert(vars.end(), layers.begin(), layers.end());
    }
    return vars;
  };

  // Batch N+1's profiling campaigns simulate on the engine while batch
  // N's combos (the anchors, for the first batch) are evaluated: the
  // double-buffer ticket commits (and the next one is submitted) at each
  // batch seam.  Each batch's campaigns run as ONE
  // engine submission: golden recording overlaps faulty runs across
  // combos, and combos sharing a variant share its campaigns via the
  // cache pack.
  check_cancel();
  core::PrefetchTicket next_batch;
  if (!pending.empty()) {
    next_batch = session.prefetch_async(
        batch_variants(0, std::min(pending.size(), batch)));
  }

  fill_stacks(anchors);
  std::vector<core::ComboPoint> anchor_points(anchors.size());
  eval_pool.run(anchors.size(), eval_threads, [&](std::size_t k, unsigned) {
    const std::uint32_t ai = anchors[k];
    anchor_points[k] =
        core::evaluate_combo(selector, *stack_of[ai], combos[ai], -1.0);
  });
  double prune_bar = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < anchors.size(); ++k) {
    const std::uint32_t ai = anchors[k];
    const core::ComboPoint& p = anchor_points[k];
    if (p.sdc_protected_pct >= kAnchorProtectionPct) {
      prune_bar = std::min(prune_bar, p.energy);
    }
    if (spec.shard_index != 0) continue;
    bool recorded = false;
    for (const LedgerRecord& r : state().records) {
      recorded |= (r.kind == RecordKind::kAnchor && r.combo_index == ai);
    }
    if (!recorded) append(point_record(RecordKind::kAnchor, ai, p));
  }

  // Adaptive explorations tighten the pruning bar as evaluated
  // (near-)full-protection points land: combos are processed in ascending
  // index order, so the bar at combo i is a pure function of the records
  // of combos < i -- deterministic across resumes (refolding the resumed
  // records below reproduces the bar state exactly).  Unsharded runs
  // only: a shard sees just its own records, so a K-sharded bar would
  // diverge from the unsharded one and break bit-identical merges.
  const bool tighten_bar =
      spec.prune && spec.confidence > 0.0 && spec.shard_count == 1;
  const auto fold_bar = [&](const LedgerRecord& rec) {
    if (tighten_bar && rec.kind == RecordKind::kPoint &&
        rec.sdc_protected_pct >= kAnchorProtectionPct) {
      prune_bar = std::min(prune_bar, rec.energy);
    }
  };
  for (const LedgerRecord& rec : state().records) fold_bar(rec);

  for (std::size_t start = 0; start < pending.size(); start += batch) {
    const std::size_t end = std::min(pending.size(), start + batch);
    check_cancel();
    next_batch.commit();
    if (end < pending.size()) {
      next_batch = session.prefetch_async(
          batch_variants(end, std::min(pending.size(), end + batch)));
    }

    // Serial pass: skips, and cost lower bounds against the bar at batch
    // start.  The bar only falls, so a combo pruned here is pruned by the
    // live bar too; every other combo is evaluated speculatively.
    std::vector<LedgerRecord> recs(end - start);
    std::vector<double> bounds(end - start, 0.0);
    std::vector<std::size_t> speculative;
    for (std::size_t j = 0; j < recs.size(); ++j) {
      const std::uint32_t index = pending[start + j];
      const core::Combo& c = combos[index];
      if (!suite_supports(session.benchmarks(), c)) {
        recs[j] = unevaluated_record(RecordKind::kSkipped, index, c,
                                     spec.target, 0.0);
        continue;
      }
      if (spec.prune) {
        bounds[j] = core::combo_cost_lower_bound(session, selector.model(), c);
      }
      if (spec.prune && bounds[j] > prune_bar) {
        recs[j] = unevaluated_record(RecordKind::kPruned, index, c,
                                     spec.target, bounds[j]);
      } else {
        speculative.push_back(j);
      }
    }

    // Parallel pass: the batch's profiles are resident and the session is
    // not mutated until the next commit, and the stack table is filled
    // beforehand, so workers share the stacks and the Selector read-only.
    std::vector<std::uint32_t> speculative_combos;
    for (const std::size_t j : speculative) {
      speculative_combos.push_back(pending[start + j]);
    }
    fill_stacks(speculative_combos);
    eval_pool.run(speculative.size(), eval_threads,
                  [&](std::size_t k, unsigned) {
                    check_cancel();
                    const std::size_t j = speculative[k];
                    const std::uint32_t index = pending[start + j];
                    recs[j] = point_record(
                        RecordKind::kPoint, index,
                        core::evaluate_combo(selector, *stack_of[index],
                                             combos[index], spec.target));
                  });

    // In-order fold: applies the live bar exactly as a serial run would,
    // dropping the speculative points a tighter bar from an earlier
    // record of this batch prunes.
    for (std::size_t j = 0; j < recs.size(); ++j) {
      check_cancel();
      LedgerRecord& rec = recs[j];
      if (rec.kind == RecordKind::kPoint && spec.prune &&
          bounds[j] > prune_bar) {
        rec = unevaluated_record(RecordKind::kPruned, rec.combo_index,
                                 combos[rec.combo_index], spec.target,
                                 bounds[j]);
      }
      switch (rec.kind) {
        case RecordKind::kSkipped: ++prog.skipped; break;
        case RecordKind::kPruned: ++prog.pruned; break;
        default: ++prog.evaluated; break;
      }
      append(rec);
      fold_bar(rec);
      ++prog.done;
      if (progress) progress(prog);
    }
  }
  return state();
}

void write_profile_manifest(const ExploreSpec& spec, const std::string& path) {
  const Ledger identity = resolve_identity(spec);
  std::uint32_t ff_count = 0;
  {
    const auto proto = arch::make_core(spec.core);
    ff_count = proto->registry().ff_count();
  }
  const std::uint64_t injections = identity.per_ff_samples * ff_count;

  // The prelude variant set: base plus every layer variant any supported
  // combo composes from (deduplicated by key, deterministic order).
  std::vector<core::Variant> variants{core::Variant::base()};
  const auto add = [&variants](const core::Variant& v) {
    for (const auto& have : variants) {
      if (have.key() == v.key()) return;
    }
    variants.push_back(v);
  };
  for (const core::Combo& c : core::enumerate_combos(spec.core)) {
    if (!suite_supports(identity.benchmarks, c)) continue;
    for (const core::Variant& v : core::combo_layer_variants(c)) add(v);
  }

  // Rendered in memory and published with one atomic rename: a failed
  // or killed write never leaves a truncated manifest for `clear run`.
  std::ostringstream out;
  out << "# clear explore profiling manifest\n"
      << "# core=" << spec.core << " per-ff=" << identity.per_ff_samples
      << " seed=" << identity.seed << " (" << variants.size()
      << " variants x " << identity.benchmarks.size() << " benchmarks)\n"
      << "# run: clear run --spec <this file>\n"
      << "# (run unsharded: campaigns memoize under their unsharded cache\n"
      << "#  fingerprint, the one the exploration will look up)\n";
  bool first = true;
  for (const core::Variant& v : variants) {
    for (const std::string& bench : identity.benchmarks) {
      if (!workloads::supports_abft(bench, v.abft)) continue;
      if (!first) out << "---\n";
      first = false;
      // The cache key matches core::Session's, so `clear explore run`
      // finds these campaigns in the pack instead of re-simulating.
      out << "--core " << spec.core << " --bench " << bench << " --variant "
          << v.key() << " --injections " << injections << " --seed "
          << identity.seed << " --key " << spec.core << "/" << bench << "/"
          << v.key();
      if (spec.confidence > 0.0) {
        // The adaptive target is part of the cache fingerprint: without
        // it the warmed entries would sit under fingerprints the
        // exploration never consults.  %.17g round-trips any double
        // exactly, so the warmed fingerprint matches bit-for-bit.
        char conf[32];
        std::snprintf(conf, sizeof(conf), "%.17g", spec.confidence);
        out << " --confidence " << conf << " --confidence-method "
            << (spec.confidence_method == util::IntervalMethod::kClopperPearson
                    ? "cp"
                    : "wilson");
      }
      out << "\n";
    }
  }
  if (!util::write_file_atomic(path, out.str())) {
    throw std::runtime_error("cannot write " + path);
  }
}

}  // namespace clear::explore
