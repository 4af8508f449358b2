#include "plan/runplan.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <sstream>

#include "util/env.h"
#include "workloads/workloads.h"

namespace clear::plan {

core::Variant parse_variant(const std::string& key) {
  core::Variant v;
  if (key.empty() || key == "base") return v;
  std::stringstream in(key);
  std::string token;
  while (std::getline(in, token, '+')) {
    if (token == "abftc") {
      v.abft = workloads::AbftKind::kCorrection;
    } else if (token == "abftd") {
      v.abft = workloads::AbftKind::kDetection;
    } else if (token == "eddi") {
      v.eddi = true;
      v.eddi_readback = false;
    } else if (token == "eddi_rb") {
      v.eddi = true;
      v.eddi_readback = true;
    } else if (token == "assert") {
      v.assertions = true;
    } else if (token == "cfcss") {
      v.cfcss = true;
    } else if (token == "dfc") {
      v.dfc = true;
    } else if (token == "monitor") {
      v.monitor = true;
    } else {
      throw std::invalid_argument(
          "unknown variant token '" + token +
          "' (expected: base, abftc, abftd, eddi, eddi_rb, assert, cfcss, "
          "dfc, monitor, joined with '+')");
    }
  }
  return v;
}

bool parse_shard(const std::string& text, std::uint32_t* index,
                 std::uint32_t* count) {
  const std::size_t slash = text.find('/');
  std::uint64_t k = 0, n = 0;
  if (slash == std::string::npos ||
      !util::parse_u64(std::string_view(text).substr(0, slash), &k) ||
      !util::parse_u64(std::string_view(text).substr(slash + 1), &n)) {
    return false;
  }
  if (n == 0 || k >= n || n > (1ULL << 20)) return false;
  *index = static_cast<std::uint32_t>(k);
  *count = static_cast<std::uint32_t>(n);
  return true;
}

util::ArgParser make_run_parser() {
  util::ArgParser args(
      "clear run --bench <name> [options]",
      "Simulates one shard of a flip-flop soft-error injection campaign\n"
      "and prints its outcome profile.  With --shard k/K this process\n"
      "owns exactly the global sample indices i with i % K == k, so K\n"
      "processes on K machines reproduce the unsharded campaign\n"
      "bit-exactly once their .csr files are folded by 'clear merge'.");
  args.add_option("core", "InO|OoO", "processor model", "InO");
  args.add_option("bench", "name", "benchmark to run (see --list-benches)");
  args.add_option("variant", "key",
                  "program variant: '+'-joined tokens among abftc, abftd, "
                  "eddi, eddi_rb, assert, cfcss, dfc, monitor",
                  "base");
  args.add_option("input-seed", "N", "benchmark input data set", "0");
  args.add_option("injections", "N",
                  "global campaign sample count, all shards together "
                  "(0 = one per flip-flop)",
                  "0");
  args.add_option("seed", "N", "campaign RNG seed", "1");
  args.add_option("confidence", "W",
                  "confidence-driven early stop: per flip-flop, stop "
                  "sampling once the 95% interval half-width on both the "
                  "SDC and DUE rates is <= W; --injections becomes a "
                  "budget ceiling (0 = off)");
  args.add_option("confidence-method", "wilson|cp",
                  "interval method for --confidence: wilson or cp "
                  "(Clopper-Pearson; default wilson)");
  args.add_option("shard", "k/K", "own samples i with i mod K == k", "0/1");
  args.add_option("recovery", "none|flush|rob|ir|eir",
                  "hardware recovery technique", "");
  args.add_option("key", "text",
                  "cache key (default derived from core/bench/variant)");
  args.add_flag("no-cache", "skip the campaign cache for this run");
  args.add_option("out", "file.csr", "write the shard result here");
  args.add_option("spec", "file",
                  "read flags from a campaign spec file (same --flag value "
                  "grammar, '#' comments, '---' lines separate the campaigns "
                  "of a multi-campaign manifest); command-line flags win");
  args.add_flag("dry-run", "resolve and print the plan, simulate nothing");
  args.add_flag("list-benches", "list benchmarks for --core and exit");
  args.add_option("metrics-out", "file",
                  "write the process metric snapshot after the run "
                  "(clear-metrics-v1 JSON; '-' = stdout)");
  return args;
}

void split_spec_stanzas(const std::string& text,
                        std::vector<std::vector<std::string>>* stanzas) {
  std::istringstream in(text);
  stanzas->emplace_back();
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream words(line);
    std::string word;
    bool first_word = true;
    while (words >> word) {
      if (first_word && word == "---") {
        if (!stanzas->back().empty()) stanzas->emplace_back();
        break;  // rest of a separator line is ignored
      }
      first_word = false;
      stanzas->back().push_back(word);
    }
  }
  if (stanzas->size() > 1 && stanzas->back().empty()) stanzas->pop_back();
}

namespace {

// Resolves one stanza's parsed flags into a plan (spec pointers NOT yet
// patched).  On failure fills *error, prefixed with `ctx`, and returns
// false.
bool resolve_plan(const util::ArgParser& args, const std::string& ctx,
                  RunPlan* plan, std::string* error) {
  const auto fail = [&](const std::string& msg) {
    *error = ctx + ": " + msg;
    return false;
  };
  plan->core_name = args.get("core");
  if (plan->core_name != "InO" && plan->core_name != "OoO") {
    return fail("unknown core '" + plan->core_name + "' (InO or OoO)");
  }
  plan->list_benches = args.has("list-benches");
  if (plan->list_benches) return true;
  plan->bench = args.get("bench");
  if (plan->bench.empty()) return fail("--bench is required");
  if (!parse_shard(args.get("shard"), &plan->shard_index,
                   &plan->shard_count)) {
    return fail("bad --shard '" + args.get("shard") +
                "' (want k/K with k < K)");
  }
  try {
    plan->variant = parse_variant(args.get("variant"));
  } catch (const std::invalid_argument& e) {
    return fail(e.what());
  }
  plan->cfg.dfc = plan->variant.dfc;
  plan->cfg.monitor = plan->variant.monitor;
  plan->cfg.recovery = plan->variant.monitor ? arch::RecoveryKind::kRob
                                             : arch::RecoveryKind::kNone;
  const std::string recovery = args.get("recovery");
  if (recovery == "none") plan->cfg.recovery = arch::RecoveryKind::kNone;
  else if (recovery == "flush") plan->cfg.recovery = arch::RecoveryKind::kFlush;
  else if (recovery == "rob") plan->cfg.recovery = arch::RecoveryKind::kRob;
  else if (recovery == "ir") plan->cfg.recovery = arch::RecoveryKind::kIr;
  else if (recovery == "eir") plan->cfg.recovery = arch::RecoveryKind::kEir;
  else if (!recovery.empty()) {
    return fail("bad --recovery '" + recovery + "'");
  }
  plan->needs_cfg = plan->cfg.dfc || plan->cfg.monitor ||
                    plan->cfg.recovery != arch::RecoveryKind::kNone;

  // Numeric flags are strict: a mistyped --injections must fail loudly,
  // never silently shrink a cluster campaign to its default.
  std::uint64_t input_seed64 = 0, injections = 0, seed = 1;
  const auto numeric = [&](const char* flag, std::uint64_t def,
                           std::uint64_t* out) {
    if (args.get_u64(flag, def, out)) return true;
    *error = ctx + ": bad numeric value '--" + std::string(flag) + " " +
             args.get(flag) + "'";
    return false;
  };
  if (!numeric("input-seed", 0, &input_seed64) ||
      !numeric("injections", 0, &injections) || !numeric("seed", 1, &seed)) {
    return false;
  }
  plan->input_seed = static_cast<std::uint32_t>(input_seed64);

  // Adaptive confidence target.  Strict like the numerics above: a typo'd
  // half-width must never silently fall back to a fixed-budget campaign.
  std::string conf = args.get("confidence");
  if (conf.empty()) conf = "0";
  {
    errno = 0;
    char* end = nullptr;
    const double w = std::strtod(conf.c_str(), &end);
    if (end == conf.c_str() || *end != '\0' || errno == ERANGE ||
        !(w >= 0.0) || w > 0.5) {
      return fail("bad --confidence '" + conf +
                  "' (want an interval half-width in (0, 0.5], or 0 = off)");
    }
    plan->spec.confidence_half_width = w;
  }
  std::string method = args.get("confidence-method");
  if (method.empty()) method = "wilson";
  if (!util::parse_interval_method(method, &plan->spec.confidence_method)) {
    return fail("bad --confidence-method '" + method + "' (wilson or cp)");
  }

  // An unknown benchmark name throws out of here (operational failure,
  // exit 1 at the CLI; bad-request over serve) -- exactly the pre-split
  // behaviour of `clear run`.
  plan->prog = core::build_variant_program(plan->bench, plan->variant,
                                           plan->input_seed);
  plan->ff_count = arch::core_ff_count(plan->core_name);

  plan->spec.core_name = plan->core_name;
  plan->spec.injections = static_cast<std::size_t>(injections);
  plan->spec.seed = seed;
  plan->spec.shard_index = plan->shard_index;
  plan->spec.shard_count = plan->shard_count;
  if (args.has("no-cache")) {
    plan->spec.key.clear();
  } else if (args.has("key")) {
    plan->spec.key = args.get("key");
  } else {
    plan->spec.key = "cli/" + plan->core_name + "/" + plan->bench + "/" +
                     plan->variant.key();
    if (plan->input_seed != 0) {
      plan->spec.key += "/in" + std::to_string(plan->input_seed);
    }
    // Recovery changes the outcome distribution but is not part of the
    // variant key: encode it, or two runs differing only in --recovery
    // would silently share cached results.
    if (plan->cfg.recovery != arch::RecoveryKind::kNone) {
      plan->spec.key +=
          std::string("/rec_") + arch::recovery_name(plan->cfg.recovery);
    }
    // Same reasoning for the confidence target: the adaptive schedule
    // changes which samples execute, so it must never share a key with
    // the fixed-budget campaign.  (The fingerprint already separates
    // them; the key text is for humans and cache listings.)  %g is
    // deterministic for a given flag string, which is all shard-key
    // agreement needs -- identity proper travels as IEEE bits.
    if (plan->spec.adaptive()) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "/conf%s%g",
                    plan->spec.confidence_method ==
                            util::IntervalMethod::kClopperPearson
                        ? "cp"
                        : "",
                    plan->spec.confidence_half_width);
      plan->spec.key += buf;
    }
  }
  plan->global =
      plan->spec.injections != 0 ? plan->spec.injections : plan->ff_count;
  plan->out = args.get("out");
  plan->metrics_out = args.get("metrics-out");
  plan->dry_run = args.has("dry-run");
  return true;
}

// Every stanza flag some site refuses, and the sites that refuse it.  A
// local run of one stanza extends its command line, so it refuses only
// what kAtLocalOne marks; a manifest of several stanzas also refuses
// what would name one file for the whole process.
enum : unsigned {
  kAtLocalOne = 1,
  kAtLocalMany = 2,
  kAtWorker = 4,
  kAtFleet = 8,
};
struct StanzaRefusal {
  const char* flag;
  unsigned sites;
  const char* why;
};
constexpr StanzaRefusal kStanzaRefusals[] = {
    {"spec", kAtLocalOne | kAtLocalMany | kAtWorker | kAtFleet,
     "a stanza cannot name another manifest"},
    {"metrics-out", kAtLocalMany | kAtWorker | kAtFleet,
     "the metric snapshot is one file per process"},
    {"out", kAtWorker | kAtFleet, "the driver writes each campaign's .csr"},
    {"shard", kAtFleet, "the fleet driver assigns every shard"},
    {"dry-run", kAtWorker | kAtFleet, "it directs a local clear run"},
    {"list-benches", kAtWorker | kAtFleet, "it directs a local clear run"},
};

// The refusal-table column of a manifest of `stanzas` resolved at `site`,
// and the words that name it in an error.
unsigned site_column(Site site, std::size_t stanzas, const char** where) {
  switch (site) {
    case Site::kLocal:
      if (stanzas > 1) {
        *where = "in a multi-campaign manifest";
        return kAtLocalMany;
      }
      *where = "in a spec stanza";
      return kAtLocalOne;
    case Site::kWorker: *where = "on a serve worker"; return kAtWorker;
    case Site::kFleet: *where = "by the fleet driver"; return kAtFleet;
  }
  return 0;
}

}  // namespace

inject::ShardFile plan_shard_file(const RunPlan& plan,
                                  const inject::CampaignResult& result) {
  inject::ShardFile shard;
  shard.core_name = plan.core_name;
  shard.key = plan.spec.key;
  shard.program_hash = inject::wire_program_hash(plan.prog);
  shard.injections = plan.global;
  shard.seed = plan.spec.seed;
  shard.shard_count = plan.shard_count;
  shard.covered = {plan.shard_index};
  shard.result = result;
  return shard;
}

bool resolve_manifest_text(const std::string& text, const std::string& ctx,
                           std::vector<RunPlan>* plans, std::string* error,
                           Site site, const util::ArgParser* command_line) {
  std::vector<std::vector<std::string>> stanzas;
  split_spec_stanzas(text, &stanzas);
  if (site != Site::kLocal && stanzas[0].empty()) {
    *error = ctx + ": empty manifest";
    return false;
  }
  const char* where = "";
  const unsigned column = site_column(site, stanzas.size(), &where);
  plans->assign(stanzas.size(), RunPlan());
  for (std::size_t i = 0; i < stanzas.size(); ++i) {
    const std::string sctx =
        stanzas.size() > 1 ? ctx + ": campaign #" + std::to_string(i + 1)
                           : ctx;
    util::ArgParser args = make_run_parser();
    std::string parse_error;
    if (!args.parse(stanzas[i], &parse_error)) {
      *error = sctx + ": " + parse_error;
      return false;
    }
    for (const StanzaRefusal& r : kStanzaRefusals) {
      if ((r.sites & column) != 0 && args.has(r.flag)) {
        *error = sctx + ": --" + r.flag + " is refused " + where + " (" +
                 r.why + ")";
        return false;
      }
    }
    if (command_line != nullptr) args.overlay(*command_line);
    RunPlan& plan = (*plans)[i];
    plan.tokens = std::move(stanzas[i]);
    if (!resolve_plan(args, sctx, &plan, error)) return false;
  }
  // `plans` is final: patch the spec pointers into their stable homes.
  for (auto& plan : *plans) plan.patch_spec_pointers();
  return true;
}

}  // namespace clear::plan
