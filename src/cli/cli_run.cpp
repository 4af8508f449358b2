// `clear run`: simulate one shard of an injection campaign and write the
// result as a .csr wire file for `clear merge` / `clear report`.
//
// Flag resolution, the manifest grammar and the .csr identity stamp live
// in plan/runplan.{h,cpp}, shared with the `clear serve` daemon so a
// remote worker's bytes match a local run's exactly.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "engine/engine.h"
#include "plan/runplan.h"
#include "inject/campaign.h"
#include "inject/wire.h"
#include "util/table.h"
#include "workloads/workloads.h"

namespace clear::cli {

namespace {

int list_benches(const std::string& core) {
  util::TextTable table({"benchmark", "suite", "cores", "abft"});
  for (const auto& info : workloads::benchmark_list()) {
    if (core == "OoO" && !info.ooo) continue;
    table.add_row({info.name, info.suite, info.ooo ? "InO+OoO" : "InO",
                   info.abft == workloads::AbftKind::kCorrection ? "correction"
                   : info.abft == workloads::AbftKind::kDetection ? "detection"
                                                                  : "-"});
  }
  table.print(std::cout);
  return 0;
}

void print_plan(const plan::RunPlan& plan) {
  const std::uint64_t local =
      plan.global > plan.shard_index
          ? (plan.global - plan.shard_index + plan.shard_count - 1) /
                plan.shard_count
          : 0;
  std::printf("campaign   %s/%s variant=%s seed=%llu\n",
              plan.core_name.c_str(), plan.bench.c_str(),
              plan.variant.key().c_str(),
              static_cast<unsigned long long>(plan.spec.seed));
  std::printf("samples    %llu global, %llu owned by shard %u/%u\n",
              static_cast<unsigned long long>(plan.global),
              static_cast<unsigned long long>(local), plan.shard_index,
              plan.shard_count);
  if (plan.spec.adaptive()) {
    std::printf("confidence +/-%g (%s), %llu-sample budget ceiling\n",
                plan.spec.confidence_half_width,
                util::interval_method_name(plan.spec.confidence_method),
                static_cast<unsigned long long>(plan.global));
  }
  std::printf("program    %u flip-flops, hash %016llx\n", plan.ff_count,
              static_cast<unsigned long long>(
                  inject::wire_program_hash(plan.prog)));
  const std::string cache_dir = inject::campaign_cache_dir();
  std::printf("cache      %s\n",
              plan.spec.key.empty() || cache_dir.empty()
                  ? "(disabled)"
                  : (cache_dir + " key=" + plan.spec.key).c_str());
}

// Prints a campaign's outcome table and writes its .csr when requested.
int finish_campaign(const plan::RunPlan& plan, const inject::CampaignResult& result) {
  util::TextTable table({"samples", "vanished", "SDC", "DUE", "recovered",
                         "SDC frac", "+/-95%"});
  table.add_row({std::to_string(result.totals.total()),
                 std::to_string(result.totals.vanished),
                 std::to_string(result.totals.sdc()),
                 std::to_string(result.totals.due()),
                 std::to_string(result.totals.recovered),
                 util::TextTable::num(result.sdc_fraction(), 4),
                 util::TextTable::num(result.sdc_margin_of_error(), 4)});
  table.print(std::cout);

  if (result.adaptive()) {
    const util::Interval sdc = result.sdc_interval();
    const util::Interval due = result.due_interval();
    std::printf(
        "confidence target +/-%g (%s): executed %llu of %llu budget "
        "(%llu planned)\n",
        result.confidence_target,
        util::interval_method_name(result.confidence_method),
        static_cast<unsigned long long>(result.samples_executed()),
        static_cast<unsigned long long>(plan.global),
        static_cast<unsigned long long>(result.planned_total()));
    std::printf("achieved   SDC [%.6g, %.6g] +/-%.4g   DUE [%.6g, %.6g] "
                "+/-%.4g\n",
                sdc.lo, sdc.hi, util::interval_half_width(sdc), due.lo,
                due.hi, util::interval_half_width(due));
  }

  if (!plan.out.empty()) {
    const inject::ShardFile shard = plan::plan_shard_file(plan, result);
    inject::write_shard_file(plan.out, shard);
    std::printf("wrote %s (%s)\n", plan.out.c_str(),
                shard.complete() ? "complete campaign" : "1 shard");
  }
  return 0;
}

// resolve_plan + usage-error reporting (help text on a missing --bench,
// the mistake a bare `clear run` makes).
int resolve_or_complain(const util::ArgParser& args, const std::string& ctx,
                        plan::RunPlan* plan) {
  std::string error;
  bool show_usage = false;
  if (plan::resolve_plan(args, ctx, plan, &error, &show_usage)) return 0;
  std::fprintf(stderr, "%s\n", error.c_str());
  if (show_usage) std::fputs(args.help().c_str(), stderr);
  return 2;
}

}  // namespace

int cmd_run(int argc, const char* const* argv) {
  util::ArgParser args = plan::make_run_parser();
  std::string error;
  if (!args.parse(argc, argv, &error)) {
    std::fprintf(stderr, "clear run: %s\n%s", error.c_str(),
                 args.help().c_str());
    return 2;
  }

  std::vector<std::vector<std::string>> stanzas;
  if (args.has("spec")) {
    if (!plan::read_spec_stanzas(args.get("spec"), &stanzas)) {
      std::fprintf(stderr, "clear run: cannot read spec file '%s'\n",
                   args.get("spec").c_str());
      return 1;
    }
    // A spec file must not name another spec file: the command-line
    // re-parse would silently overwrite it in the one-stanza case, so
    // refuse it loudly everywhere.
    for (std::size_t i = 0; i < stanzas.size(); ++i) {
      for (const auto& t : stanzas[i]) {
        if (t == "--spec" || t.rfind("--spec=", 0) == 0) {
          std::fprintf(stderr,
                       "clear run: in spec '%s' campaign #%zu: nested --spec "
                       "is not allowed\n",
                       args.get("spec").c_str(), i + 1);
          return 2;
        }
      }
    }
  }
  if (stanzas.size() == 1) {
    // Spec first, then the command line again so explicit flags override
    // the file (parsing is cumulative: later values win).
    if (!args.parse(stanzas[0], &error) || !args.parse(argc, argv, &error)) {
      std::fprintf(stderr, "clear run: in spec '%s': %s\n%s",
                   args.get("spec").c_str(), error.c_str(),
                   args.help().c_str());
      return 2;
    }
  }
  if (args.help_requested()) {
    std::fputs(args.help().c_str(), stdout);
    return 0;
  }
  if (args.has("list-benches")) {
    const std::string core_name = args.get("core");
    if (core_name != "InO" && core_name != "OoO") {
      std::fprintf(stderr, "clear run: unknown core '%s' (InO or OoO)\n",
                   core_name.c_str());
      return 2;
    }
    return list_benches(core_name);
  }

  // ---- single campaign (no spec, or a one-stanza spec file) ----------------
  if (stanzas.size() <= 1) {
    plan::RunPlan plan;
    const int rc = resolve_or_complain(args, "clear run", &plan);
    if (rc != 0) return rc;
    plan.patch_spec_pointers();
    print_plan(plan);
    if (args.has("dry-run")) {
      std::printf("dry run: nothing simulated\n");
      return 0;
    }
    const int done = finish_campaign(plan, engine::run_campaign(plan.spec));
    if (done == 0) write_metrics_out(args.get("metrics-out"), "clear run");
    return done;
  }

  // ---- multi-campaign manifest ----------------------------------------------
  // Every stanza resolves independently (stanza flags, then the command
  // line again, which wins -- the cluster job passes --shard/--threads
  // once for the whole manifest); all campaigns are submitted as ONE
  // engine::run_campaigns batch so golden-run recording overlaps faulty runs
  // across campaigns.
  // In the manifest path `args` holds the command-line parse alone (the
  // spec-token merge above only ran for one-stanza files).
  if (args.has("out")) {
    std::fprintf(stderr,
                 "clear run: --out on the command line would make all %zu "
                 "manifest campaigns overwrite one file; put --out in the "
                 "stanzas instead\n",
                 stanzas.size());
    return 2;
  }
  bool dry_run = args.has("dry-run");
  std::vector<plan::RunPlan> plans(stanzas.size());
  for (std::size_t i = 0; i < stanzas.size(); ++i) {
    util::ArgParser stanza_args = plan::make_run_parser();
    const std::string ctx = "clear run: in spec '" + args.get("spec") +
                            "' campaign #" + std::to_string(i + 1);
    if (!stanza_args.parse(stanzas[i], &error) ||
        !stanza_args.parse(argc, argv, &error)) {
      std::fprintf(stderr, "%s: %s\n", ctx.c_str(), error.c_str());
      return 2;
    }
    // Honor the flags a one-stanza spec would have honored: a --dry-run
    // anywhere in the manifest dry-runs the whole batch (a silently
    // ignored one could cost hours of unintended cluster compute).
    dry_run |= stanza_args.has("dry-run");
    if (stanza_args.has("list-benches")) {
      const std::string core_name = stanza_args.get("core");
      if (core_name != "InO" && core_name != "OoO") {
        std::fprintf(stderr, "%s: unknown core '%s' (InO or OoO)\n",
                     ctx.c_str(), core_name.c_str());
        return 2;
      }
      return list_benches(core_name);
    }
    const int rc = resolve_or_complain(stanza_args, ctx, &plans[i]);
    if (rc != 0) return rc;
  }

  // `plans` is final: spec pointers into it stay valid through the batch.
  std::vector<inject::CampaignSpec> specs(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    plans[i].patch_spec_pointers();
    specs[i] = plans[i].spec;
  }
  std::printf("manifest   %s: %zu campaigns, one run_campaigns batch\n",
              args.get("spec").c_str(), plans.size());
  for (const plan::RunPlan& plan : plans) print_plan(plan);
  if (dry_run) {
    std::printf("dry run: nothing simulated\n");
    return 0;
  }

  const std::vector<inject::CampaignResult> results =
      engine::run_campaigns(specs);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    std::printf("\ncampaign   %s/%s variant=%s\n", plans[i].core_name.c_str(),
                plans[i].bench.c_str(), plans[i].variant.key().c_str());
    const int rc = finish_campaign(plans[i], results[i]);
    if (rc != 0) return rc;
  }
  write_metrics_out(args.get("metrics-out"), "clear run");
  return 0;
}

}  // namespace clear::cli
