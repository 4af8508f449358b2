// `clear run`: simulate one shard of an injection campaign and write the
// result as a .csr wire file for `clear merge` / `clear report`.
//
// Flag resolution, the manifest grammar, the stanza refusals and the .csr
// identity stamp live in plan/runplan.{h,cpp}, shared with the `clear
// serve` daemon and the fleet driver so a remote worker's bytes match a
// local run's exactly.  A flag-only run is a manifest of one empty
// stanza: one path runs 1..N campaigns.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "engine/engine.h"
#include "plan/runplan.h"
#include "inject/campaign.h"
#include "inject/wire.h"
#include "util/fs.h"
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
void finish_campaign(const plan::RunPlan& plan,
                     const inject::CampaignResult& result) {
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
}

}  // namespace

int cmd_run(int argc, const char* const* argv) {
  util::ArgParser args = plan::make_run_parser();
  int rc = 0;
  if (!parse_verb(args, argc, argv, "clear run", &rc)) return rc;

  std::string text, ctx = "clear run";
  if (args.has("spec")) {
    if (!util::read_file(args.get("spec"), &text)) {
      std::fprintf(stderr, "clear run: cannot read spec file '%s'\n",
                   args.get("spec").c_str());
      return 1;
    }
    ctx += ": in spec '" + args.get("spec") + "'";
  }
  std::vector<plan::RunPlan> plans;
  std::string error;
  if (!plan::resolve_manifest_text(text, ctx, &plans, &error,
                                   plan::Site::kLocal, &args)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    // The mistake a bare `clear run` makes: show the flag table.
    if (!args.has("spec") && !args.has("bench")) {
      std::fputs(args.help().c_str(), stderr);
    }
    return 2;
  }
  // Campaigns resolved together run as ONE engine::run_campaigns batch,
  // so golden-run recording overlaps faulty runs across campaigns.
  const bool manifest = plans.size() > 1;
  if (manifest && args.has("out")) {
    std::fprintf(stderr,
                 "clear run: --out on the command line would make all %zu "
                 "manifest campaigns overwrite one file; put --out in the "
                 "stanzas instead\n",
                 plans.size());
    return 2;
  }
  for (const plan::RunPlan& plan : plans) {
    if (plan.list_benches) return list_benches(plan.core_name);
  }

  if (manifest) {
    std::printf("manifest   %s: %zu campaigns, one run_campaigns batch\n",
                args.get("spec").c_str(), plans.size());
  }
  for (const plan::RunPlan& plan : plans) print_plan(plan);
  // A --dry-run anywhere in the manifest dry-runs the whole batch (a
  // silently ignored one could cost hours of unintended cluster compute).
  if (std::any_of(plans.begin(), plans.end(),
                  [](const plan::RunPlan& p) { return p.dry_run; })) {
    std::printf("dry run: nothing simulated\n");
    return 0;
  }

  std::vector<inject::CampaignSpec> specs;
  specs.reserve(plans.size());
  for (const plan::RunPlan& plan : plans) specs.push_back(plan.spec);
  const std::vector<inject::CampaignResult> results =
      engine::run_campaigns(specs);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (manifest) {
      std::printf("\ncampaign   %s/%s variant=%s\n",
                  plans[i].core_name.c_str(), plans[i].bench.c_str(),
                  plans[i].variant.key().c_str());
    }
    finish_campaign(plans[i], results[i]);
  }
  // A stanza's --metrics-out is refused in a manifest of several, so
  // every plan carries the same (command-line) value.
  write_metrics_out(plans[0].metrics_out, "clear run");
  return 0;
}

}  // namespace clear::cli
