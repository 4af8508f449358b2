// `clear report`: render .csr result files as tables.
//
// One summary row per file (identity + outcome profile); --per-ff adds
// the per-flip-flop counters that drive selective-hardening decisions.
// Formats: human (aligned text, util::TextTable), csv (RFC-4180-ish,
// same columns), json (one object per file, per_ff nested).
#include <cstdio>
#include <iostream>
#include <sstream>
#include <vector>

#include "cli/cli.h"
#include "inject/wire.h"
#include "util/args.h"
#include "util/stats.h"
#include "util/table.h"

namespace clear::cli {

namespace {

std::string coverage(const inject::ShardFile& s) {
  return std::to_string(s.covered.size()) + "/" +
         std::to_string(s.shard_count) + (s.complete() ? " (full)" : "");
}

void emit_json(const std::vector<std::pair<std::string, inject::ShardFile>>&
                   files,
               bool per_ff) {
  std::ostringstream out;
  out << "[\n";
  for (std::size_t i = 0; i < files.size(); ++i) {
    const auto& [path, s] = files[i];
    const auto& t = s.result.totals;
    out << "  {\"file\": \"" << json_escape(path) << "\", \"core\": \""
        << json_escape(s.core_name) << "\", \"key\": \"" << json_escape(s.key)
        << "\", \"program_hash\": \"";
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(s.program_hash));
    out << hash << "\", \"injections\": " << s.injections
        << ", \"seed\": " << s.seed << ", \"shard_count\": " << s.shard_count
        << ", \"covered\": [";
    for (std::size_t c = 0; c < s.covered.size(); ++c) {
      out << (c ? ", " : "") << s.covered[c];
    }
    out << "], \"complete\": " << (s.complete() ? "true" : "false")
        << ", \"nominal_cycles\": " << s.result.nominal_cycles
        << ", \"nominal_instrs\": " << s.result.nominal_instrs
        << ", \"ff_count\": " << s.result.ff_count
        << ",\n   \"totals\": {\"samples\": " << t.total()
        << ", \"vanished\": " << t.vanished << ", \"omm\": " << t.omm
        << ", \"ut\": " << t.ut << ", \"hang\": " << t.hang
        << ", \"ed\": " << t.ed << ", \"recovered\": " << t.recovered
        << ", \"sdc_fraction\": " << s.result.sdc_fraction()
        << ", \"due_fraction\": " << s.result.due_fraction()
        << ", \"sdc_margin_95\": " << s.result.sdc_margin_of_error() << "}";
    if (s.result.adaptive()) {
      const util::Interval sdc = s.result.sdc_interval();
      const util::Interval due = s.result.due_interval();
      out << ",\n   \"adaptive\": {\"method\": \""
          << util::interval_method_name(s.result.confidence_method)
          << "\", \"target_half_width\": " << s.result.confidence_target
          << ", \"pilot\": " << s.result.pilot
          << ", \"samples_executed\": " << s.result.samples_executed()
          << ", \"planned_total\": " << s.result.planned_total()
          << ", \"sdc_interval_95\": [" << sdc.lo << ", " << sdc.hi
          << "], \"due_interval_95\": [" << due.lo << ", " << due.hi << "]}";
    }
    if (per_ff) {
      out << ",\n   \"per_ff\": [";
      for (std::uint32_t f = 0; f < s.result.ff_count; ++f) {
        const auto& c = s.result.per_ff[f];
        out << (f ? ", " : "") << "[" << c.vanished << "," << c.omm << ","
            << c.ut << "," << c.hang << "," << c.ed << "," << c.recovered
            << "]";
      }
      out << "]";
    }
    out << "}" << (i + 1 < files.size() ? "," : "") << "\n";
  }
  out << "]\n";
  std::fputs(out.str().c_str(), stdout);
}

}  // namespace

int cmd_report(int argc, const char* const* argv) {
  util::ArgParser args(
      "clear report [--format human|csv|json] <result.csr>...",
      "Renders shard/merged result files.  The summary has one row per\n"
      "file; --per-ff appends per-flip-flop outcome counters (the data\n"
      "selective hardening ranks flip-flops by).");
  args.add_option("format", "human|csv|json", "output format", "human");
  args.add_flag("per-ff", "include per-flip-flop outcome counters");
  args.allow_positionals("result.csr...", "result files to render");

  int rc = 0;
  if (!parse_verb(args, argc, argv, "clear report", &rc)) return rc;
  const std::string format = args.get("format");
  if (format != "human" && format != "csv" && format != "json") {
    std::fprintf(stderr, "clear report: bad --format '%s'\n", format.c_str());
    return 2;
  }
  if (args.positionals().empty()) {
    std::fprintf(stderr, "clear report: no result files given\n%s",
                 args.help().c_str());
    return 2;
  }

  std::vector<std::pair<std::string, inject::ShardFile>> files;
  for (const std::string& path : args.positionals()) {
    inject::ShardFile s;
    const inject::WireStatus st = inject::load_shard_file(path, &s);
    if (st != inject::WireStatus::kOk) {
      std::fprintf(stderr, "clear report: %s: %s\n", path.c_str(),
                   inject::wire_status_name(st));
      return 1;
    }
    files.emplace_back(path, std::move(s));
  }

  if (format == "json") {
    emit_json(files, args.has("per-ff"));
    return 0;
  }

  // Adaptive columns render "-" for fixed-budget files: the achieved
  // intervals only mean something against a declared confidence target.
  util::TextTable summary({"file", "core", "key", "shards", "samples",
                           "vanished", "SDC", "DUE", "recovered", "SDC frac",
                           "+/-95%", "cycles", "conf", "SDC 95%", "DUE 95%"});
  const auto span = [](const util::Interval& iv) {
    return util::TextTable::num(iv.lo, 4) + ".." +
           util::TextTable::num(iv.hi, 4);
  };
  for (const auto& [path, s] : files) {
    const auto& t = s.result.totals;
    summary.add_row({path, s.core_name, s.key, coverage(s),
                     std::to_string(t.total()), std::to_string(t.vanished),
                     std::to_string(t.sdc()), std::to_string(t.due()),
                     std::to_string(t.recovered),
                     util::TextTable::num(s.result.sdc_fraction(), 4),
                     util::TextTable::num(s.result.sdc_margin_of_error(), 4),
                     std::to_string(s.result.nominal_cycles),
                     s.result.adaptive()
                         ? util::TextTable::num(s.result.confidence_target, 4)
                         : "-",
                     s.result.adaptive() ? span(s.result.sdc_interval()) : "-",
                     s.result.adaptive() ? span(s.result.due_interval())
                                         : "-"});
  }
  std::fputs(format == "csv" ? summary.csv().c_str() : summary.str().c_str(),
             stdout);

  if (args.has("per-ff")) {
    util::TextTable per_ff({"file", "ff", "vanished", "OMM", "UT", "Hang",
                            "ED", "recovered"});
    for (const auto& [path, s] : files) {
      for (std::uint32_t f = 0; f < s.result.ff_count; ++f) {
        const auto& c = s.result.per_ff[f];
        per_ff.add_row({path, std::to_string(f), std::to_string(c.vanished),
                        std::to_string(c.omm), std::to_string(c.ut),
                        std::to_string(c.hang), std::to_string(c.ed),
                        std::to_string(c.recovered)});
      }
    }
    std::fputs("\n", stdout);
    std::fputs(format == "csv" ? per_ff.csv().c_str() : per_ff.str().c_str(),
               stdout);
  }
  return 0;
}

}  // namespace clear::cli
