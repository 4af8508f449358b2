// Minimal command-line flag parser for the `clear` CLI (src/cli).
//
// Supports `--flag`, `--option value`, `--option=value` and positional
// operands, with generated usage text.  Deliberately tiny: no subcommand
// tree (the CLI dispatches on argv[1] itself), no short options, no
// required-flag machinery beyond what the CLI validates explicitly.
#ifndef CLEAR_UTIL_ARGS_H
#define CLEAR_UTIL_ARGS_H

#include <cstdint>
#include <string>
#include <vector>

namespace clear::util {

class ArgParser {
 public:
  // `usage_line` is the one-line synopsis printed first (e.g.
  // "clear run --core C --bench B [options]").
  ArgParser(std::string usage_line, std::string description);

  // A boolean flag: present or absent, takes no value.
  void add_flag(const std::string& name, const std::string& help);
  // A valued option; `value_name` is the placeholder shown in usage.
  // `def` is the default returned by get() when the option is absent
  // (shown in the help text when non-empty).
  void add_option(const std::string& name, const std::string& value_name,
                  const std::string& help, const std::string& def = "");
  // Declares that positional operands are accepted (usage/help only).
  void allow_positionals(const std::string& name, const std::string& help);

  // Parses argv[0..argc).  Returns false and fills *error on an unknown
  // flag, a missing value, or an unexpected positional.  `--help` is
  // recognized implicitly (sets help_requested()).
  bool parse(int argc, const char* const* argv, std::string* error);
  // The same over tokens already split (a spec stanza), which also
  // refuses a valued option given twice: within one stanza a repeat is a
  // missing `---` separator, not an override.  Across calls later values
  // still win (the command line overrides a one-stanza spec).
  bool parse(const std::vector<std::string>& tokens, std::string* error);

  [[nodiscard]] bool help_requested() const noexcept { return help_; }
  // True when the flag/option appeared on the command line.
  [[nodiscard]] bool has(const std::string& name) const;
  // Option value (or its default).
  [[nodiscard]] std::string get(const std::string& name) const;
  // Strict numeric accessor: *out is `def` when the option is absent, its
  // parsed value when present and a plain decimal number.  Returns false
  // (leaving *out = def) when the option was supplied with a malformed
  // value -- callers turn that into a usage error instead of silently
  // running with the default (a mistyped --injections must never shrink
  // a cluster campaign unnoticed).
  [[nodiscard]] bool get_u64(const std::string& name, std::uint64_t def,
                             std::uint64_t* out) const;
  [[nodiscard]] const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

  // Full help text: synopsis, description, one line per flag.
  [[nodiscard]] std::string help() const;

 private:
  struct Spec {
    std::string name;        // without the leading "--"
    std::string value_name;  // empty = boolean flag
    std::string help;
    std::string def;
    bool present = false;
    std::string value;
  };
  bool parse_tokens(int argc, const char* const* argv, bool once,
                    std::string* error);
  Spec* find(const std::string& name);
  [[nodiscard]] const Spec* find(const std::string& name) const;

  std::string usage_line_;
  std::string description_;
  std::vector<Spec> specs_;
  std::vector<std::string> positionals_;
  std::string positional_name_;
  std::string positional_help_;
  bool allow_positionals_ = false;
  bool help_ = false;
};

}  // namespace clear::util

#endif  // CLEAR_UTIL_ARGS_H
