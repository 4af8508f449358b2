#include "util/args.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

namespace clear::util {

ArgParser::ArgParser(std::string usage_line, std::string description)
    : usage_line_(std::move(usage_line)),
      description_(std::move(description)) {}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  Spec s;
  s.name = name;
  s.help = help;
  specs_.push_back(std::move(s));
}

void ArgParser::add_option(const std::string& name,
                           const std::string& value_name,
                           const std::string& help, const std::string& def) {
  Spec s;
  s.name = name;
  s.value_name = value_name;
  s.help = help;
  s.def = def;
  specs_.push_back(std::move(s));
}

void ArgParser::allow_positionals(const std::string& name,
                                  const std::string& help) {
  allow_positionals_ = true;
  positional_name_ = name;
  positional_help_ = help;
}

ArgParser::Spec* ArgParser::find(const std::string& name) {
  for (auto& s : specs_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const ArgParser::Spec* ArgParser::find(const std::string& name) const {
  for (const auto& s : specs_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

bool ArgParser::parse(const std::vector<std::string>& tokens,
                      std::string* error) {
  std::vector<const char*> argv;
  argv.reserve(tokens.size());
  for (const std::string& t : tokens) argv.push_back(t.c_str());
  return parse_tokens(static_cast<int>(argv.size()), argv.data(), true,
                      error);
}

bool ArgParser::parse(int argc, const char* const* argv, std::string* error) {
  return parse_tokens(argc, argv, false, error);
}

bool ArgParser::parse_tokens(int argc, const char* const* argv, bool once,
                             std::string* error) {
  std::vector<const Spec*> valued;  // options this call has set
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      if (!allow_positionals_) {
        *error = "unexpected operand '" + arg + "'";
        return false;
      }
      positionals_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string inline_value;
    bool has_inline = false;
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline = true;
    }
    Spec* spec = find(name);
    if (spec == nullptr) {
      *error = "unknown flag '--" + name + "'";
      return false;
    }
    spec->present = true;
    if (spec->value_name.empty()) {
      if (has_inline) {
        *error = "flag '--" + name + "' takes no value";
        return false;
      }
      continue;
    }
    if (once && std::find(valued.begin(), valued.end(), spec) != valued.end()) {
      *error = "flag '--" + name +
               "' given twice in one stanza (separate campaigns with a "
               "'---' line)";
      return false;
    }
    valued.push_back(spec);
    if (has_inline) {
      spec->value = inline_value;
    } else if (i + 1 < argc) {
      spec->value = argv[++i];
    } else {
      *error = "flag '--" + name + "' needs a value (" + spec->value_name + ")";
      return false;
    }
  }
  return true;
}

bool ArgParser::has(const std::string& name) const {
  const Spec* s = find(name);
  return s != nullptr && s->present;
}

std::string ArgParser::get(const std::string& name) const {
  const Spec* s = find(name);
  if (s == nullptr) return "";
  return s->present ? s->value : s->def;
}

bool ArgParser::get_u64(const std::string& name, std::uint64_t def,
                        std::uint64_t* out) const {
  *out = def;
  const Spec* s = find(name);
  if (s == nullptr || !s->present) return true;
  const std::string& v = s->value;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || end == v.c_str()) return false;
  *out = static_cast<std::uint64_t>(parsed);
  return true;
}

std::string ArgParser::help() const {
  std::ostringstream out;
  out << "usage: " << usage_line_ << "\n\n" << description_ << "\n";
  if (!specs_.empty()) out << "\noptions:\n";
  for (const auto& s : specs_) {
    std::string left = "  --" + s.name;
    if (!s.value_name.empty()) left += " <" + s.value_name + ">";
    out << left;
    if (left.size() < 28) out << std::string(28 - left.size(), ' ');
    else out << "\n" << std::string(28, ' ');
    out << s.help;
    if (!s.def.empty()) out << " (default: " << s.def << ")";
    out << "\n";
  }
  if (allow_positionals_) {
    out << "\noperands:\n  " << positional_name_ << "  " << positional_help_
        << "\n";
  }
  return out.str();
}

}  // namespace clear::util
