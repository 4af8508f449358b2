// The JSON value reader behind the documents the tool reads back from
// itself: clear-metrics-v1 (obs::snapshot_from_json) wrapped in
// clear-fleet-status-v1 (fleet/status.h).  Writers stay hand-formatted
// next to their readers; util::json_escape (util/table.h) escapes their
// strings.
#ifndef CLEAR_UTIL_JSON_H
#define CLEAR_UTIL_JSON_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace clear::util {

struct Json {
  enum class Kind : std::uint8_t { kNull, kBool, kNum, kStr, kArr, kObj };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0;
  std::uint64_t u = 0;  // exact value when the token was a plain integer
  std::string str;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;  // in document order

  // The first member named `key` of an object (nullptr if none).
  [[nodiscard]] const Json* find(const std::string& key) const;
  [[nodiscard]] std::uint64_t as_u64() const {
    return kind == Kind::kNum ? u : 0;
  }
  [[nodiscard]] std::string as_str() const {
    return kind == Kind::kStr ? str : std::string();
  }
  // The member `key`'s as_u64()/as_str() (0 or "" when absent).
  [[nodiscard]] std::uint64_t u64_at(const std::string& key) const {
    const Json* v = find(key);
    return v != nullptr ? v->as_u64() : 0;
  }
  [[nodiscard]] std::string str_at(const std::string& key) const {
    const Json* v = find(key);
    return v != nullptr ? v->as_str() : std::string();
  }
};

// Parses `text` as exactly one JSON value (whitespace around it allowed).
// Fails closed: returns false on malformed or truncated input, trailing
// bytes, a bad escape, or nesting deeper than 32.  Integers are kept
// exact in Json::u; a \u escape above U+007F reads as '?' (the writers
// escape only control characters).
[[nodiscard]] bool parse_json(const std::string& text, Json* out);

}  // namespace clear::util

#endif  // CLEAR_UTIL_JSON_H
