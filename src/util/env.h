// Environment-variable knobs.  None of them changes a result: .csr/.cxl
// bytes are a function of the campaign or explore stanza alone.
//
//   CLEAR_THREADS             - worker threads for campaigns and for
//                               exploration combo evaluation (<= 0 =
//                               hardware, at most 256; read by
//                               util::env_threads in util/threadpool.h)
//   CLEAR_CACHE_DIR           - campaign cache directory ("" disables)
//   CLEAR_CACHE_MAX_BYTES     - campaign cache pack byte budget; exceeding
//                               it evicts least-recently-used entries
//                               (0 = unlimited; accepts K/M/G suffixes)
//   CLEAR_METRICS             - 0 disables the obs/ metrics registry at
//                               process start (default 1)
#ifndef CLEAR_UTIL_ENV_H
#define CLEAR_UTIL_ENV_H

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <system_error>

namespace clear::util {

inline long env_long(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  return (end != nullptr && end != v) ? parsed : fallback;
}

// The one unsigned number grammar of flags, endpoints, shard specs and
// byte counts: decimal digits only -- no sign, no whitespace, nothing
// after the digits, at most 2^64 - 1.  Returns false on anything else.
inline bool parse_u64(std::string_view text, std::uint64_t* out) {
  const char* const end = text.data() + text.size();
  std::uint64_t parsed = 0;
  const auto [next, ec] = std::from_chars(text.data(), end, parsed);
  if (ec != std::errc() || next != end) return false;
  *out = parsed;
  return true;
}

// Byte-count grammar shared by the env knob and the CLI's --max-bytes:
// a parse_u64 number, optionally suffixed with K/M/G (powers of 1024,
// case-insensitive), whose product fits in 64 bits.  Returns false on
// malformed input.
inline bool parse_bytes(std::string_view text, std::uint64_t* out) {
  unsigned shift = 0;
  switch (text.empty() ? '\0' : text.back()) {
    case 'k': case 'K': shift = 10; break;
    case 'm': case 'M': shift = 20; break;
    case 'g': case 'G': shift = 30; break;
    default: break;
  }
  if (shift != 0) text.remove_suffix(1);
  std::uint64_t n = 0;
  if (!parse_u64(text, &n) || n > (~std::uint64_t{0} >> shift)) return false;
  *out = n << shift;
  return true;
}

// Byte-count knob; malformed or unset values fall back.
inline std::uint64_t env_bytes(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  std::uint64_t bytes = 0;
  return parse_bytes(v, &bytes) ? bytes : fallback;
}

inline std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : fallback;
}

}  // namespace clear::util

#endif  // CLEAR_UTIL_ENV_H
