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

#include <cstdint>
#include <cstdlib>
#include <string>

namespace clear::util {

inline long env_long(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  return (end != nullptr && end != v) ? parsed : fallback;
}

// Byte-count grammar shared by the env knob and the CLI's --max-bytes:
// a plain number, optionally suffixed with K/M/G (powers of 1024,
// case-insensitive).  Returns false on malformed input.
inline bool parse_bytes(const char* v, std::uint64_t* out) {
  if (v == nullptr || *v == '\0') return false;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == nullptr || end == v) return false;
  std::uint64_t scale = 1;
  switch (*end) {
    case 'k': case 'K': scale = 1ULL << 10; ++end; break;
    case 'm': case 'M': scale = 1ULL << 20; ++end; break;
    case 'g': case 'G': scale = 1ULL << 30; ++end; break;
    default: break;
  }
  if (*end != '\0') return false;
  *out = static_cast<std::uint64_t>(parsed) * scale;
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
