// Test-side oracle for opening a campaign cache pack.
//
// inject::CachePack finds records by walking their headers and checksums
// each payload only when it is first served, or when stats() or
// compaction asks.  This header is the open that checked everything up
// front: read the whole pack, walk it, take a record only when both its
// header and its payload checksum verify, quarantine the rest (skipping
// by the header's length when the header is intact, hunting for the next
// magic byte by byte otherwise), later intact records winning.  Whatever
// order the lazy pack is served and asked in, its stats() and every
// payload it serves must be this open's.
#ifndef CLEAR_TESTS_EAGER_OPEN_ORACLE_H
#define CLEAR_TESTS_EAGER_OPEN_ORACLE_H

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include "util/hash.h"

namespace clear::testref {

struct EagerOpen {
  std::size_t records = 0;
  std::size_t quarantined = 0;
  std::map<std::uint64_t, std::string> payloads;  // fingerprint -> served
};

inline EagerOpen eager_open(const std::string& pack_path) {
  constexpr std::size_t kHeader = 36;
  std::ifstream in(pack_path, std::ios::binary);
  const std::string buf((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const auto u32 = [&](std::size_t at) {
    std::uint32_t v = 0;
    std::memcpy(&v, buf.data() + at, 4);
    return v;
  };
  const auto u64 = [&](std::size_t at) {
    std::uint64_t v = 0;
    std::memcpy(&v, buf.data() + at, 8);
    return v;
  };
  EagerOpen out;
  std::size_t pos = 0;
  bool in_bad_region = false;
  while (pos + kHeader <= buf.size()) {
    const std::uint32_t key_len = u32(pos + 4);
    const std::uint32_t payload_len = u32(pos + 8);
    const bool header_ok =
        buf.compare(pos, 4, "CPK1") == 0 &&
        u64(pos + 28) == util::fnv1a64(buf.data() + pos, 28) &&
        key_len <= (1u << 16) && payload_len <= (1u << 30) &&
        pos + kHeader + key_len + payload_len <= buf.size();
    if (!header_ok) {
      if (!in_bad_region) {
        ++out.quarantined;
        in_bad_region = true;
      }
      pos = buf.find('C', pos + 1);
      if (pos == std::string::npos) break;
      continue;
    }
    in_bad_region = false;
    const char* payload = buf.data() + pos + kHeader + key_len;
    if (util::fnv1a64(payload, payload_len) == u64(pos + 20)) {
      out.payloads[u64(pos + 12)].assign(payload, payload_len);
    } else {
      ++out.quarantined;
    }
    pos += kHeader + key_len + payload_len;
  }
  out.records = out.payloads.size();
  return out;
}

}  // namespace clear::testref

#endif  // CLEAR_TESTS_EAGER_OPEN_ORACLE_H
