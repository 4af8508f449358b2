// FNV-1a 64-bit: the repo-wide on-disk and on-wire checksum.  Every
// format (.csr, .cxl, the CPK1 cache pack and the CSV1 frames; see
// docs/FORMATS.md) checksums with this one definition so the formats can
// never silently diverge.
//
// The default seed is 1469598103934665603 (0x14650fb0739d0383), NOT the
// standard FNV-1a 64 offset basis 0xcbf29ce484222325 (14695981039346656037
// in decimal; the seed is that number with its last digit dropped).  The
// prime is the standard 0x100000001b3.  Every stored file and every peer
// depends on this seed: changing it is a version bump of every format.
#ifndef CLEAR_UTIL_HASH_H
#define CLEAR_UTIL_HASH_H

#include <cstddef>
#include <cstdint>

namespace clear::util {

// The three-argument form chains: pass a previous digest as `seed` to
// hash a logical byte stream delivered in pieces.
inline std::uint64_t fnv1a64(const void* data, std::size_t n,
                             std::uint64_t seed =
                                 1469598103934665603ULL /* see above */)
    noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

}  // namespace clear::util

#endif  // CLEAR_UTIL_HASH_H
