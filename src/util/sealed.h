// The 32-byte sealed header the CSR1 (.csr) and CXL1 (.cxl) formats open
// with: 4-byte magic, u32 version, u64 body_len, u64 FNV-1a of the body,
// u64 FNV-1a of the 24 header bytes before it (layouts in inject/wire.h,
// explore/ledger.h and docs/FORMATS.md).  A .csr is exactly header +
// body; a .cxl appends its record region after the sealed identity body.
// Below it, the checksummed frame CXL1 records and CSV1 socket frames
// share (engine/protocol.h puts a u32 type in front).
#ifndef CLEAR_UTIL_SEALED_H
#define CLEAR_UTIL_SEALED_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "util/bytes.h"
#include "util/hash.h"

namespace clear::util {

constexpr std::size_t kSealedHeaderSize = 32;

// Mapped onto each format's own status enum by status_as.
enum class SealStatus : std::uint8_t {
  kOk,
  kBadMagic,
  kVersionUnsupported,
  kTruncated,
  kCorrupt,
};

// Returns the sealed header followed by `body`.
inline std::string seal(const unsigned char (&magic)[4], std::uint32_t version,
                        const std::string& body) {
  std::string out;
  out.reserve(kSealedHeaderSize + body.size());
  append_magic(&out, magic);
  put_u32(&out, version);
  put_u64(&out, body.size());
  put_u64(&out, fnv1a64(body.data(), body.size()));
  put_u64(&out, fnv1a64(out.data(), 24));
  out.append(body);
  return out;
}

// Checks, in this order: magic, header present, header checksum, version
// in [1, max_version], body_len <= max_body_len, body present, body
// checksum.  On kOk the body is bytes[kSealedHeaderSize, + *body_len).
inline SealStatus unseal(const std::string& bytes,
                         const unsigned char (&magic)[4],
                         std::uint32_t max_version,
                         std::uint64_t max_body_len, std::uint32_t* version,
                         std::uint64_t* body_len) {
  const unsigned char* p = byte_ptr(bytes);
  if (bytes.size() < 4) return SealStatus::kTruncated;
  if (std::memcmp(p, magic, 4) != 0) return SealStatus::kBadMagic;
  if (bytes.size() < kSealedHeaderSize) return SealStatus::kTruncated;
  ByteReader header(p + 4, kSealedHeaderSize - 4);
  std::uint64_t body_sum = 0, header_sum = 0;
  header.u32(version);
  header.u64(body_len);
  header.u64(&body_sum);
  header.u64(&header_sum);
  if (header_sum != fnv1a64(p, 24)) return SealStatus::kCorrupt;
  // The header checksum vouches for the version field: an unknown version
  // is a genuinely newer writer, not bit rot.
  if (*version == 0 || *version > max_version) {
    return SealStatus::kVersionUnsupported;
  }
  if (*body_len > max_body_len) return SealStatus::kCorrupt;
  if (bytes.size() < kSealedHeaderSize + *body_len) {
    return SealStatus::kTruncated;
  }
  if (fnv1a64(p + kSealedHeaderSize, *body_len) != body_sum) {
    return SealStatus::kCorrupt;
  }
  return SealStatus::kOk;
}

template <class Status>
Status status_as(SealStatus s) {
  switch (s) {
    case SealStatus::kOk: return Status::kOk;
    case SealStatus::kBadMagic: return Status::kBadMagic;
    case SealStatus::kVersionUnsupported: return Status::kVersionUnsupported;
    case SealStatus::kTruncated: return Status::kTruncated;
    case SealStatus::kCorrupt: return Status::kCorrupt;
  }
  return Status::kCorrupt;
}

// A frame: u32 payload length, u64 FNV-1a of the payload, the payload.
constexpr std::size_t kFrameHeaderSize = 12;

// kBad: a length over the cap or a checksum mismatch, never a frame.
enum class FrameStatus : std::uint8_t { kOk, kNeedMore, kBad };

inline void put_frame(std::string* out, const std::string& payload) {
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u64(out, fnv1a64(payload.data(), payload.size()));
  out->append(payload);
}

// Reads the frame at the front of [p, p + n), never past it.  On kOk the
// payload is the *len bytes kFrameHeaderSize in.
inline FrameStatus read_frame(const char* p, std::size_t n,
                              std::uint32_t max_len, std::uint32_t* len) {
  ByteReader r(p, n);
  std::uint64_t sum = 0;
  if (!r.u32(len)) return FrameStatus::kNeedMore;
  if (*len > max_len) return FrameStatus::kBad;
  if (!r.u64(&sum) || r.remaining() < *len) return FrameStatus::kNeedMore;
  return fnv1a64(p + kFrameHeaderSize, *len) == sum ? FrameStatus::kOk
                                                    : FrameStatus::kBad;
}

}  // namespace clear::util

#endif  // CLEAR_UTIL_SEALED_H
