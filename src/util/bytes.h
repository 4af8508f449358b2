// Little-endian byte encoding shared by the on-disk binary formats (the
// CSR1 shard-result wire format, the CXL1 exploration ledger and the CPK1
// cache pack).
//
// Writers append fixed-width little-endian integers to a std::string;
// ByteReader is the bounded decoder: every read checks the remaining
// length, so a damaged length field can never walk outside the supplied
// buffer (checksums fail closed first, but decoding stays safe even on
// crafted bytes).  Doubles travel as their IEEE-754 bit patterns --
// byte-identical across hosts, which the bit-identical merge guarantees
// rely on.
//
// Large fixed-width runs (a shard's per-FF counters) go through
// BlockWriter and ByteReader::block: the length is checked once for the
// whole run instead of once per field.
#ifndef CLEAR_UTIL_BYTES_H
#define CLEAR_UTIL_BYTES_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace clear::util {

// Fixed-width little-endian stores and loads over raw bytes.  Written
// as shifts so the byte order never depends on the host; compilers fold
// each into a single move on little-endian targets.
inline void store_u32(unsigned char* p, std::uint32_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
  p[2] = static_cast<unsigned char>(v >> 16);
  p[3] = static_cast<unsigned char>(v >> 24);
}

inline void store_u64(unsigned char* p, std::uint64_t v) {
  store_u32(p, static_cast<std::uint32_t>(v));
  store_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

inline std::uint32_t load_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

inline std::uint64_t load_u64(const unsigned char* p) {
  return static_cast<std::uint64_t>(load_u32(p)) |
         static_cast<std::uint64_t>(load_u32(p + 4)) << 32;
}

inline void put_u32(std::string* out, std::uint32_t v) {
  unsigned char b[4];
  store_u32(b, v);
  out->append(reinterpret_cast<const char*>(b), sizeof(b));
}

inline void put_u64(std::string* out, std::uint64_t v) {
  unsigned char b[8];
  store_u64(b, v);
  out->append(reinterpret_cast<const char*>(b), sizeof(b));
}

// Appends an `n`-byte block to `out` and fills it with fixed-width
// stores: one growth of the string for the whole block instead of one
// per field.  The caller writes exactly `n` bytes and leaves `out` alone
// until then (the writer points into its buffer).
class BlockWriter {
 public:
  BlockWriter(std::string* out, std::size_t n) {
    const std::size_t at = out->size();
    out->resize(at + n);
    p_ = reinterpret_cast<unsigned char*>(&(*out)[0]) + at;
    end_ = p_ + n;
  }
  BlockWriter(const BlockWriter&) = delete;
  BlockWriter& operator=(const BlockWriter&) = delete;
  ~BlockWriter() { assert(p_ == end_); }

  void u32(std::uint32_t v) {
    assert(end_ - p_ >= 4);
    store_u32(p_, v);
    p_ += 4;
  }
  void u64(std::uint64_t v) {
    assert(end_ - p_ >= 8);
    store_u64(p_, v);
    p_ += 8;
  }

 private:
  unsigned char* p_;
  unsigned char* end_;
};

// Length-prefixed (u32) string.
inline void put_str(std::string* out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out->append(s);
}

// IEEE-754 bit punning.  This header is the one sanctioned home for the
// raw memcpy: wire formats store doubles as u64 bit patterns so equal
// results are equal bytes on every host (and the wire-safety lint flags
// any puns that bypass these helpers).
inline std::uint64_t f64_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

inline double bits_f64(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// IEEE-754 bit pattern, little-endian.
inline void put_f64(std::string* out, double d) { put_u64(out, f64_bits(d)); }

// The byte view of a string buffer: the sole sanctioned cast feeding the
// bounded ByteReader (and magic-number memcmp checks) in decode paths.
inline const unsigned char* byte_ptr(const std::string& s) {
  return reinterpret_cast<const unsigned char*>(s.data());
}

// Appends a 4-byte format magic (encode-side mirror of the memcmp check).
inline void append_magic(std::string* out, const unsigned char (&magic)[4]) {
  out->append(reinterpret_cast<const char*>(magic), 4);
}

// A run of bytes a ByteReader has already bounds-checked as a whole
// (ByteReader::block): fixed-width reads inside it check nothing more.
// The caller reads at most the bytes it claimed.
class ByteBlock {
 public:
  ByteBlock() = default;

  std::uint32_t u32() {
    assert(end_ - p_ >= 4);
    const std::uint32_t v = load_u32(p_);
    p_ += 4;
    return v;
  }
  std::uint64_t u64() {
    assert(end_ - p_ >= 8);
    const std::uint64_t v = load_u64(p_);
    p_ += 8;
    return v;
  }

 private:
  friend class ByteReader;
  ByteBlock(const unsigned char* p, std::size_t n) : p_(p), end_(p + n) {}

  const unsigned char* p_ = nullptr;
  const unsigned char* end_ = nullptr;
};

class ByteReader {
 public:
  ByteReader(const unsigned char* p, std::size_t n) : p_(p), n_(n) {}
  ByteReader(const char* p, std::size_t n)
      : p_(reinterpret_cast<const unsigned char*>(p)), n_(n) {}

  bool u32(std::uint32_t* v) {
    if (remaining() < 4) return false;
    *v = load_u32(p_ + pos_);
    pos_ += 4;
    return true;
  }
  bool u64(std::uint64_t* v) {
    if (remaining() < 8) return false;
    *v = load_u64(p_ + pos_);
    pos_ += 8;
    return true;
  }
  // `max_len` bounds the decoded string so one flipped length byte cannot
  // demand a giant allocation; the default is the CSR1/CXL1 field bound.
  bool str(std::string* s, std::uint32_t max_len = 1u << 16) {
    std::uint32_t len = 0;
    if (!u32(&len) || len > max_len || pos_ + len > n_) return false;
    s->assign(reinterpret_cast<const char*>(p_ + pos_), len);
    pos_ += len;
    return true;
  }
  bool f64(double* d) {
    std::uint64_t bits = 0;
    if (!u64(&bits)) return false;
    std::memcpy(d, &bits, sizeof(*d));
    return true;
  }
  // Claims the next `n` bytes as one block; false, consuming nothing,
  // when fewer remain.
  bool block(std::size_t n, ByteBlock* out) {
    if (remaining() < n) return false;
    *out = ByteBlock(p_ + pos_, n);
    pos_ += n;
    return true;
  }
  [[nodiscard]] bool exhausted() const { return pos_ == n_; }
  [[nodiscard]] std::size_t remaining() const { return n_ - pos_; }

 private:
  const unsigned char* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
};

}  // namespace clear::util

#endif  // CLEAR_UTIL_BYTES_H
