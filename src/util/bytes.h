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
#ifndef CLEAR_UTIL_BYTES_H
#define CLEAR_UTIL_BYTES_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace clear::util {

inline void put_u32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>(static_cast<unsigned char>(v >> (8 * i))));
  }
}

inline void put_u64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>(static_cast<unsigned char>(v >> (8 * i))));
  }
}

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

class ByteReader {
 public:
  ByteReader(const unsigned char* p, std::size_t n) : p_(p), n_(n) {}
  ByteReader(const char* p, std::size_t n)
      : p_(reinterpret_cast<const unsigned char*>(p)), n_(n) {}

  bool u32(std::uint32_t* v) {
    if (pos_ + 4 > n_) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<std::uint32_t>(p_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return true;
  }
  bool u64(std::uint64_t* v) {
    if (pos_ + 8 > n_) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<std::uint64_t>(p_[pos_ + i]) << (8 * i);
    }
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
  [[nodiscard]] bool exhausted() const { return pos_ == n_; }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return n_ - pos_; }

 private:
  const unsigned char* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
};

}  // namespace clear::util

#endif  // CLEAR_UTIL_BYTES_H
