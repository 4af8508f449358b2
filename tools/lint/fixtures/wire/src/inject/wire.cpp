// Seeded wire-safety violations: raw decodes of payload bytes that must
// each be caught (this path matches the checker's wire-file set).  The
// annotated site at the bottom must NOT be reported.
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace fixture {

struct Header {
  std::uint32_t version;
  std::uint32_t body_len;
};

bool decode_header(const std::string& payload, Header* out) {
  if (payload.size() < sizeof(Header)) return false;
  // VIOLATION reinterpret_cast over payload bytes
  const Header* h = reinterpret_cast<const Header*>(payload.data());
  // VIOLATION raw memcpy decode
  std::memcpy(out, payload.data(), sizeof(Header));
  // VIOLATION raw memmove decode
  std::memmove(out, payload.data(), sizeof(Header));
  return h->version == 1;
}

struct Counts {
  std::uint32_t vanished, omm, ut, hang, ed, recovered;
};

// Bulk encode of a counter block by punning the struct array: the bytes
// would follow the host's byte order and padding, not the format.
void encode_block(std::string* body, const std::vector<Counts>& per_ff) {
  // VIOLATION bulk reinterpret_cast append of a struct array
  body->append(reinterpret_cast<const char*>(per_ff.data()),
               per_ff.size() * sizeof(Counts));
  const std::size_t at = body->size();
  body->resize(at + per_ff.size() * sizeof(Counts));
  // VIOLATION bulk memcpy into the body
  std::memcpy(&(*body)[at], per_ff.data(), per_ff.size() * sizeof(Counts));
}

bool annotated_decode(const std::string& payload, std::uint64_t* out) {
  if (payload.size() < sizeof(*out)) return false;
  // lint: allow(wire-safety): length checked on the line above; fixture
  std::memcpy(out, payload.data(), sizeof(*out));
  return true;
}

}  // namespace fixture
