#include "engine/protocol.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/json.h"

namespace clear::serve {

namespace {

// Types 2 and 3 (v2's job/cancel), 11 (v3's steal) and 5 (v5's
// progress) are retired: refused like any unknown.
bool known_type(std::uint32_t t) {
  return t == static_cast<std::uint32_t>(FrameType::kHello) ||
         t == static_cast<std::uint32_t>(FrameType::kShutdown) ||
         (t >= static_cast<std::uint32_t>(FrameType::kResult) &&
          t <= static_cast<std::uint32_t>(FrameType::kShardAck));
}

}  // namespace

const char* frame_type_name(FrameType t) noexcept {
  switch (t) {
    case FrameType::kHello: return "hello";
    case FrameType::kShutdown: return "shutdown";
    case FrameType::kResult: return "result";
    case FrameType::kDone: return "done";
    case FrameType::kHeartbeat: return "heartbeat";
    case FrameType::kShardAssign: return "shard-assign";
    case FrameType::kShardAck: return "shard-ack";
  }
  return "?";
}

const char* job_outcome_name(JobOutcome o) noexcept {
  switch (o) {
    case JobOutcome::kOk: return "ok";
    case JobOutcome::kFailed: return "failed";
    case JobOutcome::kCancelled: return "cancelled";
    case JobOutcome::kBadRequest: return "bad-request";
  }
  return "?";
}

std::string encode_frame(FrameType type, const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  util::put_u32(&out, static_cast<std::uint32_t>(type));
  util::put_frame(&out, payload);
  return out;
}

FrameStatus decode_frame(std::string* buffer, Frame* out) {
  if (buffer->size() < kFrameHeaderSize) return FrameStatus::kNeedMore;
  util::ByteReader r(buffer->data(), buffer->size());
  std::uint32_t type = 0, len = 0;
  if (!r.u32(&type) || !known_type(type)) return FrameStatus::kBad;
  const FrameStatus st = util::read_frame(
      buffer->data() + 4, buffer->size() - 4, kMaxFrameLen, &len);
  if (st != FrameStatus::kOk) return st;
  out->type = static_cast<FrameType>(type);
  out->payload.assign(buffer->data() + kFrameHeaderSize, len);
  buffer->erase(0, kFrameHeaderSize + len);
  return FrameStatus::kOk;
}

bool FrameConn::send(FrameType type, const std::string& payload,
                     int timeout_ms) {
  const std::string bytes = encode_frame(type, payload);
  return sock_.send_all(bytes.data(), bytes.size(), timeout_ms);
}

FrameConn::Recv FrameConn::recv(Frame* out, int timeout_ms) {
  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(std::max(timeout_ms, 0));
  char chunk[kReadChunk];
  for (;;) {
    const FrameStatus st = decode_frame(&rx_, out);
    if (st == FrameStatus::kOk) return Recv::kFrame;
    if (st == FrameStatus::kBad) return Recv::kBad;
    int wait = -1;
    if (timeout_ms >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      wait = static_cast<int>(std::max<long long>(left.count(), 0));
    }
    // readable() is false on timeout or on a poll error; with no
    // deadline only the latter is possible, and it ends the stream.
    if (!sock_.readable(wait)) {
      return timeout_ms < 0 ? Recv::kClosed : Recv::kTimeout;
    }
    const long n = sock_.recv_some(chunk, sizeof(chunk));
    if (n <= 0) return Recv::kClosed;
    rx_.append(chunk, static_cast<std::size_t>(n));
  }
}

// ---- typed payloads --------------------------------------------------------

std::string encode_hello(const Hello& h) {
  std::string out;
  util::put_u32(&out, kHelloMagic);
  util::put_u32(&out, h.proto_version);
  util::put_u32(&out, h.wire_version);
  util::put_u32(&out, h.ledger_version);
  util::put_u32(&out, h.capacity);
  out.append(h.name);
  return out;
}

bool decode_hello(const std::string& payload, Hello* out) {
  util::ByteReader r(payload.data(), payload.size());
  std::uint32_t magic = 0;
  Hello h;
  if (!r.u32(&magic) || magic != kHelloMagic || !r.u32(&h.proto_version) ||
      !r.u32(&h.wire_version) || !r.u32(&h.ledger_version) ||
      !r.u32(&h.capacity)) {
    return false;
  }
  // The name is the remainder of the payload (v2 fixed fields are 20
  // bytes; anything after them is the worker's identity string).
  constexpr std::size_t kFixed = 5 * 4;
  h.name = payload.substr(kFixed);
  *out = h;
  return true;
}

// ---- fleet frames (v2) -----------------------------------------------------

std::string encode_shard_assign(const ShardAssign& a) {
  std::string out;
  util::put_u64(&out, a.shard_id);
  out.push_back(static_cast<char>(a.kind));
  out.append(a.text);
  return out;
}

bool decode_shard_assign(const std::string& payload, ShardAssign* out) {
  if (payload.size() < 8 + 1) return false;
  util::ByteReader r(payload.data(), payload.size());
  ShardAssign a;
  if (!r.u64(&a.shard_id)) return false;
  const auto kind = static_cast<std::uint8_t>(payload[8]);
  if (kind > static_cast<std::uint8_t>(ShardKind::kExplore)) return false;
  a.kind = static_cast<ShardKind>(kind);
  a.text = payload.substr(9);
  if (a.text.empty()) return false;  // an empty spec cannot be work
  *out = a;
  return true;
}

std::string encode_shard_ack(std::uint64_t shard_id) {
  std::string out;
  util::put_u64(&out, shard_id);
  return out;
}

bool decode_shard_ack(const std::string& payload, std::uint64_t* shard_id) {
  if (payload.size() != 8) return false;
  util::ByteReader r(payload.data(), payload.size());
  return r.u64(shard_id);
}

std::string encode_heartbeat(std::uint32_t inflight,
                             const obs::Snapshot& metrics) {
  std::string out;
  util::put_u32(&out, inflight);
  out.append(obs::to_json(metrics));
  return out;
}

bool decode_heartbeat(const std::string& payload, std::uint32_t* inflight,
                      obs::Snapshot* metrics) {
  util::ByteReader r(payload.data(), payload.size());
  util::Json doc;
  return r.u32(inflight) && util::parse_json(payload.substr(4), &doc) &&
         obs::snapshot_from_json(doc, metrics);
}

std::string encode_result(std::uint32_t index, const std::string& csr_bytes) {
  std::string out;
  util::put_u32(&out, index);
  out.append(csr_bytes);
  return out;
}

bool decode_result(const std::string& payload, std::uint32_t* index,
                   std::string* csr_bytes) {
  if (payload.size() < 4) return false;
  util::ByteReader r(payload.data(), payload.size());
  if (!r.u32(index)) return false;
  csr_bytes->assign(payload, 4, payload.size() - 4);
  return true;
}

std::string encode_done(const Done& d) {
  std::string out;
  out.push_back(static_cast<char>(d.outcome));
  out.append(d.message);
  return out;
}

bool decode_done(const std::string& payload, Done* out) {
  if (payload.empty()) return false;
  const auto o = static_cast<std::uint8_t>(payload[0]);
  if (o > static_cast<std::uint8_t>(JobOutcome::kBadRequest)) return false;
  out->outcome = static_cast<JobOutcome>(o);
  out->message = payload.substr(1);
  return true;
}

}  // namespace clear::serve
