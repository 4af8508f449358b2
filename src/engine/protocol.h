// `clear serve` wire protocol (version 7): the frame layer a shard-worker
// daemon and its driver (the fleet driver in fleet/fleet.h, which `clear
// fleet run` and `clear fleet explore` run) speak over a local stream
// socket.
//
// Every peer reads and writes through one FrameConn (below); the daemon
// itself is fleet/worker.h.
//
// The daemon turns the run -> scp -> merge workflow into a live worker: a
// driver connects, assigns shards (multi-campaign manifests in the `clear
// run --spec` grammar, or explore combo slices), hears the worker's
// heartbeats, and receives each campaign's result as `.csr` wire bytes
// (inject/wire.h) it can hand straight to `clear merge`.
// docs/FORMATS.md specifies the byte-level framing; docs/ARCHITECTURE.md
// the data flow.
//
// Design rules (shared with the on-disk formats):
//   * little-endian fixed-width integers,
//   * every payload covered by an FNV-1a checksum in its frame header --
//     a torn or corrupted stream is detected, never misparsed,
//   * versioned hello: the server opens every connection with a kHello
//     frame carrying the protocol + embedded format versions; a client
//     refuses versions it does not know instead of guessing,
//   * bounded decode: ByteReader-based parsers never read outside the
//     received payload, and frame lengths are capped (kMaxFrameLen) so a
//     hostile length field cannot demand an absurd allocation.
//
// Frame layout (all integers little-endian): a u32 FrameType, then one
// util/sealed.h frame --
//
//   type      u32   FrameType
//   len       u32   payload byte length (<= kMaxFrameLen)
//   checksum  u64   FNV-1a over the payload bytes
//   payload   len bytes (layout owned by `type`)
//
// Conversation:
//
//   server -> client   kHello                        (once, on accept; carries
//                                                     worker identity/capacity)
//   server -> client   kHeartbeat                    (periodic liveness beacon
//                                                     and metric snapshot;
//                                                     a driver declares a
//                                                     silent worker dead)
//   client -> server   kShardAssign(id, kind, ...)   (any number, pipelined;
//                                                     answered kShardAck)
//   server -> client     kShardAck(id)               (shard accepted)
//   server -> client     kResult(index, payload)*    (.csr per campaign, or one
//                                                     .cxl for explore shards)
//   server -> client     kDone(status, message)      (shard finished)
//   client -> server   kShutdown                     (server stops accepting
//                                                     after this connection)
#ifndef CLEAR_ENGINE_PROTOCOL_H
#define CLEAR_ENGINE_PROTOCOL_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "util/sealed.h"
#include "util/socket.h"

namespace clear::obs {
struct Snapshot;
}  // namespace clear::obs

namespace clear::serve {

// Current (and newest understood) serve protocol version.  v2 added the
// fleet frames (heartbeat, shard-assign, shard-ack, steal) and the worker
// identity/capacity fields in the hello.  v3 retired the job/cancel frames
// (types 2 and 3): every driver assigns shards, so a v2 client that would
// still send a job frame is refused at the hello, and a stray type-2/3
// frame decodes as kBad, never as anything else.  v4 retired the steal
// frame (type 11) and ack statuses 1 and 2 the same way: a driver
// declares a worker dead only when it falls silent, so a shard is never
// taken from a live worker.  v5 dropped the shard-assign priority byte: a
// worker runs its shards in arrival order, so a v4 peer, whose assign
// frames carry that byte, is refused at the hello.  v6 retired the
// progress frame (type 5), whose counts the heartbeat's metric snapshot
// already carries, and the shard-ack status byte, which had one value:
// a v5 peer is refused at the hello, and a stray type-5 frame decodes as
// kBad.  v7 made the heartbeat's metric snapshot a required
// clear-metrics-v1 document (the encoding --metrics-out writes) in place
// of v6's optional binary snapshot tail: a v6 peer is refused at the
// hello.
constexpr std::uint32_t kProtoVersion = 7;

// "CSV1" little-endian, carried in the hello payload: identifies a clear
// serve stream (CSR/CXL/CPK are files; CSV is the socket).
constexpr std::uint32_t kHelloMagic = 0x31565343u;

// Fixed frame header size (type + len + checksum).
constexpr std::size_t kFrameHeaderSize = 4 + util::kFrameHeaderSize;

// The bound the daemon and the fleet driver put on every send: a peer
// that leaves its socket buffer full this long is treated as gone (its
// work cancelled or re-dispatched) instead of wedging the sender in an
// uninterruptible ::send().
constexpr int kSendTimeoutMs = 30'000;

// Frames carry manifests and whole .csr payloads; 256 MiB bounds the
// largest plausible campaign result with a wide margin.
constexpr std::uint32_t kMaxFrameLen = 256u << 20;

enum class FrameType : std::uint32_t {
  kHello = 1,        // server -> client, once per connection
                     // (2 and 3 were v2's job/cancel frames: retired)
  kShutdown = 4,     // client -> server: stop accepting (empty payload)
                     // (5 was v5's progress frame: retired)
  kResult = 6,       // server -> client: u32 campaign index, then .csr bytes
  kDone = 7,         // server -> client: u8 JobOutcome, then message text
  kHeartbeat = 8,    // server -> client: u32 in-flight work items, then the
                     // clear-metrics-v1 snapshot document (periodic)
  kShardAssign = 9,  // client -> server: u64 shard id, u8 kind, then the
                     // shard's spec text
  kShardAck = 10,    // server -> client: u64 shard id
                     // (11 was v3's steal frame: retired)
};

[[nodiscard]] const char* frame_type_name(FrameType t) noexcept;

// kDone statuses.
enum class JobOutcome : std::uint8_t {
  kOk = 0,          // all kResult frames delivered
  kFailed = 1,      // executor error; message carries what()
  kCancelled = 2,   // a stop signal (or connection loss) cancelled it
  kBadRequest = 3,  // manifest did not resolve; nothing simulated
};

[[nodiscard]] const char* job_outcome_name(JobOutcome o) noexcept;

struct Frame {
  FrameType type = FrameType::kHello;
  std::string payload;
};

// Incremental frame decode: kBad (unknown type too) means the stream is
// unrecoverable -- close the connection.
using FrameStatus = util::FrameStatus;

// Serializes one frame (header + payload).
[[nodiscard]] std::string encode_frame(FrameType type,
                                       const std::string& payload);

// Consumes one frame from the front of `buffer` on kOk; otherwise the
// buffer is untouched.  Never reads outside it.
[[nodiscard]] FrameStatus decode_frame(std::string* buffer, Frame* out);

// One CSV1 peer connection: the socket, its receive buffer and the one
// frame loop every peer reads with -- the daemon, the fleet driver and
// `clear status`.
class FrameConn {
 public:
  enum class Recv : std::uint8_t {
    kFrame,    // *out holds the next frame
    kTimeout,  // no whole frame in time; buffered bytes are kept
    kClosed,   // EOF or receive error (mid-frame bytes are lost)
    kBad,      // decode_frame said kBad: the stream is unrecoverable
  };

  FrameConn() = default;
  explicit FrameConn(util::Socket sock) : sock_(std::move(sock)) {}

  // Encodes and sends one frame.  timeout_ms bounds how long a peer may
  // leave its socket buffer full (-1 = unbounded); false = peer gone.
  bool send(FrameType type, const std::string& payload, int timeout_ms = -1);
  // Returns the next frame, waiting up to timeout_ms for it (0 = only
  // poll, -1 = wait forever).
  Recv recv(Frame* out, int timeout_ms);

  // True while a partial frame sits in the receive buffer.
  [[nodiscard]] bool has_buffered() const noexcept { return !rx_.empty(); }
  [[nodiscard]] const util::Socket& socket() const noexcept { return sock_; }
  void close() {
    sock_.close();
    rx_.clear();
  }

 private:
  static constexpr std::size_t kReadChunk = 64 * 1024;
  util::Socket sock_;
  std::string rx_;
};

// ---- typed payloads --------------------------------------------------------

struct Hello {
  std::uint32_t proto_version = kProtoVersion;
  std::uint32_t wire_version = 0;    // inject::kWireVersion of the server
  std::uint32_t ledger_version = 0;  // explore::kLedgerVersion
  // Worker registration (v2): how much parallel work this worker can
  // absorb (its campaign thread-pool width) and a human-readable identity
  // ("host:pid" by default, `clear serve --name` to override) the fleet
  // registry keys its reporting on.
  std::uint32_t capacity = 0;
  std::string name;
};

[[nodiscard]] std::string encode_hello(const Hello& h);
[[nodiscard]] bool decode_hello(const std::string& payload, Hello* out);

// ---- fleet frames (v2) -----------------------------------------------------

// What a shard-assign asks the worker to execute.
enum class ShardKind : std::uint8_t {
  kCampaign = 0,  // spec text = `clear run --spec` manifest (one or more
                  // stanzas); results stream back as one .csr per stanza
  kExplore = 1,   // spec text = one `clear explore run` flag stanza
                  // (--shard k/K selects the combo slice); the result is
                  // a single .cxl ledger payload
};

struct ShardAssign {
  std::uint64_t shard_id = 0;  // driver-chosen, echoed in the ack
  ShardKind kind = ShardKind::kCampaign;
  std::string text;  // manifest / explore stanza (grammar owned by `kind`)
};

[[nodiscard]] std::string encode_shard_assign(const ShardAssign& a);
[[nodiscard]] bool decode_shard_assign(const std::string& payload,
                                       ShardAssign* out);

// kShardAck payload: the accepted shard's id; its kResult frames and
// kDone follow.
[[nodiscard]] std::string encode_shard_ack(std::uint64_t shard_id);
[[nodiscard]] bool decode_shard_ack(const std::string& payload,
                                    std::uint64_t* shard_id);

// kHeartbeat payload: u32 work items currently held (queued + running),
// then the worker's metric snapshot as a clear-metrics-v1 document
// (obs::to_json), which the driver and `clear status` read back.
[[nodiscard]] std::string encode_heartbeat(std::uint32_t inflight,
                                           const obs::Snapshot& metrics);
// Fails closed: false unless the tail is a clear-metrics-v1 document.
[[nodiscard]] bool decode_heartbeat(const std::string& payload,
                                    std::uint32_t* inflight,
                                    obs::Snapshot* metrics);

[[nodiscard]] std::string encode_result(std::uint32_t index,
                                        const std::string& csr_bytes);
[[nodiscard]] bool decode_result(const std::string& payload,
                                 std::uint32_t* index, std::string* csr_bytes);

struct Done {
  JobOutcome outcome = JobOutcome::kOk;
  std::string message;
};

[[nodiscard]] std::string encode_done(const Done& d);
[[nodiscard]] bool decode_done(const std::string& payload, Done* out);

}  // namespace clear::serve

#endif  // CLEAR_ENGINE_PROTOCOL_H
