// Minimal RAII socket wrapper for the `clear serve` shard-worker daemon
// (POSIX only, matching the repo's Linux cluster targets).
//
// Two transports, both local-machine by design:
//   * AF_UNIX stream sockets (`--socket path`) -- the default for
//     same-host drivers and the loopback e2e tests;
//   * TCP on 127.0.0.1 (`--port N`) -- for port-forwarded/tunnelled
//     drivers.  The listener binds the loopback interface only; exposing
//     a daemon beyond the host is an explicit operator decision (ssh -L
//     and friends), not a default.
//
// All I/O is blocking with explicit poll-based readiness (readable());
// send() uses MSG_NOSIGNAL so a vanished peer surfaces as an error
// return, never SIGPIPE.
#ifndef CLEAR_UTIL_SOCKET_H
#define CLEAR_UTIL_SOCKET_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace clear::util {

class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  // Listeners.  Throw std::runtime_error (with errno text) on failure.
  // listen_unix unlinks a stale socket file at `path` first; the caller
  // owns removing the file after shutdown.
  static Socket listen_unix(const std::string& path, int backlog = 16);
  static Socket listen_tcp_loopback(std::uint16_t port, int backlog = 16);

  // Clients.  Throw std::runtime_error on failure; connect_* retry
  // ECONNREFUSED/ENOENT for up to `retry_ms` (daemon startup race).
  static Socket connect_unix(const std::string& path, int retry_ms = 0);
  static Socket connect_tcp_loopback(std::uint16_t port, int retry_ms = 0);

  // Blocking accept on a listener.  Returns an invalid socket when the
  // wait timed out (timeout_ms >= 0) or the listener was closed.
  Socket accept(int timeout_ms = -1);

  // True when data (or EOF) is ready within timeout_ms (0 = poll).
  [[nodiscard]] bool readable(int timeout_ms);

  // Waits up to timeout_ms for data (or EOF) on any of `count` sockets;
  // returns the index of the first ready one, or -1 on timeout.  Null or
  // invalid entries are skipped -- the fleet driver polls its whole
  // worker registry, dead connections included, with one call.
  static int wait_any(const Socket* const* socks, std::size_t count,
                      int timeout_ms);
  // A connected pair of local sockets: a byte sent on one end wakes a
  // wait_any() that includes the other.  Throws std::runtime_error on
  // failure.
  static std::pair<Socket, Socket> pair();

  // Writes the whole buffer; false on any error.  With timeout_ms >= 0
  // the call fails once that much time passes without the peer draining
  // its socket buffer -- a server must bound its sends, or one stalled
  // client that stops reading wedges the daemon in ::send() forever.
  bool send_all(const void* data, std::size_t len, int timeout_ms = -1);
  // One read of up to `len` bytes.  Returns bytes read, 0 on EOF, -1 on
  // error.
  long recv_some(void* data, std::size_t len);

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  void close();

 private:
  int fd_ = -1;
};

}  // namespace clear::util

#endif  // CLEAR_UTIL_SOCKET_H
