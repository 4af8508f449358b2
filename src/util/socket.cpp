#include "util/socket.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <stdexcept>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

namespace clear::util {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

// One connect attempt; returns -1 with errno set on failure.
int try_connect(const sockaddr* addr, socklen_t len, int family) {
  const int fd = ::socket(family, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, addr, len) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  return fd;
}

Socket connect_with_retry(const sockaddr* addr, socklen_t len, int family,
                          int retry_ms, const std::string& what) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(retry_ms);
  // Exponential backoff: hammer a just-starting daemon gently (10 ms) and
  // a still-absent one sparsely (capped at 320 ms), always respecting the
  // caller's hard deadline.
  int backoff_ms = 10;
  for (;;) {
    const int fd = try_connect(addr, len, family);
    if (fd >= 0) return Socket(fd);
    // The daemon may not be listening yet: retry the startup-shaped
    // failures until the deadline.
    const bool retryable =
        errno == ECONNREFUSED || errno == ENOENT || errno == EAGAIN;
    if (!retryable || std::chrono::steady_clock::now() >= deadline) {
      fail(what);
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    const int wait = static_cast<int>(std::min<long long>(
        std::max<long long>(left.count(), 1), backoff_ms));
    std::this_thread::sleep_for(std::chrono::milliseconds(wait));
    backoff_ms = std::min(backoff_ms * 2, 320);
  }
}

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  // lint: allow(wire-safety): sockaddr_un path copy, length checked against sizeof(sun_path) above
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in make_loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket Socket::listen_unix(const std::string& path, int backlog) {
  const sockaddr_un addr = make_unix_addr(path);
  ::unlink(path.c_str());  // stale socket from a crashed daemon
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) fail("socket(AF_UNIX)");
  // lint: allow(wire-safety): sockaddr cast required by the POSIX bind() signature, not payload decode
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("bind(" + path + ")");
  }
  if (::listen(fd, backlog) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("listen(" + path + ")");
  }
  return Socket(fd);
}

Socket Socket::listen_tcp_loopback(std::uint16_t port, int backlog) {
  const sockaddr_in addr = make_loopback_addr(port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // lint: allow(wire-safety): sockaddr cast required by the POSIX bind() signature, not payload decode
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("bind(127.0.0.1:" + std::to_string(port) + ")");
  }
  if (::listen(fd, backlog) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("listen(127.0.0.1:" + std::to_string(port) + ")");
  }
  return Socket(fd);
}

Socket Socket::connect_unix(const std::string& path, int retry_ms) {
  const sockaddr_un addr = make_unix_addr(path);
  // lint: allow(wire-safety): sockaddr cast required by the POSIX connect() signature, not payload decode
  return connect_with_retry(reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr), AF_UNIX, retry_ms,
                            "connect(" + path + ")");
}

Socket Socket::connect_tcp_loopback(std::uint16_t port, int retry_ms) {
  const sockaddr_in addr = make_loopback_addr(port);
  // lint: allow(wire-safety): sockaddr cast required by the POSIX connect() signature, not payload decode
  return connect_with_retry(reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr), AF_INET, retry_ms,
                            "connect(127.0.0.1:" + std::to_string(port) + ")");
}

Socket Socket::accept(int timeout_ms) {
  if (timeout_ms >= 0 && !readable(timeout_ms)) return Socket();
  const int fd = ::accept(fd_, nullptr, nullptr);
  return fd >= 0 ? Socket(fd) : Socket();
}

std::pair<Socket, Socket> Socket::pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    fail("socketpair");
  }
  return {Socket(fds[0]), Socket(fds[1])};
}

int Socket::wait_any(const Socket* const* socks, std::size_t count,
                     int timeout_ms) {
  std::vector<pollfd> fds(count);
  for (std::size_t i = 0; i < count; ++i) {
    fds[i].fd = socks[i] != nullptr && socks[i]->valid() ? socks[i]->fd() : -1;
    fds[i].events = POLLIN;
  }
  for (;;) {
    const int rc = ::poll(fds.data(), static_cast<nfds_t>(count), timeout_ms);
    if (rc == 0) return -1;
    if (rc < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    for (std::size_t i = 0; i < count; ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        return static_cast<int>(i);
      }
    }
    return -1;  // only invalid fds became "ready" (POLLNVAL): nothing to read
  }
}

bool Socket::readable(int timeout_ms) {
  pollfd p{};
  p.fd = fd_;
  p.events = POLLIN;
  for (;;) {
    const int rc = ::poll(&p, 1, timeout_ms);
    if (rc > 0) return (p.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
    if (rc == 0) return false;
    if (errno != EINTR) return false;
  }
}

bool Socket::send_all(const void* data, std::size_t len, int timeout_ms) {
  const char* p = static_cast<const char*>(data);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (len > 0) {
    // Non-blocking sends + poll-for-writable keeps the wait bounded: a
    // blocking ::send() to a peer that stopped reading is uninterruptible
    // by anything but SIGKILL once the socket buffer fills.
    const ssize_t n = ::send(fd_, p, len, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      p += n;
      len -= static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return false;
    }
    int wait = 200;
    if (timeout_ms >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return false;  // peer not draining: give up
      wait = static_cast<int>(std::min<long long>(left.count(), 200));
    }
    pollfd pf{};
    pf.fd = fd_;
    pf.events = POLLOUT;
    ::poll(&pf, 1, wait);  // EINTR/timeout: loop re-checks the deadline
  }
  return true;
}

long Socket::recv_some(void* data, std::size_t len) {
  for (;;) {
    const ssize_t n = ::recv(fd_, data, len, 0);
    if (n >= 0) return static_cast<long>(n);
    if (errno != EINTR) return -1;
  }
}

}  // namespace clear::util
