// `clear serve`: flag handling for the shard-worker daemon.  It parses
// flags, installs the SIGTERM/SIGINT handler and runs a fleet::Worker
// (src/fleet/worker.h) on the listening socket -- or, with `--workers N`,
// fans out N child daemons re-exec'd from this binary for whole-machine
// fleets.  Its driver, `clear fleet`, lives in cli_fleet.cpp.
//
// Protocol: engine/protocol.h; framing bytes in docs/FORMATS.md; flags
// in docs/CONFIG.md.
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "cli/cli.h"
#include "fleet/worker.h"
#include "util/args.h"
#include "util/socket.h"

namespace clear::cli {

namespace {

// Written by the signal handler on whichever thread the kernel picks,
// read by the fan-out reaper and every worker connection thread: must be
// a lock-free atomic, not volatile sig_atomic_t (that idiom is only safe
// in single-threaded programs; TSan flags it in the thread-per-
// connection daemon, and the store could genuinely be torn or deferred
// on weaker memory models).
std::atomic<int> g_stop{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "signal handler requires a lock-free atomic");
void on_signal(int) { g_stop.store(1); }

std::string default_worker_name() {
  char host[256] = "worker";
  if (::gethostname(host, sizeof(host)) != 0) {
    std::strcpy(host, "worker");
  }
  host[sizeof(host) - 1] = '\0';
  return std::string(host) + ":" + std::to_string(::getpid());
}

// ---- `clear serve --workers N` child fan-out -------------------------------

// Forks N child daemons, each exec'd from /proc/self/exe with its own
// socket (path.i / port+i) and identity (name#i), then reaps them,
// forwarding SIGTERM/SIGINT.  Children are full processes: a fleet test
// can SIGKILL one without touching its siblings, and each child's argv
// names its socket (pkill-able).
int serve_fanout(int workers, bool have_socket, const std::string& base_path,
                 std::uint16_t base_port, int heartbeat_ms,
                 const std::string& base_name, bool quiet) {
  char exe[4096];
  const ssize_t exe_len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (exe_len <= 0) {
    std::fprintf(stderr, "clear serve: cannot resolve /proc/self/exe\n");
    return 1;
  }
  exe[exe_len] = '\0';

  std::vector<pid_t> pids;
  for (int i = 0; i < workers; ++i) {
    std::vector<std::string> argv_store = {exe, "serve"};
    if (have_socket) {
      argv_store.push_back("--socket");
      argv_store.push_back(base_path + "." + std::to_string(i));
    } else {
      argv_store.push_back("--port");
      argv_store.push_back(std::to_string(base_port + i));
    }
    argv_store.push_back("--heartbeat-ms");
    argv_store.push_back(std::to_string(heartbeat_ms));
    argv_store.push_back("--name");
    argv_store.push_back(base_name + "#" + std::to_string(i));
    if (quiet) argv_store.push_back("--quiet");

    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "clear serve: fork failed\n");
      for (const pid_t p : pids) ::kill(p, SIGTERM);
      for (const pid_t p : pids) ::waitpid(p, nullptr, 0);
      return 1;
    }
    if (pid == 0) {
      std::vector<char*> argv;
      argv.reserve(argv_store.size() + 1);
      for (std::string& s : argv_store) argv.push_back(s.data());
      argv.push_back(nullptr);
      ::execv(exe, argv.data());
      std::fprintf(stderr, "clear serve: exec failed\n");
      ::_exit(127);
    }
    pids.push_back(pid);
  }
  if (!quiet) {
    std::printf("serve      fanned out %d workers (%s base %s)\n", workers,
                have_socket ? "socket" : "port",
                have_socket ? base_path.c_str()
                            : std::to_string(base_port).c_str());
    std::fflush(stdout);
  }

  std::size_t live = pids.size();
  bool forwarded = false;
  while (live > 0) {
    if (g_stop.load() != 0 && !forwarded) {
      for (const pid_t p : pids) ::kill(p, SIGTERM);
      forwarded = true;
    }
    int status = 0;
    const pid_t r = ::waitpid(-1, &status, WNOHANG);
    if (r > 0) {
      --live;
      continue;
    }
    if (r < 0 && errno == ECHILD) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (!quiet) std::printf("serve      all workers exited\n");
  return 0;
}

}  // namespace

int cmd_serve(int argc, const char* const* argv) {
  util::ArgParser args(
      "clear serve (--socket <path> | --port <N>) [options]",
      "Runs a shard-worker daemon: accepts shard assignments (manifests in\n"
      "the 'clear run --spec' grammar, or explore stanzas) over a local\n"
      "stream socket, executes them on the process-wide job engine,\n"
      "sends periodic heartbeats, and returns each campaign's .csr\n"
      "wire bytes (or a .cxl ledger for explore shards).\n"
      "Each connection is serviced on its own thread; 'clear fleet run'\n"
      "and 'clear fleet explore' are the matching drivers.");
  args.add_option("socket", "path", "listen on a UNIX stream socket");
  args.add_option("port", "N", "listen on 127.0.0.1:N instead");
  args.add_option("heartbeat-ms", "N",
                  "milliseconds between heartbeats, > 0 (keep it below the "
                  "driver's --dead-after-ms)",
                  "1000");
  args.add_option("name", "id",
                  "worker identity in the hello (default host:pid)");
  args.add_option("workers", "N",
                  "fan out N child daemons on socket path.0..N-1 (or\n"
                  "port..port+N-1) and reap them", "0");
  args.add_flag("quiet", "suppress per-job log lines");

  int rc = 0;
  if (!parse_verb(args, argc, argv, "clear serve", &rc)) return rc;
  const bool have_socket = args.has("socket");
  const bool have_port = args.has("port");
  if (have_socket == have_port) {
    std::fprintf(stderr,
                 "clear serve: exactly one of --socket or --port required\n%s",
                 args.help().c_str());
    return 2;
  }
  std::uint64_t port = 0, workers = 0;
  int heartbeat_ms = 1000;
  if (!args.get_u64("port", 0, &port) || port > 65535 ||
      !args.get_ms("heartbeat-ms", 1000, &heartbeat_ms) ||
      !args.get_u64("workers", 0, &workers) || workers > 1024) {
    std::fprintf(stderr, "clear serve: bad numeric flag value\n");
    return 2;
  }
  if (heartbeat_ms == 0) {
    std::fprintf(stderr,
                 "clear serve: --heartbeat-ms must be above 0: heartbeats "
                 "are a worker's one liveness signal\n");
    return 2;
  }
  const bool quiet = args.has("quiet");
  const std::string name =
      args.has("name") ? args.get("name") : default_worker_name();

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  if (workers > 0) {
    if (workers > 0 && have_port && port + workers - 1 > 65535) {
      std::fprintf(stderr, "clear serve: --workers runs past port 65535\n");
      return 2;
    }
    return serve_fanout(static_cast<int>(workers), have_socket,
                        args.get("socket"),
                        static_cast<std::uint16_t>(port), heartbeat_ms, name,
                        quiet);
  }

  util::Socket listener;
  try {
    listener = have_socket
                   ? util::Socket::listen_unix(args.get("socket"))
                   : util::Socket::listen_tcp_loopback(
                         static_cast<std::uint16_t>(port));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "clear serve: %s\n", e.what());
    return 1;
  }
  if (!quiet) {
    if (have_socket) {
      std::printf("serve      listening on %s (worker '%s')\n",
                  args.get("socket").c_str(), name.c_str());
    } else {
      std::printf("serve      listening on 127.0.0.1:%llu (worker '%s')\n",
                  static_cast<unsigned long long>(port), name.c_str());
    }
    std::fflush(stdout);
  }
  fleet::WorkerOptions opts;
  opts.hello = fleet::worker_hello(name);
  opts.quiet = quiet;
  opts.heartbeat_ms = heartbeat_ms;
  opts.stop = &g_stop;
  fleet::Worker worker(std::move(opts));
  worker.serve(&listener);
  listener.close();
  if (have_socket) std::remove(args.get("socket").c_str());
  if (!quiet) std::printf("serve      exiting\n");
  return 0;
}

}  // namespace clear::cli
