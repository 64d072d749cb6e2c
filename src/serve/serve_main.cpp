// relsched_serve -- fault-tolerant multi-session synthesis service.
//
// Usage:
//   relsched_serve --socket PATH --state-dir DIR [options]
//
// Options:
//   --max-live N          live session cap before LRU eviction (64)
//   --max-connections N   concurrent connection cap (128)
//   --max-pending N       pending-request cap per session (8)
//   --max-pending-total N pending-request cap for the server (256)
//   --deadline-ms N       per-request deadline, 0 = none (5000)
//   --retry-after-ms N    backoff suggested in RETRY_AFTER replies (20)
//   --certify / --no-certify
//                         baseline certification for healthy sessions
//                         (default: RELSCHED_CERTIFY)
//
// Replication (see docs/algorithms.md, "Replication and failover"):
//   --standby             refuse session verbs until a "promote" op;
//                         accept the repl_* stream from a primary
//   --replicate-to PATH   stream committed WAL records to the standby
//                         listening on this socket
//   --repl-batch-max N    records per repl_append frame (64)
//   --repl-queue-cap N    lag cap before snapshot re-ship (4096)
//   --repl-ack-ms N       semi-sync ack budget before degrading (2000)
//   --repl-io-ms N        primary->standby transport timeout (3000)
//   --repl-corrupt-at N   chaos: corrupt the Nth shipped edit record
//                         (0 = off; the digest oracle must catch it)
//
// Durability honors RELSCHED_CHECKPOINT_SYNC (always|interval|none);
// run with `always` when acknowledged edits must survive SIGKILL.
// I/O fault injection honors RELSCHED_FAULTFS (see base/fault_fs.hpp).
//
// Exit codes: 0 graceful shutdown (signal or "shutdown" op), 1 fatal
// setup failure, 2 usage error.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "serve/server.hpp"

namespace {

relsched::serve::Server* g_server = nullptr;

void on_signal(int) {
  // Async-signal-safe: shutdown() is one atomic store + one write(2).
  if (g_server != nullptr) g_server->shutdown();
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH --state-dir DIR [--max-live N] "
               "[--max-connections N] [--max-pending N] "
               "[--max-pending-total N] [--deadline-ms N] "
               "[--retry-after-ms N] [--certify|--no-certify] "
               "[--standby] [--replicate-to PATH] [--repl-batch-max N] "
               "[--repl-queue-cap N] [--repl-ack-ms N] [--repl-io-ms N] "
               "[--repl-corrupt-at N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  relsched::serve::ServerOptions options;

  auto int_arg = [&](int& i, long long lo, long long hi, long long* out) {
    if (i + 1 >= argc) return false;
    char* end = nullptr;
    const long long v = std::strtoll(argv[++i], &end, 10);
    if (end == nullptr || *end != '\0' || v < lo || v > hi) return false;
    *out = v;
    return true;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    long long v = 0;
    if (arg == "--socket" && i + 1 < argc) {
      options.socket_path = argv[++i];
    } else if (arg == "--state-dir" && i + 1 < argc) {
      options.state_dir = argv[++i];
    } else if (arg == "--max-live" && int_arg(i, 1, 1 << 20, &v)) {
      options.max_live_sessions = static_cast<int>(v);
    } else if (arg == "--max-connections" && int_arg(i, 1, 1 << 20, &v)) {
      options.max_connections = static_cast<int>(v);
    } else if (arg == "--max-pending" && int_arg(i, 1, 1 << 20, &v)) {
      options.max_pending_per_session = static_cast<int>(v);
    } else if (arg == "--max-pending-total" && int_arg(i, 1, 1 << 20, &v)) {
      options.max_pending_total = static_cast<int>(v);
    } else if (arg == "--deadline-ms" && int_arg(i, 0, 86'400'000, &v)) {
      options.default_deadline = std::chrono::milliseconds(v);
    } else if (arg == "--retry-after-ms" && int_arg(i, 1, 60'000, &v)) {
      options.retry_after_ms = static_cast<int>(v);
    } else if (arg == "--certify") {
      options.certify = true;
    } else if (arg == "--no-certify") {
      options.certify = false;
    } else if (arg == "--standby") {
      options.standby = true;
    } else if (arg == "--replicate-to" && i + 1 < argc) {
      options.replicate_to = argv[++i];
    } else if (arg == "--repl-batch-max" && int_arg(i, 1, 1 << 16, &v)) {
      options.repl_batch_max = static_cast<int>(v);
    } else if (arg == "--repl-queue-cap" && int_arg(i, 1, 1 << 24, &v)) {
      options.repl_queue_cap = static_cast<int>(v);
    } else if (arg == "--repl-ack-ms" && int_arg(i, 0, 600'000, &v)) {
      options.repl_ack_timeout = std::chrono::milliseconds(v);
    } else if (arg == "--repl-io-ms" && int_arg(i, 1, 600'000, &v)) {
      options.repl_io_timeout = std::chrono::milliseconds(v);
    } else if (arg == "--repl-corrupt-at" &&
               int_arg(i, 0, 1'000'000'000, &v)) {
      options.repl_corrupt_record_at = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (options.socket_path.empty() || options.state_dir.empty()) {
    return usage(argv[0]);
  }
  if (options.standby && !options.replicate_to.empty()) {
    // A chained standby starts streaming onward when its "promote"
    // carries replicate_to; at startup the roles are exclusive.
    std::fprintf(stderr,
                 "relsched_serve: --standby and --replicate-to are "
                 "mutually exclusive at startup\n");
    return 2;
  }

  relsched::serve::Server server(std::move(options));
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "relsched_serve: %s\n", error.c_str());
    return 1;
  }

  g_server = &server;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = on_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // a dying client must not kill the server

  std::fprintf(stderr, "relsched_serve: listening on %s\n",
               server.options().socket_path.c_str());
  server.serve_forever();
  std::fprintf(stderr, "relsched_serve: graceful shutdown\n");
  return 0;
}
