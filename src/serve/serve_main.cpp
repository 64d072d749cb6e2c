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
#include <cstring>
#include <string>

#include "serve/server.hpp"

namespace {

relsched::serve::Server* g_server = nullptr;

void on_signal(int) {
  // Async-signal-safe: shutdown() is one atomic store + one write(2).
  if (g_server != nullptr) g_server->shutdown();
}

}  // namespace

int main(int argc, char** argv) {
  relsched::serve::ServerOptions options;
  std::string error;
  if (!relsched::serve::parse_server_flags(argc, argv, &options, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }

  relsched::serve::Server server(std::move(options));
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
