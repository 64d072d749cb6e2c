// relsched_serve: a fault-tolerant multi-session synthesis service.
//
// The server multiplexes many concurrent SynthesisSessions behind one
// AF_UNIX socket speaking the length-prefixed JSON protocol of
// protocol.hpp. Every request goes through one op table (server.cpp:
// name, the role that may run it, handler): parse, the shutdown check,
// the row lookup, the role gate, the handler. Robustness is the
// design driver, in layers:
//
//   Isolation    Sessions live in a sharded map keyed by the fnv1a64
//                hash of the design's canonical text. Each session has
//                its own mutex -- a single-writer serialization point
//                -- so request handling on one design never blocks or
//                corrupts another. Each resolve runs sequentially on
//                the connection thread that serves it, so the server's
//                concurrency is its connections, never a hidden pool.
//
//   Admission    Two bounded queues -- per-session and whole-server
//                pending-request counts -- shed excess load with an
//                explicit RETRY_AFTER reply instead of queueing
//                unboundedly. A connection cap sheds whole connections
//                the same way. Every request runs under a
//                base::Watchdog deadline (server default, clamped
//                against a client-requested "deadline_ms"); the
//                shrinking remainder (Watchdog::remaining) is
//                propagated into the resolve's cancellation knobs.
//
//   Eviction     When live sessions exceed max_live_sessions, the
//                least-recently-touched idle session is checkpointed
//                to its RSNAP001 state directory and destroyed. The
//                next request touching it transparently restores from
//                the snapshot + WAL; a restore failure falls back to a
//                cold rebuild from the design text stashed at open
//                (counted, never fatal).
//
//   Quarantine   A poison request -- certificate failure, watchdog
//                trip, or a thrown ApiError -- marks the session
//                suspect: it is pinned live (never evicted, so a
//                possibly-poisoned snapshot is never trusted) and runs
//                certified-cold (force_cold + certify on) from then
//                on. One bad design cannot poison its shard.
//
//   Durability   Sessions journal every edit to a per-session WAL;
//                commit markers are made durable *before* products are
//                recomputed, so with RELSCHED_CHECKPOINT_SYNC=always
//                an acknowledged edit survives SIGKILL. A WAL hard
//                error (ENOSPC, EIO) flags the session
//                durability_lost and triggers a rebuild: detach the
//                dead log, snapshot live state, re-attach fresh.
//
// Shutdown (SIGINT/SIGTERM or the "shutdown" op) is graceful:
// in-flight resolves are cancelled through a shared token, every live
// session is checkpointed, and the process exits 0. Recovery after a
// hard kill is lazy: state directories are restored on first touch.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "engine/session.hpp"
#include "serve/protocol.hpp"

namespace relsched::serve {

struct ServerOptions {
  /// AF_UNIX socket path to listen on (required; stale files from a
  /// previous hard kill are unlinked at bind).
  std::string socket_path;
  /// Root for per-session state directories (design text, snapshot,
  /// WAL); created if absent. Required.
  std::string state_dir;

  /// Live (in-memory) session cap: beyond it the LRU idle session is
  /// evicted to its snapshot.
  int max_live_sessions = 64;
  /// Concurrent connection cap; excess connections get one
  /// RETRY_AFTER reply and are closed.
  int max_connections = 128;
  /// Bounded queues: requests pending on one session / on the whole
  /// server. Breach -> RETRY_AFTER.
  int max_pending_per_session = 8;
  int max_pending_total = 256;
  /// Suggested client backoff carried in RETRY_AFTER replies.
  int retry_after_ms = 20;

  /// Per-request deadline; a client "deadline_ms" can shrink but never
  /// extend it. Zero disables (not recommended outside tests).
  std::chrono::milliseconds default_deadline{5000};

  /// Baseline certification policy for healthy sessions (quarantined
  /// sessions are always certified, regardless).
  bool certify = engine::certify_default();
  /// WAL durability policy for every session.
  persist::WalOptions wal = persist::WalOptions::from_env();

  // ---- Replication (see replication.hpp and docs/algorithms.md) -----------

  /// Primary role: stream committed WAL records to the standby daemon
  /// listening on this socket. Empty = no replication.
  std::string replicate_to;
  /// Standby role: refuse the normal session verbs (code "standby"),
  /// accept the repl_* stream, serve only after a "promote".
  bool standby = false;
  /// Records per repl_append frame.
  int repl_batch_max = 64;
  /// Lag cap before a standby is re-bootstrapped from a snapshot
  /// instead of streamed at (bounded replication queue).
  int repl_queue_cap = 4096;
  /// Semi-sync ack budget: how long an edit/resolve reply waits for
  /// the standby before degrading to async (counted).
  std::chrono::milliseconds repl_ack_timeout{2000};
  /// Transport timeout for primary->standby exchanges.
  std::chrono::milliseconds repl_io_timeout{3000};
  /// Chaos knob: corrupt the Nth shipped edit record (0 = off); the
  /// divergence must be caught by the digest oracle and healed.
  long long repl_corrupt_record_at = 0;
};

/// relsched_serve's command line (flags and ranges in serve_main.cpp),
/// parsed into *out from argv[1..argc). False on a usage error, with
/// *error set to the line to print: the usage text, or why the flags
/// conflict.
[[nodiscard]] bool parse_server_flags(int argc, char** argv,
                                      ServerOptions* out, std::string* error);

/// Digest of one resolve's observable outcome: fnv1a64 over the status
/// byte plus the serialized relative schedule. The serve protocol's
/// "digest" reply field is hex16 of this; the chaos bench computes the
/// same digest on a serial oracle session to assert bit-identity.
[[nodiscard]] std::uint64_t products_digest(const engine::Products& products);

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Creates the state dir, binds and listens on the unix socket.
  /// False (with *error set) on any setup failure; nothing to clean up.
  [[nodiscard]] bool start(std::string* error);

  /// Accept loop. Returns when shutdown() was called or a "shutdown"
  /// request arrived, after draining connections and checkpointing
  /// every live session. The drain gives connections 2 s to send the
  /// replies in flight; a client that stops reading is then cut off,
  /// so the drain always finishes.
  void serve_forever();

  /// Requests shutdown. Async-signal-safe: one atomic store plus one
  /// write(2) to a wake pipe.
  void shutdown() noexcept;

  [[nodiscard]] const ServerOptions& options() const { return options_; }

 private:
  struct Impl;
  ServerOptions options_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace relsched::serve
