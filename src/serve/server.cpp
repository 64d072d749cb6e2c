#include "serve/server.hpp"

#include <dirent.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/errno_text.hpp"
#include "base/error.hpp"
#include "base/fault_fs.hpp"
#include "base/mutex.hpp"
#include "base/strings.hpp"
#include "base/thread_annotations.hpp"
#include "cg/graph_io.hpp"
#include "persist/serialize.hpp"
#include "persist/snapshot.hpp"
#include "persist/wal.hpp"
#include "sched/scheduler.hpp"
#include "serve/replication.hpp"

namespace relsched::serve {

namespace {

constexpr int kShardCount = 16;
/// How long a drain lets connection threads send the replies in flight
/// before it shuts their sockets both ways.
constexpr std::chrono::seconds kDrainGrace{2};

Json error_reply(const char* code, std::string detail) {
  Json reply = Json::object();
  reply.set("ok", Json::boolean(false));
  reply.set("code", Json::string(code));
  reply.set("error", Json::string(std::move(detail)));
  return reply;
}

Json ok_reply() {
  Json reply = Json::object();
  reply.set("ok", Json::boolean(true));
  return reply;
}

/// A non-negative count or revision as a JSON number.
Json num(std::uint64_t v) { return Json::number(static_cast<long long>(v)); }

Json retry_reply(int retry_after_ms, const char* what) {
  Json reply = error_reply(kCodeRetryAfter, what);
  reply.set("retry_after_ms", num(retry_after_ms));
  return reply;
}

/// mkdir -p: every missing component of `dir`, parents first.
bool make_dirs(const std::string& dir) {
  std::string prefix;
  std::size_t pos = 0;
  while (pos <= dir.size()) {
    const std::size_t slash = dir.find('/', pos);
    prefix = slash == std::string::npos ? dir : dir.substr(0, slash);
    pos = slash == std::string::npos ? dir.size() + 1 : slash + 1;
    if (prefix.empty()) continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

/// Whole-server counters, all monotone except the gauges at the end.
/// Rendered by the "stats" op; the chaos bench asserts on the shedding
/// and recovery counters.
struct ServerStats {
  long long requests = 0;
  long long edits_applied = 0;
  long long resolves = 0;
  long long shed_session_busy = 0;  // per-session queue full
  long long shed_server_busy = 0;   // whole-server queue full
  long long shed_connections = 0;   // connection cap breached
  long long bad_requests = 0;
  long long evictions = 0;
  long long restores = 0;               // snapshot restores that worked
  long long restore_cold_rebuilds = 0;  // restore failed -> rebuilt cold
  long long quarantines = 0;            // sessions newly marked suspect
  long long deadline_trips = 0;         // watchdog-cancelled requests
  long long internal_errors = 0;        // caught exceptions
  long long checkpoint_failures = 0;
  long long wal_rebuilds = 0;  // durability rebuilt after a WAL error
  // Standby-side replication counters (the primary's stream counters
  // live in ReplicatorCounters and are merged into the stats reply).
  long long repl_appends_applied = 0;
  long long repl_records_applied = 0;
  long long repl_snapshots_installed = 0;
  long long repl_rejects = 0;      // appends refused pending resync
  long long repl_divergences = 0;  // self-detected digest mismatches
  long long promotions = 0;
  // Gauges, sampled when stats are rendered.
  long long live_sessions = 0;
  long long known_sessions = 0;
  long long quarantined_sessions = 0;
};

/// One counter's key in the "stats" reply.
template <class Counters>
struct StatKey {
  const char* key;
  long long Counters::* field;
};

// The "stats" reply renders these runs in this order, with the
// "standby" role gauge between the two ServerStats runs; the
// replicator's keys appear only while this daemon streams to a
// standby. Keys and their order are part of the protocol.
constexpr StatKey<ServerStats> kServerKeys[] = {
    {"requests", &ServerStats::requests},
    {"edits_applied", &ServerStats::edits_applied},
    {"resolves", &ServerStats::resolves},
    {"shed_session_busy", &ServerStats::shed_session_busy},
    {"shed_server_busy", &ServerStats::shed_server_busy},
    {"shed_connections", &ServerStats::shed_connections},
    {"bad_requests", &ServerStats::bad_requests},
    {"evictions", &ServerStats::evictions},
    {"restores", &ServerStats::restores},
    {"restore_cold_rebuilds", &ServerStats::restore_cold_rebuilds},
    {"quarantines", &ServerStats::quarantines},
    {"deadline_trips", &ServerStats::deadline_trips},
    {"internal_errors", &ServerStats::internal_errors},
    {"checkpoint_failures", &ServerStats::checkpoint_failures},
    {"wal_rebuilds", &ServerStats::wal_rebuilds},
    {"live_sessions", &ServerStats::live_sessions},
    {"known_sessions", &ServerStats::known_sessions},
    {"quarantined_sessions", &ServerStats::quarantined_sessions},
};
constexpr StatKey<ServerStats> kStandbyKeys[] = {
    {"repl_appends_applied", &ServerStats::repl_appends_applied},
    {"repl_records_applied", &ServerStats::repl_records_applied},
    {"repl_snapshots_installed", &ServerStats::repl_snapshots_installed},
    {"repl_rejects", &ServerStats::repl_rejects},
    {"repl_divergences", &ServerStats::repl_divergences},
    {"promotions", &ServerStats::promotions},
};
constexpr StatKey<ReplicatorCounters> kReplicatorKeys[] = {
    {"repl_records_shipped", &ReplicatorCounters::records_shipped},
    {"repl_batches_shipped", &ReplicatorCounters::batches_shipped},
    {"repl_snapshots_shipped", &ReplicatorCounters::snapshots_shipped},
    {"repl_stream_divergences", &ReplicatorCounters::divergences},
    {"repl_resyncs", &ReplicatorCounters::resyncs},
    {"repl_queue_overflows", &ReplicatorCounters::queue_overflows},
    {"repl_degraded_acks", &ReplicatorCounters::degraded_acks},
    {"repl_reconnects", &ReplicatorCounters::reconnects},
};
constexpr StatKey<base::FaultFsCounters> kFaultFsKeys[] = {
    {"faultfs_short_writes", &base::FaultFsCounters::short_writes},
    {"faultfs_eintr", &base::FaultFsCounters::eintr},
    {"faultfs_eagain", &base::FaultFsCounters::eagain},
    {"faultfs_enospc", &base::FaultFsCounters::enospc},
    {"faultfs_fsync_failures", &base::FaultFsCounters::fsync_failures},
    {"faultfs_rename_failures", &base::FaultFsCounters::rename_failures},
};

template <class Counters, std::size_t N>
void set_counters(Json& reply, const Counters& counters,
                  const StatKey<Counters> (&keys)[N]) {
  for (const StatKey<Counters>& k : keys) {
    reply.set(k.key, Json::number(counters.*(k.field)));
  }
}

/// One session slot. The entry persists in its shard for as long as the
/// design is known, whether the session object itself is live or
/// evicted to disk; `mutex` is the single-writer serialization point
/// for everything behind it.
struct SessionEntry {
  base::Mutex mutex;
  /// Requests admitted for this session and not yet finished. An
  /// atomic, not guarded by `mutex`: admission control must shed load
  /// without queueing on the very lock it protects.
  std::atomic<int> pending{0};
  /// Written only under `mutex`, but an atomic rather than guarded:
  /// the stats and replication gauges read it under the shard lock
  /// alone (a stale value only delays a skip to the next pass).
  std::atomic<bool> quarantined{false};

  std::uint64_t hash = 0;   // set before publication, const after
  std::string dir;          // state_dir/s-<hex16>; same lifecycle

  std::unique_ptr<engine::SynthesisSession> session
      RELSCHED_GUARDED_BY(mutex);  // null when evicted
  /// Revision of the freshly-parsed design graph, before any client
  /// edit. Stable across cold rebuilds (graph construction is
  /// deterministic from the design text), so clients recompute
  /// applied-edit counts as revision - base_revision after a crash.
  std::uint64_t base_revision RELSCHED_GUARDED_BY(mutex) = 0;
  bool durability_lost RELSCHED_GUARDED_BY(mutex) = false;
  std::string quarantine_reason RELSCHED_GUARDED_BY(mutex);
  /// LRU clock: monotonically increasing touch stamp.
  std::uint64_t last_touch RELSCHED_GUARDED_BY(mutex) = 0;

  // Standby-side replication cursor (meaningful only while the server
  // is in standby mode): which (epoch, seq) of the primary's WAL
  // stream this session has applied, and the WAL base revision that
  // epoch started from. In-memory only -- a restarted standby reports
  // nothing at repl_subscribe and is re-bootstrapped per session.
  std::uint64_t repl_epoch RELSCHED_GUARDED_BY(mutex) = 0;
  std::uint64_t repl_next_seq RELSCHED_GUARDED_BY(mutex) = 0;
  std::uint64_t repl_wal_base RELSCHED_GUARDED_BY(mutex) = 0;
};

struct Shard {
  base::Mutex mutex;
  std::unordered_map<std::uint64_t, std::shared_ptr<SessionEntry>> sessions
      RELSCHED_GUARDED_BY(mutex);
};

/// Calls `fn` with the name of every entry of directory `dir`.
template <class Fn>
void for_each_name(const std::string& dir, Fn fn) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  // glibc's readdir is safe on distinct DIR streams (readdir_r is
  // deprecated for exactly this reason); this stream is function-local.
  while (struct dirent* ent = ::readdir(d)) {  // NOLINT(concurrency-mt-unsafe)
    fn(std::string(ent->d_name));
  }
  ::closedir(d);
}

/// Startup janitor: removes the "<name>.tmp.<pid>.<seq>" leftovers a
/// SIGKILL mid-atomic_write_file can strand in the session directories
/// (s-*) under `state_dir`. A temp from a dead process is garbage by
/// definition: its rename never happened, so the target still holds
/// the previous complete contents.
void sweep_stale_temps(const std::string& state_dir) {
  for_each_name(state_dir, [&](const std::string& session_dir) {
    if (!session_dir.starts_with("s-")) return;
    const std::string dir = cat(state_dir, "/", session_dir);
    for_each_name(dir, [&](const std::string& name) {
      if (name.find(".tmp.") != std::string::npos) {
        ::unlink(cat(dir, "/", name).c_str());
      }
    });
  });
}

}  // namespace

std::uint64_t products_digest(const engine::Products& products) {
  persist::Writer w;
  w.u8(static_cast<std::uint8_t>(products.schedule.status));
  persist::save_schedule(w, products.schedule.schedule);
  return persist::fnv1a64(w.buffer());
}

struct Server::Impl {
  explicit Impl(const ServerOptions& opts)
      : options(opts), standby_mode(opts.standby) {}

  ServerOptions options;

  int listen_fd = -1;
  int wake_pipe[2] = {-1, -1};
  std::atomic<bool> shutting_down{false};
  /// Shared cancel flag threaded into every resolve, so shutdown stops
  /// long-running work within one watchdog quantum.
  base::CancelToken shutdown_cancel = base::CancelToken::make();

  Shard shards[kShardCount];
  std::atomic<int> live_sessions{0};
  std::atomic<int> pending_total{0};
  /// One accepted connection: its socket and the thread serving it.
  /// Owned by serve_forever(), the only thread that starts, reaps or
  /// joins them, and that closes the socket -- after the join, so the
  /// descriptor cannot be reused while the drain still addresses it.
  /// `finished` is the thread's last act, so joining a finished one
  /// never blocks long.
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> finished{false};
  };
  std::vector<std::unique_ptr<Connection>> connections;
  std::atomic<std::uint64_t> touch_clock{0};

  base::Mutex stats_mutex;
  ServerStats stats RELSCHED_GUARDED_BY(stats_mutex);

  // ---- Replication role ----------------------------------------------------

  /// True while this process refuses the session verbs and applies the
  /// primary's stream instead; flipped off (permanently) by "promote".
  std::atomic<bool> standby_mode{false};
  /// Primary-side streamer; created at start() (--replicate-to) or by
  /// a "promote" carrying a new standby address. Guarded for creation;
  /// read via the shared_ptr snapshot below.
  base::Mutex repl_mutex;
  std::shared_ptr<Replicator> replicator_ptr RELSCHED_GUARDED_BY(repl_mutex);

  std::shared_ptr<Replicator> replicator() {
    base::MutexLock lock(repl_mutex);
    return replicator_ptr;
  }

  void start_replicator(const std::string& target) {
    base::MutexLock lock(repl_mutex);
    if (replicator_ptr != nullptr) return;
    ReplicatorOptions ro;
    ro.target = target;
    ro.batch_max = options.repl_batch_max;
    ro.queue_cap = options.repl_queue_cap;
    ro.ack_timeout = options.repl_ack_timeout;
    ro.io_timeout = options.repl_io_timeout;
    ro.corrupt_record_at = options.repl_corrupt_record_at;
    Replicator::Hooks hooks;
    hooks.list_sessions = [this] { return list_replicable_sessions(); };
    hooks.snapshot_session = [this](std::uint64_t hash,
                                    Replicator::SnapshotPayload* out,
                                    std::string* error) {
      return snapshot_for_replication(hash, out, error);
    };
    replicator_ptr = std::make_shared<Replicator>(std::move(ro),
                                                  std::move(hooks));
    replicator_ptr->start();
  }

  void stop_replicator() {
    std::shared_ptr<Replicator> r;
    {
      base::MutexLock lock(repl_mutex);
      r = replicator_ptr;
    }
    if (r != nullptr) r->stop();
  }

  std::vector<Replicator::SessionView> list_replicable_sessions() {
    std::vector<Replicator::SessionView> views;
    for (const auto& entry : all_entries()) {
      Replicator::SessionView view;
      view.hash = entry->hash;
      view.wal_path = persist::wal_path(entry->dir);
      // Benign race, like the stats gauge: a session quarantined
      // mid-pass is skipped on the next one.
      view.quarantined = entry->quarantined;
      views.push_back(std::move(view));
    }
    return views;
  }

  /// Replicator hook: checkpoint `hash` (resetting its WAL -- the
  /// epoch driver) and collect everything a standby bootstrap ships.
  bool snapshot_for_replication(std::uint64_t hash,
                                Replicator::SnapshotPayload* out,
                                std::string* error) {
    std::shared_ptr<SessionEntry> entry = find_entry(hash);
    if (entry == nullptr) {
      *error = "session gone";
      return false;
    }
    base::MutexLock lock(entry->mutex);
    if (entry->quarantined) {
      *error = "session quarantined";
      return false;
    }
    if (std::string err = ensure_live(*entry); !err.empty()) {
      *error = err;
      return false;
    }
    if (entry->session->in_txn()) {
      *error = "transaction open";
      return false;
    }
    if (persist::Error e = entry->session->checkpoint(entry->dir); !e.ok()) {
      bump(&ServerStats::checkpoint_failures);
      *error = e.render();
      return false;
    }
    if (persist::Error e =
            persist::read_file(design_path(*entry), &out->design_text);
        !e.ok()) {
      *error = e.render();
      return false;
    }
    if (persist::Error e = persist::read_file(
            persist::snapshot_path(entry->dir), &out->snapshot_bytes);
        !e.ok()) {
      *error = e.render();
      return false;
    }
    out->revision = entry->session->graph().revision();
    out->digest = products_digest(entry->session->products());
    return true;
  }

  /// Request-path tail for ok edit/resolve replies on a replicating
  /// primary: make the committed records visible to the WAL tailer and
  /// record the commit digest (the divergence oracle). Entry mutex
  /// held; never blocks.
  void note_replication(SessionEntry& entry, const Json& reply)
      RELSCHED_REQUIRES(entry.mutex) {
    std::shared_ptr<Replicator> r = replicator();
    if (r == nullptr || entry.session == nullptr) return;
    entry.session->flush_wal();
    const Json* ok = reply.get("ok");
    if (ok == nullptr || !ok->as_bool() || entry.quarantined) return;
    r->note_commit(entry.hash, entry.session->graph().revision(),
                   products_digest(entry.session->products()));
  }

  /// Semi-sync gate, called *without* the entry mutex (the streaming
  /// thread needs it to ship snapshots): wait until the standby acked
  /// the committed revision, else mark the reply degraded.
  void await_replication(const SessionEntry& entry, Json* reply) {
    std::shared_ptr<Replicator> r = replicator();
    if (r == nullptr) return;
    const Json* ok = reply->get("ok");
    const Json* rev = reply->get("revision");
    if (ok == nullptr || !ok->as_bool() || rev == nullptr ||
        !rev->is_number()) {
      return;
    }
    if (!r->await_ack(entry.hash,
                      static_cast<std::uint64_t>(rev->as_int()))) {
      reply->set("repl_degraded", Json::boolean(true));
    }
  }

  // ---- Admission -----------------------------------------------------------

  /// Counts one request against both bounded queues for its lifetime.
  class Admission {
   public:
    Admission(Impl& impl, SessionEntry& entry) : impl_(impl), entry_(entry) {
      impl_.pending_total.fetch_add(1, std::memory_order_relaxed);
      entry_.pending.fetch_add(1, std::memory_order_relaxed);
    }
    Admission(const Admission&) = delete;
    Admission& operator=(const Admission&) = delete;
    ~Admission() {
      impl_.pending_total.fetch_sub(1, std::memory_order_relaxed);
      entry_.pending.fetch_sub(1, std::memory_order_relaxed);
    }

    /// Null when admitted; a RETRY_AFTER reply when a queue is full.
    Json shed_reply() const {
      if (impl_.pending_total.load(std::memory_order_relaxed) >
          impl_.options.max_pending_total) {
        impl_.bump(&ServerStats::shed_server_busy);
        return retry_reply(impl_.options.retry_after_ms, "server queue full");
      }
      if (entry_.pending.load(std::memory_order_relaxed) >
          impl_.options.max_pending_per_session) {
        impl_.bump(&ServerStats::shed_session_busy);
        return retry_reply(impl_.options.retry_after_ms, "session queue full");
      }
      return Json::null();
    }

   private:
    Impl& impl_;
    SessionEntry& entry_;
  };

  // ---- Small helpers -------------------------------------------------------

  Shard& shard_for(std::uint64_t hash) { return shards[hash % kShardCount]; }

  std::shared_ptr<SessionEntry> find_entry(std::uint64_t hash) {
    Shard& shard = shard_for(hash);
    base::MutexLock lock(shard.mutex);
    auto it = shard.sessions.find(hash);
    return it == shard.sessions.end() ? nullptr : it->second;
  }

  /// The entry for `hash`, created (not yet live) when the design is
  /// new to this process.
  std::shared_ptr<SessionEntry> entry_for(std::uint64_t hash) {
    Shard& shard = shard_for(hash);
    base::MutexLock lock(shard.mutex);
    std::shared_ptr<SessionEntry>& slot = shard.sessions[hash];
    if (slot == nullptr) {
      slot = std::make_shared<SessionEntry>();
      slot->hash = hash;
      slot->dir = cat(options.state_dir, "/s-", hex16(hash));
    }
    return slot;
  }

  /// Every known entry, shard by shard, copied under each shard's
  /// mutex so callers can lock entries without holding a shard.
  std::vector<std::shared_ptr<SessionEntry>> all_entries() {
    std::vector<std::shared_ptr<SessionEntry>> entries;
    for (Shard& shard : shards) {
      base::MutexLock lock(shard.mutex);
      for (auto& [hash, entry] : shard.sessions) entries.push_back(entry);
    }
    return entries;
  }

  void remove_entry(std::uint64_t hash) {
    Shard& shard = shard_for(hash);
    base::MutexLock lock(shard.mutex);
    shard.sessions.erase(hash);
  }

  void bump(long long ServerStats::* counter, long long by = 1) {
    base::MutexLock lock(stats_mutex);
    stats.*counter += by;
  }

  /// A counted bad_request reply.
  Json bad_request(std::string detail) {
    bump(&ServerStats::bad_requests);
    return error_reply(kCodeBadRequest, std::move(detail));
  }

  [[nodiscard]] engine::SessionOptions session_options() const {
    engine::SessionOptions so;
    so.certify = options.certify;
    return so;
  }

  [[nodiscard]] static std::string design_path(const SessionEntry& entry) {
    return cat(entry.dir, "/design.cg");
  }

  /// Marks `entry` (whose mutex the caller holds) suspect: pinned live,
  /// certified-cold from now on.
  void quarantine(SessionEntry& entry, std::string reason)
      RELSCHED_REQUIRES(entry.mutex) {
    if (!entry.quarantined) {
      entry.quarantined = true;
      bump(&ServerStats::quarantines);
    }
    entry.quarantine_reason = std::move(reason);
    if (entry.session != nullptr) {
      entry.session->set_certify(true);
      entry.session->force_cold();
    }
  }

  // ---- Session lifecycle ---------------------------------------------------

  /// Ensures `entry` (mutex held) has a live session, restoring from
  /// its checkpoint or cold-rebuilding from the design text stashed at
  /// open. Returns a non-empty error only when even the cold rebuild is
  /// impossible (state dir destroyed). `*restored`, when non-null, is
  /// set when the snapshot restore path succeeded.
  std::string ensure_live(SessionEntry& entry, bool* restored = nullptr)
      RELSCHED_REQUIRES(entry.mutex) {
    if (entry.session != nullptr) return {};

    const std::string snap = persist::snapshot_path(entry.dir);
    if (!entry.quarantined && ::access(snap.c_str(), F_OK) == 0) {
      engine::SynthesisSession::RestoreReport report;
      std::optional<engine::SynthesisSession> recovered =
          engine::SynthesisSession::restore(entry.dir, session_options(),
                                            &report);
      if (recovered.has_value()) {
        entry.session =
            std::make_unique<engine::SynthesisSession>(std::move(*recovered));
        live_sessions.fetch_add(1, std::memory_order_relaxed);
        bump(&ServerStats::restores);
        if (restored != nullptr) *restored = true;
        attach_wal(entry);
        if (entry.base_revision == 0) {
          entry.base_revision = base_revision_of(entry);
        }
        return {};
      }
      // The snapshot (or its WAL) is unusable; fall back to the cold
      // rebuild below. Counted and logged -- silent fallbacks hide rot.
      bump(&ServerStats::restore_cold_rebuilds);
      std::fprintf(stderr,
                   "relsched_serve: restore of %s failed (%s); rebuilding "
                   "cold from the design\n",
                   entry.dir.c_str(), report.error.render().c_str());
    }

    std::string design;
    if (persist::Error e = persist::read_file(design_path(entry), &design);
        !e.ok()) {
      return cat("cold rebuild impossible: ", e.render());
    }
    cg::ParseResult parsed = cg::from_text(design);
    if (!parsed.ok()) {
      return cat("cold rebuild impossible: stashed design unparsable: ",
                 parsed.error);
    }
    // The old snapshot/WAL describe a state line this rebuild abandons;
    // drop them so a later restore cannot resurrect it.
    ::unlink(snap.c_str());
    ::unlink(persist::wal_path(entry.dir).c_str());
    entry.session = std::make_unique<engine::SynthesisSession>(
        std::move(*parsed.graph), session_options());
    entry.base_revision = entry.session->graph().revision();
    live_sessions.fetch_add(1, std::memory_order_relaxed);
    attach_wal(entry);
    return {};
  }

  /// Attaches the per-session WAL. Failure is not fatal to serving --
  /// the session stays live -- but flags durability_lost until a later
  /// heal_wal succeeds.
  void attach_wal(SessionEntry& entry) RELSCHED_REQUIRES(entry.mutex) {
    if (entry.session == nullptr || entry.session->wal_attached()) return;
    if (persist::Error e = entry.session->attach_wal(
            persist::wal_path(entry.dir), options.wal);
        !e.ok()) {
      entry.durability_lost = true;
      return;
    }
    entry.durability_lost = false;
  }

  /// After a request that appended to the WAL: if the log died, rebuild
  /// durability from live state (detach the dead log, snapshot, attach
  /// a fresh log). Entry mutex held.
  void heal_wal(SessionEntry& entry) RELSCHED_REQUIRES(entry.mutex) {
    if (entry.session == nullptr || entry.session->wal_error().ok()) return;
    entry.durability_lost = true;
    entry.session->detach_wal();
    ::unlink(persist::wal_path(entry.dir).c_str());
    if (entry.session->in_txn()) return;  // heal at the next quiet point
    if (persist::Error e = entry.session->checkpoint(entry.dir); !e.ok()) {
      bump(&ServerStats::checkpoint_failures);
      return;  // still serving, still flagged; retried on the next edit
    }
    attach_wal(entry);
    if (!entry.durability_lost) bump(&ServerStats::wal_rebuilds);
  }

  /// The design graph's revision before any client edit, recovered by
  /// re-parsing the stashed text (graph construction is deterministic).
  std::uint64_t base_revision_of(const SessionEntry& entry) {
    std::string design;
    if (!persist::read_file(design_path(entry), &design).ok()) return 0;
    cg::ParseResult parsed = cg::from_text(design);
    return parsed.ok() ? parsed.graph->revision() : 0;
  }

  /// Destroys the session object without a checkpoint; with `scrub`,
  /// also deletes its snapshot and WAL (untrusted state is never
  /// persisted). Entry mutex held.
  void drop_session(SessionEntry& entry, bool scrub)
      RELSCHED_REQUIRES(entry.mutex) {
    if (entry.session != nullptr) {
      entry.session.reset();
      live_sessions.fetch_sub(1, std::memory_order_relaxed);
    }
    if (scrub) {
      ::unlink(persist::snapshot_path(entry.dir).c_str());
      ::unlink(persist::wal_path(entry.dir).c_str());
    }
  }

  /// Checkpoints and destroys the session object (entry mutex held).
  /// False when the checkpoint failed -- the session then stays live,
  /// because dropping state that never reached disk would lose
  /// acknowledged edits.
  bool evict_locked(SessionEntry& entry) RELSCHED_REQUIRES(entry.mutex) {
    if (entry.session == nullptr) return true;
    if (entry.session->in_txn()) return false;
    if (persist::Error e = entry.session->checkpoint(entry.dir); !e.ok()) {
      bump(&ServerStats::checkpoint_failures);
      return false;
    }
    entry.session.reset();
    live_sessions.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  /// Evicts least-recently-touched idle sessions until the live count
  /// is back under the cap. Skips busy (pending > 0), quarantined
  /// (pinned: their snapshots are never trusted), and lock-contended
  /// entries; best-effort by design.
  void evict_lru(std::uint64_t keep_hash) {
    for (int rounds = 0;
         live_sessions.load(std::memory_order_relaxed) >
             options.max_live_sessions &&
         rounds < options.max_live_sessions + 1;
         ++rounds) {
      std::shared_ptr<SessionEntry> victim;
      std::uint64_t oldest = ~std::uint64_t{0};
      for (const auto& entry : all_entries()) {
        if (entry->hash == keep_hash || entry->quarantined) continue;
        if (entry->pending.load(std::memory_order_relaxed) > 0) continue;
        if (!entry->mutex.try_lock()) continue;
        if (entry->session != nullptr && entry->last_touch < oldest) {
          oldest = entry->last_touch;
          victim = entry;
        }
        entry->mutex.unlock();
      }
      if (victim == nullptr) return;  // everything is busy or pinned
      if (!victim->mutex.try_lock()) continue;
      if (victim->session == nullptr ||
          victim->pending.load(std::memory_order_relaxed) > 0) {
        victim->mutex.unlock();
        continue;  // raced with a request; rescan
      }
      const bool evicted = evict_locked(*victim);
      victim->mutex.unlock();
      if (!evicted) return;
      bump(&ServerStats::evictions);
    }
  }

  void maybe_evict_after(std::uint64_t keep_hash) {
    if (live_sessions.load(std::memory_order_relaxed) >
        options.max_live_sessions) {
      evict_lru(keep_hash);
    }
  }

  /// Shutdown path: every live session reaches disk (or, for
  /// quarantined sessions, has its untrusted on-disk state scrubbed so
  /// the next process rebuilds cold from the design).
  void checkpoint_all() {
    for (const auto& entry : all_entries()) {
      base::MutexLock lock(entry->mutex);
      if (entry->session == nullptr) continue;
      if (entry->quarantined || !evict_locked(*entry)) {
        drop_session(*entry, /*scrub=*/entry->quarantined);
      }
    }
  }

  // ---- Request handling ----------------------------------------------------

  /// Deadline for this request: the server default, shrunk (never
  /// extended) by a client-supplied deadline_ms.
  [[nodiscard]] std::chrono::steady_clock::time_point request_deadline(
      const Json& request) const {
    std::chrono::milliseconds budget = options.default_deadline;
    if (const Json* ms = request.get("deadline_ms");
        ms != nullptr && ms->is_number() && ms->as_int() > 0) {
      const std::chrono::milliseconds asked{ms->as_int()};
      budget = budget.count() == 0 ? asked : std::min(budget, asked);
    }
    if (budget.count() == 0) return base::Watchdog::kNoDeadline;
    return std::chrono::steady_clock::now() + budget;
  }

  /// Outcome fields shared by edit/resolve replies.
  static void fill_products_reply(Json& reply,
                                  const engine::SynthesisSession& session) {
    const engine::Products& products = session.products();
    reply.set("revision", num(session.graph().revision()));
    reply.set("status",
              Json::string(sched::to_string(products.schedule.status)));
    reply.set("digest", Json::string(hex16(products_digest(products))));
  }

  Json handle_ping(const Json& /*request*/) {
    Json reply = ok_reply();
    reply.set("server", Json::string("relsched_serve"));
    return reply;
  }

  Json handle_open(const Json& request) {
    const Json* design = request.get("design_text");
    if (design == nullptr || !design->is_string()) {
      return bad_request("open requires design_text");
    }
    cg::ParseResult parsed = cg::from_text(design->as_string());
    if (!parsed.ok()) return bad_request(cat("design: ", parsed.error));
    const std::string canonical = cg::to_text(*parsed.graph);
    const std::uint64_t hash = persist::fnv1a64(canonical);
    std::shared_ptr<SessionEntry> entry = entry_for(hash);

    Admission admission(*this, *entry);
    if (Json shed = admission.shed_reply(); shed.is_object()) return shed;

    bool restored = false;
    Json reply = ok_reply();
    {
      base::MutexLock lock(entry->mutex);
      entry->last_touch = touch_clock.fetch_add(1, std::memory_order_relaxed);
      if (entry->session == nullptr &&
          ::access(design_path(*entry).c_str(), F_OK) != 0) {
        // Brand-new design: stash the canonical text (the cold-rebuild
        // seed) before any session state exists, then build fresh.
        if (::mkdir(entry->dir.c_str(), 0755) != 0 && errno != EEXIST) {
          remove_entry(hash);
          return error_reply(
              kCodeIo, cat("mkdir ", entry->dir, ": ", base::errno_text(errno)));
        }
        // The stash write rides through transient I/O faults the same
        // way the WAL does: a few short-backoff retries. Only a
        // persistent failure (disk really gone) surfaces to the client.
        persist::Error stash_error;
        for (int attempt = 0; attempt < 5; ++attempt) {
          stash_error =
              persist::atomic_write_file(design_path(*entry), canonical);
          if (stash_error.ok()) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        if (!stash_error.ok()) {
          remove_entry(hash);
          return error_reply(kCodeIo, stash_error.render());
        }
        entry->session = std::make_unique<engine::SynthesisSession>(
            std::move(*parsed.graph), session_options());
        entry->base_revision = entry->session->graph().revision();
        live_sessions.fetch_add(1, std::memory_order_relaxed);
        attach_wal(*entry);
      } else if (entry->session == nullptr) {
        // Known design (from this process or a predecessor's state
        // dir); bring it back.
        if (std::string err = ensure_live(*entry, &restored); !err.empty()) {
          return error_reply(kCodeIo, err);
        }
      }
      if (entry->quarantined) {
        entry->session->set_certify(true);
        entry->session->force_cold();
      }
      reply.set("session", Json::string(hex16(hash)));
      reply.set("revision", num(entry->session->graph().revision()));
      reply.set("base_revision", num(entry->base_revision));
      reply.set("restored", Json::boolean(restored));
      reply.set("quarantined", Json::boolean(entry->quarantined));
      reply.set("durability_lost", Json::boolean(entry->durability_lost));
    }
    maybe_evict_after(hash);
    return reply;
  }

  /// Looks up the session named by the request. On any failure, returns
  /// a ready error reply in *fail.
  std::shared_ptr<SessionEntry> lookup(const Json& request, Json* fail) {
    const Json* sid = request.get("session");
    std::uint64_t hash = 0;
    if (sid == nullptr || !sid->is_string() ||
        !parse_hex16(sid->as_string(), &hash)) {
      *fail = bad_request("missing or malformed session id");
      return nullptr;
    }
    std::shared_ptr<SessionEntry> entry = find_entry(hash);
    if (entry == nullptr) {
      *fail = error_reply(kCodeUnknownSession, sid->as_string());
      return nullptr;
    }
    return entry;
  }

  /// Shared epilogue of edit/resolve: poison detection. Certificate
  /// failures and watchdog trips mark the session suspect; shutdown
  /// cancellations are not poison (the request was healthy, the server
  /// is leaving).
  Json judge_outcome(SessionEntry& entry, int certificate_failures_before,
                     Json reply) RELSCHED_REQUIRES(entry.mutex) {
    engine::SynthesisSession& session = *entry.session;
    if (session.stats().certificate_failures > certificate_failures_before) {
      quarantine(entry, "certificate failure");
    }
    if (session.products().schedule.status ==
        sched::ScheduleStatus::kCancelled) {
      bump(&ServerStats::deadline_trips);
      if (!shutting_down.load(std::memory_order_relaxed)) {
        quarantine(entry, "request deadline tripped mid-resolve");
      }
      return error_reply(kCodeDeadline, "resolve cancelled by deadline");
    }
    heal_wal(entry);
    reply.set("quarantined", Json::boolean(entry.quarantined));
    reply.set("durability_lost", Json::boolean(entry.durability_lost));
    return reply;
  }

  /// edit and resolve: look the session up, admit or shed, bring it
  /// live under the entry mutex with this request's deadline, run
  /// `body`, judge a completed run for poison and hand its commit to
  /// the replicator, then wait for the standby's ack. `body` returns
  /// failures as ready replies.
  Json run_replicated(const Json& request,
                      Json (Impl::*body)(SessionEntry&, const Json&)) {
    Json fail;
    std::shared_ptr<SessionEntry> entry = lookup(request, &fail);
    if (entry == nullptr) return fail;
    Admission admission(*this, *entry);
    if (Json shed = admission.shed_reply(); shed.is_object()) return shed;

    Json reply;
    {
      base::MutexLock lock(entry->mutex);
      entry->last_touch = touch_clock.fetch_add(1, std::memory_order_relaxed);
      if (std::string err = ensure_live(*entry); !err.empty()) {
        reply = error_reply(kCodeIo, err);
      } else {
        engine::SynthesisSession& session = *entry->session;
        session.set_cancellation(shutdown_cancel, request_deadline(request));
        if (entry->quarantined) {
          session.set_certify(true);
          session.force_cold();
        }
        const int cert_failures_before = session.stats().certificate_failures;
        reply = (this->*body)(*entry, request);
        if (reply.get("ok")->as_bool()) {
          reply = judge_outcome(*entry, cert_failures_before, std::move(reply));
        }
      }
      note_replication(*entry, reply);
    }
    // Outside the lock: the replication thread must be able to take it
    // (snapshot bootstraps) while this request waits for its ack.
    await_replication(*entry, &reply);
    return reply;
  }

  Json handle_edit(const Json& request) {
    return run_replicated(request, &Impl::edit_locked);
  }

  Json handle_resolve(const Json& request) {
    return run_replicated(request, &Impl::resolve_locked);
  }

  Json edit_locked(SessionEntry& entry, const Json& request)
      RELSCHED_REQUIRES(entry.mutex) {
    engine::SynthesisSession& session = *entry.session;
    // The whole batch is checked against the pre-batch graph before the
    // transaction opens: no partially-applied trivial garbage.
    std::vector<engine::Edit> edits;
    std::string parse_error;
    if (!decode_edits(request, session.graph(), &edits, &parse_error)) {
      return bad_request(parse_error);
    }
    try {
      session.begin_txn();
      for (const engine::Edit& e : edits) session.apply(e);
      session.commit();
    } catch (const std::exception& ex) {
      // A structurally-valid edit the graph still rejected (e.g.
      // removing a polarity-critical edge), or an engine invariant
      // trip. Close the transaction if one is open so the session
      // stays usable; either way the session is now suspect.
      bump(&ServerStats::internal_errors);
      std::string detail = ex.what();
      try {
        if (session.in_txn()) session.commit();
      } catch (const std::exception&) {
        // Even the commit failed: the in-memory state is beyond
        // salvage. Drop it; the next touch cold-rebuilds from the
        // design (quarantine below forces the untrusted snapshot to be
        // ignored).
        drop_session(entry, /*scrub=*/false);
      }
      quarantine(entry, cat("edit raised: ", detail));
      Json reply = error_reply(kCodeBadRequest, detail);
      if (entry.session != nullptr) {
        reply.set("revision", num(session.graph().revision()));
      }
      reply.set("quarantined", Json::boolean(true));
      return reply;
    }
    bump(&ServerStats::edits_applied, static_cast<long long>(edits.size()));
    bump(&ServerStats::resolves);

    Json reply = ok_reply();
    reply.set("edits_applied", num(edits.size()));
    fill_products_reply(reply, session);
    return reply;
  }

  Json resolve_locked(SessionEntry& entry, const Json& /*request*/)
      RELSCHED_REQUIRES(entry.mutex) {
    engine::SynthesisSession& session = *entry.session;
    try {
      session.resolve();
    } catch (const std::exception& ex) {
      bump(&ServerStats::internal_errors);
      quarantine(entry, cat("resolve raised: ", ex.what()));
      return error_reply(kCodeInternal, ex.what());
    }
    bump(&ServerStats::resolves);

    Json reply = ok_reply();
    fill_products_reply(reply, session);
    return reply;
  }

  Json handle_evict(const Json& request) {
    Json fail;
    std::shared_ptr<SessionEntry> entry = lookup(request, &fail);
    if (entry == nullptr) return fail;
    Admission admission(*this, *entry);

    base::MutexLock lock(entry->mutex);
    if (entry->quarantined) {
      return error_reply(kCodeBadRequest,
                         "quarantined sessions are pinned live");
    }
    if (entry->session != nullptr && !evict_locked(*entry)) {
      return error_reply(kCodeIo, "checkpoint failed; session kept live");
    }
    bump(&ServerStats::evictions);
    Json reply = ok_reply();
    reply.set("evicted", Json::boolean(true));
    return reply;
  }

  Json handle_close(const Json& request) {
    Json fail;
    std::shared_ptr<SessionEntry> entry = lookup(request, &fail);
    if (entry == nullptr) return fail;
    Admission admission(*this, *entry);

    base::MutexLock lock(entry->mutex);
    if (entry->session != nullptr) {
      if (entry->quarantined) {
        drop_session(*entry, /*scrub=*/true);
      } else if (!evict_locked(*entry)) {
        return error_reply(kCodeIo, "checkpoint failed; session kept open");
      }
    }
    remove_entry(entry->hash);
    Json reply = ok_reply();
    return reply;
  }

  Json handle_stats(const Json& request) {
    if (const Json* sid = request.get("session"); sid != nullptr) {
      Json fail;
      std::shared_ptr<SessionEntry> entry = lookup(request, &fail);
      if (entry == nullptr) return fail;
      base::MutexLock lock(entry->mutex);
      Json reply = ok_reply();
      reply.set("live", Json::boolean(entry->session != nullptr));
      reply.set("quarantined", Json::boolean(entry->quarantined));
      reply.set("quarantine_reason", Json::string(entry->quarantine_reason));
      reply.set("durability_lost", Json::boolean(entry->durability_lost));
      reply.set("base_revision", num(entry->base_revision));
      if (entry->session != nullptr) {
        const engine::SessionStats s = entry->session->stats();
        reply.set("revision", num(entry->session->graph().revision()));
        reply.set("cold_resolves", num(s.cold_resolves));
        reply.set("warm_resolves", num(s.warm_resolves));
        reply.set("wal_records", Json::number(s.wal_records));
        reply.set("wal_retries", Json::number(s.wal_retries));
        reply.set("certificate_failures", num(s.certificate_failures));
        reply.set("restores", num(s.restores));
      }
      return reply;
    }

    ServerStats snapshot;
    {
      base::MutexLock lock(stats_mutex);
      snapshot = stats;
    }
    snapshot.live_sessions = live_sessions.load(std::memory_order_relaxed);
    long long wal_retries_live = 0;
    const std::vector<std::shared_ptr<SessionEntry>> entries = all_entries();
    snapshot.known_sessions = static_cast<long long>(entries.size());
    for (const auto& entry : entries) {
      // Benign race: quarantined is read without the entry mutex, for
      // a gauge.
      if (entry->quarantined) ++snapshot.quarantined_sessions;
      // Busy sessions are skipped rather than waited on: stats must
      // never queue behind a long resolve.
      if (!entry->mutex.try_lock()) continue;
      if (entry->session != nullptr) {
        wal_retries_live += entry->session->stats().wal_retries;
      }
      entry->mutex.unlock();
    }

    Json reply = ok_reply();
    set_counters(reply, snapshot, kServerKeys);
    // Replication: role gauge, standby-side apply counters, and (when
    // this daemon streams to a standby) the primary-side counters.
    reply.set("standby",
              Json::boolean(standby_mode.load(std::memory_order_relaxed)));
    set_counters(reply, snapshot, kStandbyKeys);
    if (std::shared_ptr<Replicator> repl = replicator(); repl != nullptr) {
      const ReplicatorCounters rc = repl->counters();
      reply.set("repl_connected", Json::boolean(rc.connected));
      set_counters(reply, rc, kReplicatorKeys);
    }

    // Durability-pressure visibility: WAL short-write retries summed
    // over live sessions, plus the injected-fault counters when the
    // process runs under FaultFs (all zero otherwise).
    reply.set("wal_retries_live", Json::number(wal_retries_live));
    const base::FaultFsCounters fc = base::fault_fs().counters();
    set_counters(reply, fc, kFaultFsKeys);
    reply.set("faultfs_total", Json::number(fc.total()));
    return reply;
  }

  // ---- Replication verbs (standby side) ------------------------------------

  /// Ack telling the primary to re-bootstrap this session from a
  /// snapshot: the standby cannot (or must not) follow the stream from
  /// where the primary thinks it is.
  Json resync_reply(std::uint64_t hash, bool diverged = false) {
    Json reply = ok_reply();
    reply.set("repl", Json::string("repl_ack"));
    reply.set("session", Json::string(hex16(hash)));
    reply.set("resync", Json::boolean(true));
    if (diverged) reply.set("diverged", Json::boolean(true));
    return reply;
  }

  /// Normal ack: the post-apply cursor plus this standby's own state
  /// digest, the primary's divergence oracle. Entry mutex held, session
  /// live.
  Json ack_reply(SessionEntry& entry) RELSCHED_REQUIRES(entry.mutex) {
    Json reply = ok_reply();
    reply.set("repl", Json::string("repl_ack"));
    reply.set("session", Json::string(hex16(entry.hash)));
    reply.set("epoch", num(entry.repl_epoch));
    reply.set("next_seq", num(entry.repl_next_seq));
    reply.set("wal_base", num(entry.repl_wal_base));
    reply.set("revision", num(entry.session->graph().revision()));
    reply.set("digest", Json::string(hex16(
                            products_digest(entry.session->products()))));
    return reply;
  }

  /// Divergent or unfollowable replica state is scrubbed, never served:
  /// drop the live object and its on-disk trace (the design stash
  /// stays) so the next bootstrap starts clean. Entry mutex held.
  void scrub_standby_session(SessionEntry& entry)
      RELSCHED_REQUIRES(entry.mutex) {
    drop_session(entry, /*scrub=*/true);
    entry.repl_epoch = 0;
    entry.repl_next_seq = 0;
    entry.repl_wal_base = 0;
    entry.durability_lost = false;
  }

  Json handle_repl_subscribe(const Json& /*request*/) {
    // Report every session this standby can resume streaming; a
    // session it cannot bring live is omitted and the primary
    // re-bootstraps it. A freshly restarted standby reports nothing
    // (the cursor is in-memory only) -- correct, just re-shipped.
    Json sessions = Json::array();
    for (const auto& entry : all_entries()) {
      base::MutexLock lock(entry->mutex);
      if (std::string err = ensure_live(*entry); !err.empty()) continue;
      Json e = Json::object();
      e.set("session", Json::string(hex16(entry->hash)));
      e.set("epoch", num(entry->repl_epoch));
      e.set("next_seq", num(entry->repl_next_seq));
      e.set("wal_base", num(entry->repl_wal_base));
      e.set("revision", num(entry->session->graph().revision()));
      sessions.push(std::move(e));
    }
    Json reply = ok_reply();
    reply.set("repl", Json::string("repl_ack"));
    reply.set("sessions", std::move(sessions));
    return reply;
  }

  Json handle_repl_snapshot(const Json& request) {
    const Json* sid = request.get("session");
    const Json* epoch = request.get("epoch");
    const Json* revision = request.get("revision");
    const Json* digest = request.get("digest");
    const Json* design = request.get("design_text");
    const Json* snap_hex = request.get("snapshot_hex");
    std::uint64_t hash = 0;
    std::uint64_t want_digest = 0;
    if (sid == nullptr || !sid->is_string() ||
        !parse_hex16(sid->as_string(), &hash) || epoch == nullptr ||
        !epoch->is_number() || revision == nullptr || !revision->is_number() ||
        digest == nullptr || !digest->is_string() ||
        !parse_hex16(digest->as_string(), &want_digest) || design == nullptr ||
        !design->is_string() || snap_hex == nullptr || !snap_hex->is_string()) {
      return bad_request("malformed repl_snapshot");
    }
    std::string snapshot_bytes;
    if (!hex_decode(snap_hex->as_string(), &snapshot_bytes)) {
      return bad_request("snapshot_hex is not hex");
    }
    // The session id IS the design's identity; verify rather than trust.
    cg::ParseResult parsed = cg::from_text(design->as_string());
    if (!parsed.ok()) return bad_request(cat("design: ", parsed.error));
    const std::string canonical = cg::to_text(*parsed.graph);
    if (persist::fnv1a64(canonical) != hash) {
      return bad_request("design does not match session id");
    }
    std::shared_ptr<SessionEntry> entry = entry_for(hash);

    Json reply;
    {
      base::MutexLock lock(entry->mutex);
      entry->last_touch = touch_clock.fetch_add(1, std::memory_order_relaxed);
      if (::mkdir(entry->dir.c_str(), 0755) != 0 && errno != EEXIST) {
        return error_reply(
            kCodeIo, cat("mkdir ", entry->dir, ": ", base::errno_text(errno)));
      }
      // Whatever this replica held before, the snapshot replaces it.
      drop_session(*entry, /*scrub=*/false);
      if (persist::Error e =
              persist::atomic_write_file(design_path(*entry), canonical);
          !e.ok()) {
        return error_reply(kCodeIo, e.render());
      }
      if (persist::Error e = persist::atomic_write_file(
              persist::snapshot_path(entry->dir), snapshot_bytes);
          !e.ok()) {
        return error_reply(kCodeIo, e.render());
      }
      ::unlink(persist::wal_path(entry->dir).c_str());
      entry->quarantined = false;
      entry->quarantine_reason.clear();
      entry->durability_lost = false;
      if (std::string err = ensure_live(*entry); !err.empty()) {
        return error_reply(kCodeIo, err);
      }
      const std::uint64_t have_revision = entry->session->graph().revision();
      const std::uint64_t have_digest =
          products_digest(entry->session->products());
      if (have_revision != static_cast<std::uint64_t>(revision->as_int()) ||
          have_digest != want_digest) {
        // The shipped snapshot restored to a different state than the
        // primary claims; never stream on top of it.
        scrub_standby_session(*entry);
        bump(&ServerStats::repl_divergences);
        return error_reply(kCodeIo, "snapshot restored to a different state");
      }
      entry->repl_epoch = static_cast<std::uint64_t>(epoch->as_int());
      entry->repl_next_seq = 0;
      entry->repl_wal_base = have_revision;
      bump(&ServerStats::repl_snapshots_installed);
      reply = ack_reply(*entry);
    }
    maybe_evict_after(hash);
    return reply;
  }

  Json handle_repl_append(const Json& request) {
    const Json* sid = request.get("session");
    const Json* epoch_j = request.get("epoch");
    const Json* wal_base_j = request.get("wal_base");
    const Json* seq_j = request.get("seq");
    const Json* records_j = request.get("records");
    std::uint64_t hash = 0;
    if (sid == nullptr || !sid->is_string() ||
        !parse_hex16(sid->as_string(), &hash) || epoch_j == nullptr ||
        !epoch_j->is_number() || wal_base_j == nullptr ||
        !wal_base_j->is_number() || seq_j == nullptr || !seq_j->is_number() ||
        records_j == nullptr || !records_j->is_array()) {
      return bad_request("malformed repl_append");
    }
    const auto epoch = static_cast<std::uint64_t>(epoch_j->as_int());
    const auto wal_base = static_cast<std::uint64_t>(wal_base_j->as_int());
    const auto seq = static_cast<std::uint64_t>(seq_j->as_int());

    std::shared_ptr<SessionEntry> entry = find_entry(hash);
    if (entry == nullptr) return resync_reply(hash);

    base::MutexLock lock(entry->mutex);
    entry->last_touch = touch_clock.fetch_add(1, std::memory_order_relaxed);
    if (std::string err = ensure_live(*entry); !err.empty()) {
      bump(&ServerStats::repl_rejects);
      return resync_reply(hash);
    }
    engine::SynthesisSession& session = *entry->session;

    // Cursor discipline: a batch must continue the known (epoch, seq)
    // stream -- duplicates are fine (replay skips already-applied
    // revisions; a retry after a lost ack lands here) -- or open the
    // next epoch at exactly the revision this replica already holds
    // (the primary's WAL was reset by a checkpoint while we were
    // caught up). Anything else is a gap: resync.
    bool follows = false;
    if (epoch == entry->repl_epoch && wal_base == entry->repl_wal_base &&
        seq <= entry->repl_next_seq) {
      follows = true;
    } else if (epoch > entry->repl_epoch && seq == 0 &&
               wal_base == session.graph().revision()) {
      entry->repl_epoch = epoch;
      entry->repl_next_seq = 0;
      entry->repl_wal_base = wal_base;
      follows = true;
    }
    if (!follows) {
      bump(&ServerStats::repl_rejects);
      return resync_reply(hash);
    }

    std::vector<persist::WalRecord> records;
    records.reserve(records_j->size());
    for (std::size_t i = 0; i < records_j->size(); ++i) {
      persist::WalRecord rec;
      if (!decode_record(*records_j->at(i), &rec)) {
        return bad_request(cat("record #", i, " malformed"));
      }
      records.push_back(rec);
    }

    if (persist::Error e = session.apply_records(records, "replication stream");
        !e.ok()) {
      // Unfollowable history (revision gap, an edit the graph
      // rejects): a half-applied replica must never be served.
      scrub_standby_session(*entry);
      bump(&ServerStats::repl_rejects);
      return resync_reply(hash);
    }
    session.flush_wal();
    entry->repl_next_seq =
        std::max(entry->repl_next_seq,
                 seq + static_cast<std::uint64_t>(records.size()));
    bump(&ServerStats::repl_appends_applied);
    bump(&ServerStats::repl_records_applied,
         static_cast<long long>(records.size()));

    // Self-check when the batch closes at a commit marker both sides
    // evaluated: wrong state is scrubbed here, not discovered at
    // promote time.
    const Json* want_rev = request.get("digest_revision");
    const Json* want_dig = request.get("digest");
    std::uint64_t want_digest = 0;
    if (want_rev != nullptr && want_rev->is_number() && want_dig != nullptr &&
        want_dig->is_string() &&
        parse_hex16(want_dig->as_string(), &want_digest) &&
        static_cast<std::uint64_t>(want_rev->as_int()) ==
            session.graph().revision() &&
        products_digest(session.products()) != want_digest) {
      scrub_standby_session(*entry);
      bump(&ServerStats::repl_divergences);
      bump(&ServerStats::repl_rejects);
      return resync_reply(hash, /*diverged=*/true);
    }
    return ack_reply(*entry);
  }

  Json handle_promote(const Json& request) {
    const bool was_standby =
        standby_mode.exchange(false, std::memory_order_relaxed);
    if (was_standby) {
      // Drain the apply queue: every in-flight repl apply holds its
      // entry mutex, so taking each one serializes promotion after
      // them; the dispatch role gate already refuses new appends.
      for (const auto& entry : all_entries()) {
        base::MutexLock lock(entry->mutex);
      }
      bump(&ServerStats::promotions);
    }
    // A promoted primary can immediately start streaming to the next
    // standby in the chain.
    if (const Json* target = request.get("replicate_to");
        target != nullptr && target->is_string() &&
        !target->as_string().empty()) {
      start_replicator(target->as_string());
    }
    Json reply = ok_reply();
    reply.set("was_standby", Json::boolean(was_standby));
    reply.set("live_sessions",
              num(live_sessions.load(std::memory_order_relaxed)));
    return reply;
  }

  Json handle_shutdown(const Json& /*request*/) {
    Json reply = ok_reply();
    trigger_shutdown();
    return reply;
  }

  // ---- Dispatch ------------------------------------------------------------

  /// Which role serves an op. A standby refuses the session verbs with
  /// code "standby" until promoted (serve::Client fails over on it); a
  /// primary refuses the repl_* verbs with bad_request "not a standby"
  /// (a fenced-off zombie primary must not keep writing). Refusals are
  /// answers to well-formed requests: not counted as bad requests.
  enum class Role { kAny, kPrimary, kStandby };

  struct Op {
    std::string_view name;
    Role role;
    Json (Impl::*handler)(const Json& request);
  };

  /// The protocol's verbs; protocol.hpp documents their requests.
  static const Op kOps[];

  Json dispatch(const std::string& payload);

  // ---- Transport -----------------------------------------------------------

  void connection_loop(int fd) {
    while (!shutting_down.load(std::memory_order_relaxed)) {
      struct pollfd pfd = {fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 200);
      if (ready < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (ready == 0) continue;  // idle; re-check the shutdown flag
      std::string payload;
      std::string error;
      if (!read_frame(fd, &payload, &error)) {
        if (!error.empty()) {
          // Protocol violation (e.g. oversized frame): tell the peer
          // why before hanging up, best effort.
          (void)write_frame(fd,
                            error_reply(kCodeBadRequest, error).render());
        }
        break;
      }
      bump(&ServerStats::requests);
      const Json reply = dispatch(payload);
      if (!write_frame(fd, reply.render())) break;
    }
  }

  /// Joins the connection threads that have finished and closes their
  /// sockets.
  void reap_connections() {
    std::erase_if(connections, [](const std::unique_ptr<Connection>& c) {
      if (!c->finished.load(std::memory_order_acquire)) return false;
      c->thread.join();
      ::close(c->fd);
      return true;
    });
  }

  void trigger_shutdown() noexcept {
    shutting_down.store(true, std::memory_order_relaxed);
    shutdown_cancel.request_cancel();
    if (wake_pipe[1] >= 0) {
      const char byte = 'x';
      // Best effort; the poll timeout is the fallback wake-up.
      (void)!::write(wake_pipe[1], &byte, 1);
    }
  }

  bool start(std::string* error) {
    if (options.socket_path.empty() || options.state_dir.empty()) {
      *error = "socket_path and state_dir are required";
      return false;
    }
    if (!make_dirs(options.state_dir)) {
      *error = cat("mkdir ", options.state_dir, ": ", base::errno_text(errno));
      return false;
    }
    sweep_stale_temps(options.state_dir);
    if (::pipe(wake_pipe) != 0) {
      *error = cat("pipe: ", base::errno_text(errno));
      return false;
    }
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    if (options.socket_path.size() >= sizeof addr.sun_path) {
      *error = cat("socket path too long: ", options.socket_path);
      return false;
    }
    std::memcpy(addr.sun_path, options.socket_path.c_str(),
                options.socket_path.size() + 1);
    listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0) {
      *error = cat("socket: ", base::errno_text(errno));
      return false;
    }
    // A previous hard kill leaves the socket file behind; it is dead
    // (no listener), so replacing it is safe.
    ::unlink(options.socket_path.c_str());
    if (::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(listen_fd, 128) != 0) {
      *error = cat("bind/listen ", options.socket_path, ": ",
                   base::errno_text(errno));
      ::close(listen_fd);
      listen_fd = -1;
      return false;
    }
    if (!options.replicate_to.empty()) {
      start_replicator(options.replicate_to);
    }
    return true;
  }

  void serve_forever() {
    while (!shutting_down.load(std::memory_order_relaxed)) {
      struct pollfd fds[2] = {{listen_fd, POLLIN, 0},
                              {wake_pipe[0], POLLIN, 0}};
      const int ready = ::poll(fds, 2, 500);
      if (ready < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (ready == 0 || (fds[1].revents & POLLIN) != 0) continue;
      if ((fds[0].revents & POLLIN) == 0) continue;
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      reap_connections();
      if (static_cast<int>(connections.size()) >= options.max_connections) {
        bump(&ServerStats::shed_connections);
        (void)write_frame(
            fd, retry_reply(options.retry_after_ms, "connection limit")
                    .render());
        ::close(fd);
        continue;
      }
      auto conn = std::make_unique<Connection>();
      Connection* c = conn.get();
      c->fd = fd;
      c->thread = std::thread([this, c] {
        connection_loop(c->fd);
        c->finished.store(true, std::memory_order_release);
      });
      connections.push_back(std::move(conn));
    }

    // Drain: stop accepting, cancel in-flight resolves, join every
    // connection thread, persist. Shutting the sockets' read side wakes
    // a thread parked in poll() or stalled mid-frame on a silent peer,
    // while a reply in flight (the "shutdown" ack among them) still
    // goes out. A thread still running after the grace period is stuck
    // in send() to a peer that stopped reading: shutting the write side
    // too fails that send. Joining, not waiting on a count, means no
    // connection thread outlives serve_forever(), so ~Server never
    // frees state a connection still reads.
    shutting_down.store(true, std::memory_order_relaxed);
    ::close(listen_fd);
    listen_fd = -1;
    ::unlink(options.socket_path.c_str());
    shutdown_cancel.request_cancel();
    for (const std::unique_ptr<Connection>& c : connections) {
      (void)::shutdown(c->fd, SHUT_RD);
    }
    const auto grace_end = std::chrono::steady_clock::now() + kDrainGrace;
    const auto all_finished = [this] {
      return std::all_of(connections.begin(), connections.end(),
                         [](const std::unique_ptr<Connection>& c) {
                           return c->finished.load(std::memory_order_acquire);
                         });
    };
    while (!all_finished() && std::chrono::steady_clock::now() < grace_end) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    for (const std::unique_ptr<Connection>& c : connections) {
      if (!c->finished.load(std::memory_order_acquire)) {
        (void)::shutdown(c->fd, SHUT_RDWR);
      }
    }
    for (const std::unique_ptr<Connection>& c : connections) {
      c->thread.join();
      ::close(c->fd);
    }
    connections.clear();
    // The replication thread takes entry mutexes for its snapshot
    // hook; stop it before checkpoint_all so the two never interleave.
    stop_replicator();
    checkpoint_all();
  }

  ~Impl() {
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_pipe[0] >= 0) ::close(wake_pipe[0]);
    if (wake_pipe[1] >= 0) ::close(wake_pipe[1]);
  }
};

const Server::Impl::Op Server::Impl::kOps[] = {
    {"ping", Role::kAny, &Impl::handle_ping},
    {"stats", Role::kAny, &Impl::handle_stats},
    {"shutdown", Role::kAny, &Impl::handle_shutdown},
    {"promote", Role::kAny, &Impl::handle_promote},
    {"open", Role::kPrimary, &Impl::handle_open},
    {"edit", Role::kPrimary, &Impl::handle_edit},
    {"resolve", Role::kPrimary, &Impl::handle_resolve},
    {"evict", Role::kPrimary, &Impl::handle_evict},
    {"close", Role::kPrimary, &Impl::handle_close},
    {"repl_subscribe", Role::kStandby, &Impl::handle_repl_subscribe},
    {"repl_snapshot", Role::kStandby, &Impl::handle_repl_snapshot},
    {"repl_append", Role::kStandby, &Impl::handle_repl_append},
};

Json Server::Impl::dispatch(const std::string& payload) {
  std::string parse_error;
  std::optional<Json> request = Json::parse(payload, &parse_error);
  if (!request.has_value() || !request->is_object()) {
    return bad_request(parse_error.empty() ? "request is not a JSON object"
                                           : parse_error);
  }
  const Json* op = request->get("op");
  if (op == nullptr || !op->is_string()) return bad_request("missing op");
  if (shutting_down.load(std::memory_order_relaxed)) {
    return error_reply(kCodeShuttingDown, "server is shutting down");
  }
  const std::string& name = op->as_string();
  const Op* row = std::find_if(std::begin(kOps), std::end(kOps),
                               [&](const Op& o) { return o.name == name; });
  if (row == std::end(kOps)) {
    return bad_request(cat("unknown op \"", name, "\""));
  }
  const bool standby = standby_mode.load(std::memory_order_relaxed);
  if (row->role == Role::kPrimary && standby) {
    return error_reply(kCodeStandby,
                       "standby: promote this daemon before session ops");
  }
  if (row->role == Role::kStandby && !standby) {
    return error_reply(kCodeBadRequest, "not a standby");
  }
  try {
    return (this->*(row->handler))(*request);
  } catch (const std::exception& ex) {
    // Last-ditch isolation: no request may take the process down.
    bump(&ServerStats::internal_errors);
    return error_reply(kCodeInternal, ex.what());
  }
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      impl_(std::make_unique<Impl>(options_)) {}

Server::~Server() = default;

bool Server::start(std::string* error) { return impl_->start(error); }

void Server::serve_forever() { impl_->serve_forever(); }

void Server::shutdown() noexcept { impl_->trigger_shutdown(); }

}  // namespace relsched::serve
