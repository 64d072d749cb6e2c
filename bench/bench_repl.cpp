// Replication chaos gate for relsched_serve: failover must lose
// nothing the client was told is safe.
//
// Phase 1 (failover):
//   standby B <-- primary A <-- client pool
//   The harness re-execs itself as both daemons (--serve-child). A
//   runs with RELSCHED_CHECKPOINT_SYNC=always, FaultFs injection, and
//   --replicate-to B, so every committed edit is streamed to B and a
//   client ack doubles as a semi-sync replication ack. A chaos thread
//   SIGKILLs the primary at randomized points mid-stream, promotes the
//   standby ({"op":"promote","replicate_to":<fresh standby>}), and
//   repoints the clients; each promoted primary streams onward to a
//   freshly spawned standby, so every kill cycle exercises bootstrap,
//   steady-state streaming, and promotion.
//
//   Hard gates (exit nonzero):
//     - no acknowledged edit is ever lost: a non-degraded "ok" reply
//       means the edit was acked by the standby, so after a kill +
//       promote the session's revision must cover it;
//     - every post-failover reply digest is bit-identical to a serial
//       single-process oracle running the same deterministic script;
//     - every session finishes its full script despite the kills;
//     - a final resolve on the last promoted primary reproduces the
//       oracle's final digest for every session (the whole chain
//       converged, not just the acked prefix);
//     - zero divergences (clean streams must never trip the digest
//       oracle), zero quarantined sessions, zero leaked temp files
//       once a daemon has started (running the startup janitor) on
//       every killed primary's state directory.
//
// Phase 2 (divergence injection):
//   A fresh primary/standby pair runs with --repl-corrupt-at N: the
//   primary corrupts the Nth streamed edit record in the outgoing
//   frame only (its own WAL stays correct). The digest oracle must
//   catch the divergence (counted on both sides), quarantine the
//   stream, and heal it by re-shipping a snapshot; the gate promotes
//   the standby afterwards and requires its state to be bit-identical
//   to the oracle -- wrong state must be healed, never served.
//
// Counters from both phases -- including the FaultFs fault counters
// and WAL retry totals now exposed by the "stats" op -- are recorded
// in BENCH_repl.json. --check-only shrinks the run for CI/sanitizers.
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "cg/graph_io.hpp"
#include "engine/session.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve_script.hpp"

extern char** environ;

namespace {

using relsched::benchio::edit_request;
using relsched::serve::Json;

constexpr relsched::benchio::ServeScript kScript{
    .salt = 0x5e971ULL, .design_seed = 4200, .small_vertices = 64,
    .base_vertices = 80, .vertex_steps = 4, .vertex_step = 12,
    .max_anchors = 5, .name = "repl"};

struct Config {
  int sessions = 16;
  int edits_per_session = 24;
  int clients = 8;
  int kills = 2;
  bool check_only = false;
  std::string faults = "11,120,60,90,30";  // seed,write,fsync,rename,enospc
  std::string out_json = "BENCH_repl.json";
};

// ---- Daemon child management -----------------------------------------------

struct ChildSpec {
  std::string socket_path;
  std::string state_dir;
  std::string replicate_to;     // primary role when non-empty
  bool standby = false;         // standby role
  long long corrupt_at = 0;     // phase-2 chaos knob
  std::string faults;           // RELSCHED_FAULTFS, "" = clean
};

pid_t spawn_daemon(const std::string& self_exe, const ChildSpec& spec) {
  std::vector<std::string> args = {
      self_exe,      "--serve-child",
      "--socket",    spec.socket_path,
      "--state-dir", spec.state_dir,
      "--max-live",  "8",  // below the session count: eviction churn
      "--deadline-ms", "30000",
  };
  if (spec.standby) args.push_back("--standby");
  if (!spec.replicate_to.empty()) {
    args.push_back("--replicate-to");
    args.push_back(spec.replicate_to);
  }
  if (spec.corrupt_at > 0) {
    args.push_back("--repl-corrupt-at");
    args.push_back(std::to_string(spec.corrupt_at));
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  std::vector<std::string> env_store;
  std::vector<char*> envp;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "RELSCHED_CHECKPOINT_SYNC=", 25) == 0) continue;
    if (std::strncmp(*e, "RELSCHED_FAULTFS=", 17) == 0) continue;
    envp.push_back(*e);
  }
  env_store.push_back("RELSCHED_CHECKPOINT_SYNC=always");
  if (!spec.faults.empty() && spec.faults != "off") {
    env_store.push_back("RELSCHED_FAULTFS=" + spec.faults);
  }
  for (std::string& e : env_store) envp.push_back(e.data());
  envp.push_back(nullptr);

  pid_t pid = -1;
  if (::posix_spawn(&pid, self_exe.c_str(), nullptr, nullptr, argv.data(),
                    envp.data()) != 0) {
    return -1;
  }
  return pid;
}

struct Harness {
  Config config;
  std::string self_exe;
  std::string root;

  /// Current topology, updated by the chaos thread at each promote.
  /// Clients read a snapshot; stale reads just cost one retry.
  std::mutex topo_mutex;
  std::string primary_socket;
  std::string standby_socket;
  pid_t primary_pid = -1;
  pid_t standby_pid = -1;

  std::atomic<bool> done{false};
  std::atomic<long long> failures{0};
  std::atomic<long long> requests_ok{0};
  std::atomic<long long> reconnects{0};
  std::atomic<long long> failovers_survived{0};
  std::atomic<long long> degraded_acks_seen{0};
  std::atomic<long long> digest_mismatches{0};

  void fail(const std::string& why) {
    failures.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "bench_repl: FAIL: %s\n", why.c_str());
  }

  std::vector<std::string> client_sockets() {
    std::lock_guard<std::mutex> lock(topo_mutex);
    // Primary first; a sweep that lands on the standby gets a
    // structured "standby" refusal and retries -- that IS the failover
    // dance serve::Client users run.
    return {primary_socket, standby_socket};
  }
};

/// Drives one session's script against whichever daemon is currently
/// primary, surviving kills and promotions. `acked_floor` is the
/// tentpole gate: the highest applied count a non-degraded "ok" reply
/// acknowledged -- after any failover the session must still cover it.
void drive_session(Harness& h, int session, const std::string& design_text,
                   const std::vector<std::string>& oracle) {
  const int steps = h.config.edits_per_session;
  const int vertices = [&] {
    relsched::cg::ParseResult p = relsched::cg::from_text(design_text);
    return p.ok() ? p.graph->vertex_count() : 0;
  }();

  relsched::serve::Client client;
  client.set_io_timeout(std::chrono::milliseconds(20000));
  std::string sid;
  long long base_revision = 0;
  long long applied = 0;
  long long acked_floor = 0;

  auto reopen = [&]() -> bool {
    client.close();
    std::string error;
    if (!client.connect_any(h.client_sockets(), std::chrono::seconds(20),
                            &error)) {
      return false;
    }
    Json request = Json::object();
    request.set("op", Json::string("open"));
    request.set("design_text", Json::string(design_text));
    Json reply;
    if (!client.call_with_backoff(request, &reply, std::chrono::seconds(30),
                                  &error)) {
      client.close();
      return false;
    }
    const Json* ok = reply.get("ok");
    if (ok == nullptr || !ok->as_bool()) {
      const Json* code = reply.get("code");
      const std::string code_s = code != nullptr ? code->as_string() : "";
      if (code_s == relsched::serve::kCodeIo ||
          code_s == relsched::serve::kCodeShuttingDown ||
          code_s == relsched::serve::kCodeStandby) {
        client.close();
        return false;  // transient: mid-fault, mid-restart, mid-promote
      }
      h.fail("session " + std::to_string(session) +
             ": open rejected: " + reply.render());
      return false;
    }
    sid = reply.get("session")->as_string();
    base_revision = reply.get("base_revision") != nullptr
                        ? reply.get("base_revision")->as_int()
                        : 0;
    applied = reply.get("revision")->as_int() - base_revision;
    if (applied < 0 || applied > steps) {
      h.fail("session " + std::to_string(session) +
             ": impossible applied count " + std::to_string(applied));
      return false;
    }
    if (applied < acked_floor) {
      // THE replication gate: this edit was acked as replicated, then
      // lost across a kill + promote.
      h.fail("session " + std::to_string(session) + ": acked edit lost -- " +
             std::to_string(acked_floor) + " acked, only " +
             std::to_string(applied) + " survive failover");
      return false;
    }
    if (applied > 0) h.failovers_survived.fetch_add(1, std::memory_order_relaxed);
    return true;
  };

  int consecutive_failures = 0;
  while (!h.done.load(std::memory_order_relaxed)) {
    if (h.failures.load(std::memory_order_relaxed) > 0) return;
    if (consecutive_failures > 300) {
      h.fail("session " + std::to_string(session) +
             ": no progress after 300 attempts");
      return;
    }
    if (sid.empty() || !client.connected()) {
      if (!reopen()) {
        ++consecutive_failures;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
    }
    if (applied >= steps) break;

    const auto e = kScript.edit(session, static_cast<int>(applied), vertices);
    Json reply;
    std::string error;
    if (!client.call_with_backoff(edit_request(sid, e), &reply,
                                  std::chrono::seconds(30), &error)) {
      h.reconnects.fetch_add(1, std::memory_order_relaxed);
      client.close();
      sid.clear();
      ++consecutive_failures;
      continue;
    }
    const Json* ok = reply.get("ok");
    if (ok == nullptr || !ok->as_bool()) {
      const Json* code = reply.get("code");
      const std::string code_s =
          code != nullptr ? code->as_string() : "<none>";
      if (code_s == relsched::serve::kCodeRetryAfter) {
        // back off and retry below
      } else if (code_s == relsched::serve::kCodeShuttingDown ||
                 code_s == relsched::serve::kCodeUnknownSession ||
                 code_s == relsched::serve::kCodeStandby) {
        sid.clear();  // raced a kill or a promote; re-open resyncs
      } else {
        h.fail("session " + std::to_string(session) + " step " +
               std::to_string(applied) + ": " + reply.render());
        return;
      }
      ++consecutive_failures;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      continue;
    }
    consecutive_failures = 0;
    h.requests_ok.fetch_add(1, std::memory_order_relaxed);

    const long long revision = reply.get("revision")->as_int();
    const long long now_applied = revision - base_revision;
    if (now_applied != applied + 1) {
      h.fail("session " + std::to_string(session) + ": revision " +
             std::to_string(revision) + " implies " +
             std::to_string(now_applied) + " applied, expected " +
             std::to_string(applied + 1));
      return;
    }
    applied = now_applied;
    const std::string& digest = reply.get("digest")->as_string();
    const std::string& expected =
        oracle[static_cast<std::size_t>(applied - 1)];
    if (digest != expected) {
      h.digest_mismatches.fetch_add(1, std::memory_order_relaxed);
      h.fail("session " + std::to_string(session) + " step " +
             std::to_string(applied - 1) + ": digest " + digest +
             " != oracle " + expected);
      return;
    }
    if (reply.get("repl_degraded") != nullptr) {
      // Acked to the client but NOT known replicated: not covered by
      // the acked_floor guarantee (counted; kills make a few expected).
      h.degraded_acks_seen.fetch_add(1, std::memory_order_relaxed);
    } else {
      acked_floor = applied;
    }
  }
}

// ---- Phase orchestration ---------------------------------------------------

bool call_until_ok(const std::string& socket_path, const Json& request,
                   Json* reply, std::chrono::seconds budget,
                   std::string* error) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    relsched::serve::Client client;
    if (!client.connect(socket_path, std::chrono::seconds(5), error)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    if (client.call_with_backoff(request, reply, std::chrono::seconds(10),
                                 error)) {
      const Json* ok = reply->get("ok");
      if (ok != nullptr && ok->as_bool()) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

long long stat_of(const Json& stats, const char* key) {
  const Json* v = stats.get(key);
  return v != nullptr ? v->as_int(-1) : -1;
}

/// Graceful shutdown + exit-0 check; SIGKILL fallback so a wedged
/// daemon cannot hang the bench.
void stop_daemon(Harness& h, pid_t pid, const std::string& socket_path,
                 const char* what) {
  if (pid <= 0) return;
  Json bye = Json::object();
  bye.set("op", Json::string("shutdown"));
  Json ignored;
  std::string error;
  relsched::serve::Client client;
  if (client.connect(socket_path, std::chrono::seconds(5), &error)) {
    (void)client.call(bye, &ignored, &error);
  }
  for (int spins = 0; spins < 200; ++spins) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) {
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        h.fail(std::string(what) + " did not exit 0 on graceful shutdown");
      }
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  h.fail(std::string(what) + " ignored shutdown; SIGKILLed");
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
}

int run_phase1(Harness& h, const std::vector<std::string>& designs,
               const std::vector<std::vector<std::string>>& oracles,
               relsched::benchio::Json& out) {
  const Config& config = h.config;
  int standby_serial = 0;
  auto standby_spec = [&](int serial) {
    ChildSpec spec;
    spec.socket_path = h.root + "/standby" + std::to_string(serial) + ".sock";
    spec.state_dir = h.root + "/standby" + std::to_string(serial);
    spec.standby = true;
    return spec;
  };

  // State directories of the current roles and of every primary a
  // chaos kill took down; only the chaos thread changes them.
  std::string primary_dir;
  std::string standby_dir;
  std::vector<std::string> killed_dirs;
  {
    const ChildSpec sspec = standby_spec(standby_serial++);
    ChildSpec pspec;
    pspec.socket_path = h.root + "/primary.sock";
    pspec.state_dir = h.root + "/primary";
    pspec.replicate_to = sspec.socket_path;
    pspec.faults = config.faults;

    std::lock_guard<std::mutex> lock(h.topo_mutex);
    h.standby_pid = spawn_daemon(h.self_exe, sspec);
    h.primary_pid = spawn_daemon(h.self_exe, pspec);
    h.standby_socket = sspec.socket_path;
    h.primary_socket = pspec.socket_path;
    standby_dir = sspec.state_dir;
    primary_dir = pspec.state_dir;
    if (h.standby_pid <= 0 || h.primary_pid <= 0) {
      std::fprintf(stderr, "bench_repl: failed to spawn daemons\n");
      return 1;
    }
  }

  const auto wall_start = std::chrono::steady_clock::now();

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(config.clients));
  for (int w = 0; w < config.clients; ++w) {
    workers.emplace_back([&h, &designs, &oracles, w] {
      for (int s = w; s < h.config.sessions; s += h.config.clients) {
        if (h.failures.load(std::memory_order_relaxed) > 0) return;
        drive_session(h, s, designs[static_cast<std::size_t>(s)],
                      oracles[static_cast<std::size_t>(s)]);
      }
    });
  }

  // Chaos: SIGKILL the primary mid-stream, promote the standby into a
  // primary that replicates onward to a fresh standby, repoint clients.
  std::thread chaos([&] {
    // Progress-based trigger, not wall clock: each kill lands while a
    // known fraction of the workload is still in flight, so the gate
    // always exercises failover regardless of machine speed. The poll
    // is fine-grained because a whole --check-only workload can finish
    // in a few tens of milliseconds.
    const long long total = static_cast<long long>(h.config.sessions) *
                            h.config.edits_per_session;
    for (int k = 0; k < h.config.kills; ++k) {
      const long long threshold = total * (k + 1) / (h.config.kills + 2);
      while (!h.done.load(std::memory_order_relaxed) &&
             h.requests_ok.load(std::memory_order_relaxed) < threshold) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (h.done.load(std::memory_order_relaxed)) return;

      pid_t old_primary = -1;
      std::string promote_target;
      {
        std::lock_guard<std::mutex> lock(h.topo_mutex);
        old_primary = h.primary_pid;
        promote_target = h.standby_socket;
      }
      std::fprintf(stderr, "bench_repl: chaos kill #%d (SIGKILL primary)\n",
                   k + 1);
      ::kill(old_primary, SIGKILL);
      int status = 0;
      ::waitpid(old_primary, &status, 0);
      killed_dirs.push_back(primary_dir);

      const ChildSpec next = standby_spec(standby_serial++);
      const pid_t next_pid = spawn_daemon(h.self_exe, next);
      if (next_pid <= 0) {
        h.fail("chaos: failed to spawn replacement standby");
        return;
      }
      Json promote = Json::object();
      promote.set("op", Json::string("promote"));
      promote.set("replicate_to", Json::string(next.socket_path));
      Json reply;
      std::string error;
      if (!call_until_ok(promote_target, promote, &reply,
                         std::chrono::seconds(20), &error)) {
        h.fail("chaos: promote failed: " + error);
        return;
      }
      if (reply.get("was_standby") == nullptr ||
          !reply.get("was_standby")->as_bool()) {
        h.fail("chaos: promoted a daemon that was not a standby");
        return;
      }
      {
        std::lock_guard<std::mutex> lock(h.topo_mutex);
        h.primary_pid = h.standby_pid;
        h.primary_socket = promote_target;
        h.standby_pid = next_pid;
        h.standby_socket = next.socket_path;
      }
      primary_dir = standby_dir;
      standby_dir = next.state_dir;
      std::fprintf(stderr, "bench_repl: promoted %s, new standby %s\n",
                   promote_target.c_str(), next.socket_path.c_str());
    }
  });

  for (std::thread& t : workers) t.join();
  h.done.store(true, std::memory_order_relaxed);
  chaos.join();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();

  if (config.kills > 0 &&
      h.failovers_survived.load(std::memory_order_relaxed) == 0 &&
      h.failures.load(std::memory_order_relaxed) == 0) {
    h.fail("chaos kills never interrupted the stream: the failover path "
           "was not exercised");
  }

  std::string primary_socket;
  std::string standby_socket;
  pid_t primary_pid = -1;
  pid_t standby_pid = -1;
  {
    std::lock_guard<std::mutex> lock(h.topo_mutex);
    primary_socket = h.primary_socket;
    standby_socket = h.standby_socket;
    primary_pid = h.primary_pid;
    standby_pid = h.standby_pid;
  }

  // Convergence sweep: the surviving primary must reproduce the
  // oracle's FINAL digest for every session, not just the acked
  // prefixes the clients tracked.
  if (h.failures.load(std::memory_order_relaxed) == 0) {
    relsched::serve::Client client;
    std::string error;
    if (!client.connect(primary_socket, std::chrono::seconds(10), &error)) {
      h.fail("convergence sweep connect: " + error);
    } else {
      for (int s = 0; s < config.sessions; ++s) {
        Json open = Json::object();
        open.set("op", Json::string("open"));
        open.set("design_text",
                 Json::string(designs[static_cast<std::size_t>(s)]));
        Json reply;
        if (!client.call_with_backoff(open, &reply, std::chrono::seconds(30),
                                      &error) ||
            reply.get("ok") == nullptr || !reply.get("ok")->as_bool()) {
          h.fail("convergence sweep: open session " + std::to_string(s));
          break;
        }
        Json resolve = Json::object();
        resolve.set("op", Json::string("resolve"));
        resolve.set("session", Json::string(
                                   reply.get("session")->as_string()));
        Json rreply;
        if (!client.call_with_backoff(resolve, &rreply,
                                      std::chrono::seconds(30), &error) ||
            rreply.get("ok") == nullptr || !rreply.get("ok")->as_bool()) {
          h.fail("convergence sweep: resolve session " + std::to_string(s));
          break;
        }
        const std::string& digest = rreply.get("digest")->as_string();
        const std::string& expected =
            oracles[static_cast<std::size_t>(s)].back();
        if (digest != expected) {
          h.digest_mismatches.fetch_add(1, std::memory_order_relaxed);
          h.fail("convergence sweep: session " + std::to_string(s) +
                 " digest " + digest + " != oracle " + expected);
        }
      }
    }
  }

  // Stats gates on the surviving primary: clean streams never diverge,
  // injected I/O faults never poison sessions. Also the satellite
  // check: the stats op must surface the FaultFs and WAL-retry
  // counters (>= 0 proves the fields exist; the primary ran clean
  // after promote, so totals may legitimately be zero).
  Json stats;
  {
    Json request = Json::object();
    request.set("op", Json::string("stats"));
    std::string error;
    if (!call_until_ok(primary_socket, request, &stats,
                       std::chrono::seconds(10), &error)) {
      h.fail("final stats: " + error);
    } else {
      if (stat_of(stats, "repl_stream_divergences") != 0) {
        h.fail("clean run reported stream divergences");
      }
      if (stat_of(stats, "quarantined_sessions") != 0) {
        h.fail("quarantined sessions after chaos run");
      }
      if (stat_of(stats, "faultfs_total") < 0 ||
          stat_of(stats, "wal_retries_live") < 0) {
        h.fail("stats op is missing fault/WAL-retry counters");
      }
    }
  }

  stop_daemon(h, primary_pid, primary_socket, "primary");
  stop_daemon(h, standby_pid, standby_socket, "standby");

  // A chaos SIGKILL can land inside the dead primary's snapshot write
  // and strand its temp file. The recovery contract for such temps is
  // the startup janitor, so run it: start and stop a daemon once on
  // every killed primary's state directory, then count.
  for (std::size_t k = 0; k < killed_dirs.size(); ++k) {
    ChildSpec spec;
    spec.socket_path = h.root + "/janitor" + std::to_string(k) + ".sock";
    spec.state_dir = killed_dirs[k];
    const pid_t pid = spawn_daemon(h.self_exe, spec);
    if (pid <= 0) {
      h.fail("janitor: failed to spawn a daemon on " + spec.state_dir);
    } else {
      stop_daemon(h, pid, spec.socket_path, "janitor daemon");
    }
  }

  long long leaked_temps = 0;
  {
    const std::string cmd = "find " + h.root + " -name '*.tmp.*' | wc -l";
    if (FILE* p = ::popen(cmd.c_str(), "r")) {
      if (std::fscanf(p, "%lld", &leaked_temps) != 1) leaked_temps = -1;
      ::pclose(p);
    }
  }
  if (leaked_temps != 0) {
    h.fail("leaked temp files: " + std::to_string(leaked_temps));
  }

  out.field("sessions", config.sessions);
  out.field("edits_per_session", config.edits_per_session);
  out.field("clients", config.clients);
  out.field("kills", config.kills);
  out.field("faults", config.faults);
  out.field("wall_seconds", wall_s);
  out.field("requests_ok", h.requests_ok.load());
  out.field("reconnects", h.reconnects.load());
  out.field("failovers_survived", h.failovers_survived.load());
  out.field("degraded_acks_seen", h.degraded_acks_seen.load());
  out.field("digest_mismatches", h.digest_mismatches.load());
  out.field("leaked_temp_files", leaked_temps);
  out.field("final_repl_records_shipped",
            stat_of(stats, "repl_records_shipped"));
  out.field("final_repl_snapshots_shipped",
            stat_of(stats, "repl_snapshots_shipped"));
  out.field("final_repl_degraded_acks", stat_of(stats, "repl_degraded_acks"));
  out.field("final_faultfs_total", stat_of(stats, "faultfs_total"));
  out.field("final_wal_retries_live", stat_of(stats, "wal_retries_live"));
  return h.failures.load() == 0 ? 0 : 1;
}

/// Phase 2: the primary corrupts one streamed record; the digest
/// oracle must detect, count, and heal it -- the standby's final state
/// must still be bit-identical to the serial oracle.
int run_phase2(Harness& h, relsched::benchio::Json& out) {
  const int steps = std::max(10, h.config.edits_per_session / 2);
  const relsched::cg::ConstraintGraph g = kScript.design(97, true);
  const std::string design_text = relsched::cg::to_text(g);
  const std::vector<std::string> oracle =
      kScript.oracle_digests(g, 97, steps);

  ChildSpec sspec;
  sspec.socket_path = h.root + "/p2_standby.sock";
  sspec.state_dir = h.root + "/p2_standby";
  sspec.standby = true;
  ChildSpec pspec;
  pspec.socket_path = h.root + "/p2_primary.sock";
  pspec.state_dir = h.root + "/p2_primary";
  pspec.replicate_to = sspec.socket_path;
  pspec.corrupt_at = 4;  // corrupt the 4th streamed edit record

  const pid_t standby_pid = spawn_daemon(h.self_exe, sspec);
  const pid_t primary_pid = spawn_daemon(h.self_exe, pspec);
  if (standby_pid <= 0 || primary_pid <= 0) {
    h.fail("phase2: failed to spawn daemons");
    return 1;
  }

  // Drive the whole script; the corruption and its healing happen on
  // the replication stream underneath these acked edits.
  std::string sid;
  {
    Json open = Json::object();
    open.set("op", Json::string("open"));
    open.set("design_text", Json::string(design_text));
    Json reply;
    std::string error;
    if (!call_until_ok(pspec.socket_path, open, &reply,
                       std::chrono::seconds(20), &error)) {
      h.fail("phase2: open: " + error);
      return 1;
    }
    sid = reply.get("session")->as_string();
  }
  {
    relsched::serve::Client client;
    client.set_io_timeout(std::chrono::milliseconds(20000));
    std::string error;
    if (!client.connect(pspec.socket_path, std::chrono::seconds(10),
                        &error)) {
      h.fail("phase2: connect: " + error);
      return 1;
    }
    for (int j = 0; j < steps; ++j) {
      const auto e = kScript.edit(97, j, g.vertex_count());
      Json reply;
      if (!client.call_with_backoff(edit_request(sid, e), &reply,
                                    std::chrono::seconds(30), &error) ||
          reply.get("ok") == nullptr || !reply.get("ok")->as_bool()) {
        h.fail("phase2: edit " + std::to_string(j) + " failed");
        return 1;
      }
      if (reply.get("digest")->as_string() !=
          oracle[static_cast<std::size_t>(j)]) {
        h.fail("phase2: primary digest diverged from oracle (step " +
               std::to_string(j) + ")");
        return 1;
      }
    }
  }

  // The divergence must have been detected AND healed: wait until the
  // primary's stream counters say so.
  long long divergences = 0;
  long long snapshots = 0;
  {
    Json request = Json::object();
    request.set("op", Json::string("stats"));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      Json stats;
      std::string error;
      if (call_until_ok(pspec.socket_path, request, &stats,
                        std::chrono::seconds(5), &error)) {
        divergences = stat_of(stats, "repl_stream_divergences");
        snapshots = stat_of(stats, "repl_snapshots_shipped");
        // >= 2 snapshots: the initial bootstrap plus the healing
        // re-ship after the divergence was caught.
        if (divergences >= 1 && snapshots >= 2) break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  if (divergences < 1) {
    h.fail("phase2: injected corruption was never detected as divergence");
  }
  if (snapshots < 2) {
    h.fail("phase2: divergence was not healed by a snapshot re-ship");
  }

  // Healing proof: promote the standby and its state must be
  // bit-identical to the oracle -- wrong state detected is only half
  // the contract; wrong state must also never be served.
  if (h.failures.load(std::memory_order_relaxed) == 0) {
    // Let the re-shipped snapshot + tail drain before fencing off the
    // primary (its ack wait already bounds this, but be explicit).
    Json promote = Json::object();
    promote.set("op", Json::string("promote"));
    Json reply;
    std::string error;
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    if (!call_until_ok(sspec.socket_path, promote, &reply,
                       std::chrono::seconds(10), &error)) {
      h.fail("phase2: promote: " + error);
    } else {
      Json open = Json::object();
      open.set("op", Json::string("open"));
      open.set("design_text", Json::string(design_text));
      Json oreply;
      if (!call_until_ok(sspec.socket_path, open, &oreply,
                         std::chrono::seconds(10), &error)) {
        h.fail("phase2: open on promoted standby: " + error);
      } else {
        Json resolve = Json::object();
        resolve.set("op", Json::string("resolve"));
        resolve.set("session",
                    Json::string(oreply.get("session")->as_string()));
        Json rreply;
        if (!call_until_ok(sspec.socket_path, resolve, &rreply,
                           std::chrono::seconds(10), &error)) {
          h.fail("phase2: resolve on promoted standby: " + error);
        } else if (rreply.get("digest")->as_string() != oracle.back()) {
          h.fail("phase2: promoted standby serves diverged state: " +
                 rreply.get("digest")->as_string() + " != " + oracle.back());
        }
      }
    }
  }

  stop_daemon(h, primary_pid, pspec.socket_path, "phase2 primary");
  stop_daemon(h, standby_pid, sspec.socket_path, "phase2 standby");

  out.field("phase2_divergences_detected", divergences);
  out.field("phase2_snapshots_shipped", snapshots);
  out.field("phase2_healed", h.failures.load() == 0);
  return h.failures.load() == 0 ? 0 : 1;
}

int run_serve_child(int argc, char** argv);

int run_harness(const Config& config, const std::string& self_exe) {
  char dir_template[] = "/tmp/relsched_repl_bench_XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) {
    std::fprintf(stderr, "bench_repl: mkdtemp failed\n");
    return 1;
  }

  std::fprintf(stderr,
               "bench_repl: %d sessions x %d edits, %d clients, %d kills, "
               "faults=%s\n",
               config.sessions, config.edits_per_session, config.clients,
               config.kills, config.faults.c_str());

  std::vector<std::string> designs;
  std::vector<std::vector<std::string>> oracles;
  designs.reserve(static_cast<std::size_t>(config.sessions));
  for (int i = 0; i < config.sessions; ++i) {
    const relsched::cg::ConstraintGraph g =
        kScript.design(i, config.check_only);
    designs.push_back(relsched::cg::to_text(g));
    oracles.push_back(kScript.oracle_digests(g, i, config.edits_per_session));
  }
  std::fprintf(stderr, "bench_repl: oracle digests computed\n");

  Harness h;
  h.config = config;
  h.self_exe = self_exe;
  h.root = dir_template;

  relsched::benchio::Json out = relsched::benchio::Json::object();
  out.field("bench", "repl");
  out.field("mode", config.check_only ? "check-only" : "full");

  const int rc1 = run_phase1(h, designs, oracles, out);
  const int rc2 = run_phase2(h, out);
  const bool pass = rc1 == 0 && rc2 == 0;

  out.field("pass", pass);
  out.write(config.out_json);
  std::fprintf(stderr,
               "bench_repl: %lld ok requests, %lld failovers survived, "
               "%lld degraded acks, phase2 healed=%d -> %s\n",
               h.requests_ok.load(), h.failovers_survived.load(),
               h.degraded_acks_seen.load(), rc2 == 0 ? 1 : 0,
               pass ? "PASS" : "FAIL");

  if (pass) {
    const std::string cleanup = "rm -rf " + h.root;
    (void)!::system(cleanup.c_str());
    return 0;
  }
  std::fprintf(stderr, "bench_repl: state kept at %s\n", h.root.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Both roles write to sockets whose peer may be SIGKILLed at any
  // moment; that must be an EPIPE, not a death sentence.
  ::signal(SIGPIPE, SIG_IGN);
  if (argc >= 2 && std::strcmp(argv[1], "--serve-child") == 0) {
    return run_serve_child(argc, argv);
  }

  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check-only") {
      config.check_only = true;
      config.sessions = 8;
      config.edits_per_session = 12;
      config.clients = 4;
      config.kills = 1;
    } else if (arg == "--sessions" && i + 1 < argc) {
      config.sessions = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--edits" && i + 1 < argc) {
      config.edits_per_session = std::max(2, std::atoi(argv[++i]));
    } else if (arg == "--clients" && i + 1 < argc) {
      config.clients = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--kills" && i + 1 < argc) {
      config.kills = std::max(0, std::atoi(argv[++i]));
    } else if (arg == "--faults" && i + 1 < argc) {
      config.faults = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      config.out_json = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--check-only] [--sessions N] [--edits N] "
                   "[--clients N] [--kills N] [--faults SPEC|off] "
                   "[--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  config.clients = std::min(config.clients, config.sessions);

  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof self - 1);
  if (n <= 0) {
    std::fprintf(stderr, "bench_repl: cannot resolve /proc/self/exe\n");
    return 1;
  }
  self[n] = '\0';
  return run_harness(config, self);
}

namespace {

int run_serve_child(int argc, char** argv) {
  // argv[1] is --serve-child; the flags after it are relsched_serve's.
  relsched::serve::ServerOptions options;
  std::string error;
  if (!relsched::serve::parse_server_flags(argc - 1, argv + 1, &options,
                                           &error)) {
    std::fprintf(stderr, "bench_repl child: %s\n", error.c_str());
    return 2;
  }
  relsched::serve::Server server(std::move(options));
  if (!server.start(&error)) {
    std::fprintf(stderr, "bench_repl child: %s\n", error.c_str());
    return 1;
  }
  server.serve_forever();
  return 0;
}

}  // namespace
