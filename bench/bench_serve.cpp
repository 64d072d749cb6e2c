// Chaos load generator for relsched_serve: the robustness gate.
//
// The harness fork+execs the server (re-exec of this binary with
// --serve-child, so no path coupling), opens N concurrent sessions of
// distinct generated designs, and drives a deterministic per-session
// edit script from a pool of client threads while, in parallel:
//
//   - the server runs with RELSCHED_CHECKPOINT_SYNC=always and (full
//     mode) RELSCHED_FAULTFS injecting EINTR/EAGAIN/short-write/
//     ENOSPC/fsync/rename faults into every persist write path;
//   - a chaos thread SIGKILLs the server at random points and restarts
//     it against the same state directory;
//   - the live-session cap is set below N, so LRU eviction and
//     transparent snapshot restore churn continuously under load.
//
// Every edit/resolve reply carries a digest of the products (status
// byte + serialized relative schedule). A serial oracle -- one local
// SynthesisSession per design, same edit script, no server, no faults
// -- computes the same digests; any mismatch at any point is
// cross-session corruption or a broken recovery and fails the run.
// Clients resynchronize after a kill via the revision arithmetic the
// protocol guarantees (applied = revision - base_revision), which is
// also what makes a lost ack harmless: the server's revision, not the
// client's ack count, decides what is already applied.
//
// Hard gates (exit nonzero):
//   - every digest matches the serial oracle (bit-identity);
//   - every session completes its full script despite kills;
//   - zero quarantined sessions (injected I/O faults must be absorbed
//     by retry/heal, never misread as poison);
//   - zero leaked temp files in the state dir after shutdown;
//   - zero leaked sessions (known == opened before shutdown).
// Throughput and latency percentiles are recorded in BENCH_serve.json
// (advisory, not gated: chaos timing is machine-dependent).
//
// Modes: default is the full gate (64 sessions); --check-only shrinks
// to a CI/sanitizer-friendly size (16 sessions, 1 kill).
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
using relsched::benchio::mix64;
using relsched::serve::Json;

constexpr relsched::benchio::ServeScript kScript{
    .salt = 0xc0ffee, .design_seed = 1000, .small_vertices = 80,
    .base_vertices = 120, .vertex_steps = 5, .vertex_step = 16,
    .max_anchors = 6, .name = "serve"};

struct Config {
  int sessions = 64;
  int edits_per_session = 36;
  int clients = 16;
  int kills = 3;
  bool check_only = false;
  std::string faults = "7,150,80,120,40";  // seed,write,fsync,rename,enospc
  std::string out_json = "BENCH_serve.json";
  std::string socket_path;
  std::string state_dir;
};

// ---- Server child management ----------------------------------------------

pid_t spawn_server(const Config& config, const std::string& self_exe) {
  std::vector<std::string> args = {
      self_exe,       "--serve-child",  "--socket",
      config.socket_path, "--state-dir", config.state_dir,
      "--max-live",   std::to_string(std::max(2, config.sessions / 2)),
      "--max-pending", "8",
      "--max-pending-total", "256",
      "--deadline-ms", "30000",
  };
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  // The durability and fault knobs apply ONLY to the server child; the
  // oracle and the harness itself must run clean.
  std::vector<std::string> env_store;
  std::vector<char*> envp;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "RELSCHED_CHECKPOINT_SYNC=", 25) == 0) continue;
    if (std::strncmp(*e, "RELSCHED_FAULTFS=", 17) == 0) continue;
    envp.push_back(*e);
  }
  env_store.push_back("RELSCHED_CHECKPOINT_SYNC=always");
  if (!config.faults.empty() && config.faults != "off") {
    env_store.push_back("RELSCHED_FAULTFS=" + config.faults);
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
  std::mutex server_mutex;
  pid_t server_pid = -1;
  std::atomic<bool> done{false};
  std::atomic<long long> digest_mismatches{0};
  std::atomic<long long> requests_ok{0};
  std::atomic<long long> reconnects{0};
  std::atomic<long long> retry_after_seen{0};
  std::atomic<long long> failures{0};
  std::mutex latency_mutex;
  std::vector<double> latencies_us;

  void fail(const std::string& why) {
    failures.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "bench_serve: FAIL: %s\n", why.c_str());
  }

  void restart_server_locked() {
    server_pid = spawn_server(config, self_exe);
  }

  /// SIGKILL + restart, serialized so the chaos thread and the final
  /// shutdown cannot race on the pid.
  void kill_and_restart() {
    std::lock_guard<std::mutex> lock(server_mutex);
    if (server_pid > 0) {
      ::kill(server_pid, SIGKILL);
      int status = 0;
      ::waitpid(server_pid, &status, 0);
    }
    restart_server_locked();
  }

  void record_latency(double us) {
    std::lock_guard<std::mutex> lock(latency_mutex);
    latencies_us.push_back(us);
  }
};

/// Drives one session's full script, surviving server kills: on any
/// transport failure, reconnect, re-open, and resume from the applied
/// count the server's revision arithmetic reports.
void drive_session(Harness& h, int session, const std::string& design_text,
                   const std::vector<std::string>& oracle) {
  using Clock = std::chrono::steady_clock;
  const int steps = h.config.edits_per_session;
  const int vertices = [&] {
    relsched::cg::ParseResult p = relsched::cg::from_text(design_text);
    return p.ok() ? p.graph->vertex_count() : 0;
  }();

  relsched::serve::Client client;
  std::string sid;
  long long base_revision = 0;
  long long applied = 0;

  auto reopen = [&]() -> bool {
    std::string error;
    if (!client.connected() &&
        !client.connect(h.config.socket_path, std::chrono::seconds(20),
                        &error)) {
      h.fail("session " + std::to_string(session) + ": reconnect: " + error);
      return false;
    }
    Json request = Json::object();
    request.set("op", Json::string("open"));
    request.set("design_text", Json::string(design_text));
    Json reply;
    if (!client.call_with_backoff(request, &reply, std::chrono::seconds(30),
                                  &error)) {
      client.close();
      return false;  // transport died again; the caller's loop retries
    }
    const Json* ok = reply.get("ok");
    if (ok == nullptr || !ok->as_bool()) {
      // io / shutting_down opens are retryable (fault injection or a
      // restart race); anything else is a real protocol failure.
      const Json* code = reply.get("code");
      const std::string code_s = code != nullptr ? code->as_string() : "";
      if (code_s == relsched::serve::kCodeIo ||
          code_s == relsched::serve::kCodeShuttingDown) {
        return false;  // the caller's loop retries with backoff
      }
      h.fail("session " + std::to_string(session) +
             ": open rejected: " + reply.render());
      return false;
    }
    sid = reply.get("session")->as_string();
    base_revision = reply.get("revision") != nullptr &&
                            reply.get("base_revision") != nullptr
                        ? reply.get("base_revision")->as_int()
                        : 0;
    applied = reply.get("revision")->as_int() - base_revision;
    if (applied < 0 || applied > steps) {
      h.fail("session " + std::to_string(session) +
             ": impossible applied count " + std::to_string(applied));
      return false;
    }
    return true;
  };

  int consecutive_failures = 0;
  while (!h.done.load(std::memory_order_relaxed)) {
    if (consecutive_failures > 200) {
      h.fail("session " + std::to_string(session) +
             ": no progress after 200 attempts");
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
    const auto t0 = Clock::now();
    if (!client.call_with_backoff(edit_request(sid, e), &reply,
                                  std::chrono::seconds(30), &error)) {
      // Server died (kill window) or connection dropped: resync.
      h.reconnects.fetch_add(1, std::memory_order_relaxed);
      client.close();
      sid.clear();
      ++consecutive_failures;
      continue;
    }
    const double us = std::chrono::duration<double, std::micro>(
                          Clock::now() - t0)
                          .count();
    const Json* ok = reply.get("ok");
    if (ok == nullptr || !ok->as_bool()) {
      const Json* code = reply.get("code");
      const std::string code_s =
          code != nullptr ? code->as_string() : "<none>";
      if (code_s == relsched::serve::kCodeRetryAfter) {
        h.retry_after_seen.fetch_add(1, std::memory_order_relaxed);
      } else if (code_s == relsched::serve::kCodeShuttingDown ||
                 code_s == relsched::serve::kCodeUnknownSession) {
        // Raced a restart; re-open resyncs.
        sid.clear();
      } else {
        h.fail("session " + std::to_string(session) + " step " +
               std::to_string(applied) + ": " + reply.render());
        return;
      }
      ++consecutive_failures;
      continue;
    }
    consecutive_failures = 0;
    h.requests_ok.fetch_add(1, std::memory_order_relaxed);
    h.record_latency(us);

    // The server's revision decides how many edits are now applied --
    // this self-heals lost acks across SIGKILLs.
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

    // Periodically force the eviction/restore path under load, and
    // cross-check an explicit resolve against the same oracle digest.
    if (applied % 9 == 4) {
      Json evict = Json::object();
      evict.set("op", Json::string("evict"));
      evict.set("session", Json::string(sid));
      Json ignored;
      (void)client.call_with_backoff(evict, &ignored, std::chrono::seconds(5),
                                     &error);
    }
    if (applied % 7 == 3) {
      Json resolve = Json::object();
      resolve.set("op", Json::string("resolve"));
      resolve.set("session", Json::string(sid));
      Json rreply;
      if (client.call_with_backoff(resolve, &rreply, std::chrono::seconds(30),
                                   &error)) {
        const Json* rok = rreply.get("ok");
        if (rok != nullptr && rok->as_bool() &&
            rreply.get("digest")->as_string() != expected) {
          h.digest_mismatches.fetch_add(1, std::memory_order_relaxed);
          h.fail("session " + std::to_string(session) +
                 ": resolve digest diverged after evict/restore");
          return;
        }
      } else {
        client.close();
        sid.clear();
      }
    }
  }
}

int run_serve_child(int argc, char** argv);

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1));
  return values[idx];
}

int run_harness(const Config& config_in, const std::string& self_exe) {
  Config config = config_in;
  char dir_template[] = "/tmp/relsched_serve_bench_XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) {
    std::fprintf(stderr, "bench_serve: mkdtemp failed\n");
    return 1;
  }
  const std::string root = dir_template;
  config.socket_path = root + "/sock";
  config.state_dir = root + "/state";

  std::fprintf(stderr,
               "bench_serve: %d sessions x %d edits, %d clients, %d kills, "
               "faults=%s\n",
               config.sessions, config.edits_per_session, config.clients,
               config.kills, config.faults.c_str());

  // Designs + oracle digests, all serial and fault-free.
  std::vector<std::string> designs;
  std::vector<std::vector<std::string>> oracles;
  designs.reserve(static_cast<std::size_t>(config.sessions));
  for (int i = 0; i < config.sessions; ++i) {
    const relsched::cg::ConstraintGraph g =
        kScript.design(i, config.check_only);
    designs.push_back(relsched::cg::to_text(g));
    oracles.push_back(kScript.oracle_digests(g, i, config.edits_per_session));
  }
  std::fprintf(stderr, "bench_serve: oracle digests computed\n");

  Harness h;
  h.config = config;
  h.self_exe = self_exe;
  {
    std::lock_guard<std::mutex> lock(h.server_mutex);
    h.restart_server_locked();
    if (h.server_pid <= 0) {
      std::fprintf(stderr, "bench_serve: failed to spawn server\n");
      return 1;
    }
  }

  const auto wall_start = std::chrono::steady_clock::now();

  // Client pool: sessions partitioned round-robin across workers.
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

  // Chaos thread: SIGKILL + restart at deterministic-ish offsets.
  std::thread chaos([&h] {
    for (int k = 0; k < h.config.kills; ++k) {
      const int delay_ms =
          200 + static_cast<int>(mix64(static_cast<std::uint64_t>(k)) % 350);
      for (int waited = 0; waited < delay_ms && !h.done.load(); waited += 50) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      if (h.done.load(std::memory_order_relaxed)) return;
      std::fprintf(stderr, "bench_serve: chaos kill #%d\n", k + 1);
      h.kill_and_restart();
    }
  });

  for (std::thread& t : workers) t.join();
  h.done.store(true, std::memory_order_relaxed);
  chaos.join();

  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();

  // Final sweep on a healthy server: stats gates + graceful shutdown.
  long long quarantined = -1;
  long long known = -1;
  long long restores = -1;
  long long evictions = -1;
  {
    relsched::serve::Client client;
    std::string error;
    if (!client.connect(config.socket_path, std::chrono::seconds(10),
                        &error)) {
      h.fail("final stats connect: " + error);
    } else {
      Json request = Json::object();
      request.set("op", Json::string("stats"));
      Json reply;
      if (client.call_with_backoff(request, &reply, std::chrono::seconds(10),
                                   &error)) {
        quarantined = reply.get("quarantined_sessions")->as_int();
        known = reply.get("known_sessions")->as_int();
        restores = reply.get("restores")->as_int();
        evictions = reply.get("evictions")->as_int();
      } else {
        h.fail("final stats: " + error);
      }
      Json bye = Json::object();
      bye.set("op", Json::string("shutdown"));
      Json ignored;
      (void)client.call(bye, &ignored, &error);
    }
  }
  {
    std::lock_guard<std::mutex> lock(h.server_mutex);
    if (h.server_pid > 0) {
      int status = 0;
      ::waitpid(h.server_pid, &status, 0);
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        h.fail("server did not exit 0 on graceful shutdown");
      }
    }
  }

  if (quarantined != 0) {
    h.fail("quarantined_sessions = " + std::to_string(quarantined) +
           " (faults must be absorbed, not poison sessions)");
  }

  // Leak gates: temp files, plus one durable state dir per session (a
  // SIGKILL empties the in-memory map -- known_sessions is expected to
  // shrink -- but on-disk state must never go missing).
  long long leaked_temps = 0;
  {
    const std::string cmd =
        "find " + config.state_dir + " -name '*.tmp.*' | wc -l";
    if (FILE* p = ::popen(cmd.c_str(), "r")) {
      if (std::fscanf(p, "%lld", &leaked_temps) != 1) leaked_temps = -1;
      ::pclose(p);
    }
  }
  if (leaked_temps != 0) {
    h.fail("leaked temp files in state dir: " + std::to_string(leaked_temps));
  }
  long long state_dirs = 0;
  {
    const std::string cmd = "find " + config.state_dir +
                            " -mindepth 1 -maxdepth 1 -name 's-*' | wc -l";
    if (FILE* p = ::popen(cmd.c_str(), "r")) {
      if (std::fscanf(p, "%lld", &state_dirs) != 1) state_dirs = -1;
      ::pclose(p);
    }
  }
  if (state_dirs != config.sessions) {
    h.fail("expected " + std::to_string(config.sessions) +
           " session state dirs, found " + std::to_string(state_dirs));
  }

  std::vector<double> latencies;
  {
    std::lock_guard<std::mutex> lock(h.latency_mutex);
    latencies = h.latencies_us;
  }
  const double p50 = percentile(latencies, 0.50);
  const double p99 = percentile(latencies, 0.99);
  const double throughput =
      wall_s > 0 ? static_cast<double>(h.requests_ok.load()) / wall_s : 0;

  relsched::benchio::Json out = relsched::benchio::Json::object();
  out.field("bench", "serve");
  out.field("mode", config.check_only ? "check-only" : "full");
  out.field("sessions", config.sessions);
  out.field("edits_per_session", config.edits_per_session);
  out.field("clients", config.clients);
  out.field("kills", config.kills);
  out.field("faults", config.faults);
  out.field("requests_ok", h.requests_ok.load());
  out.field("reconnects", h.reconnects.load());
  out.field("retry_after_seen", h.retry_after_seen.load());
  out.field("digest_mismatches", h.digest_mismatches.load());
  out.field("server_restores", restores);
  out.field("server_evictions", evictions);
  out.field("known_sessions_before_shutdown", known);
  out.field("wall_seconds", wall_s);
  out.field("throughput_rps", throughput);
  out.field("latency_p50_us", p50);
  out.field("latency_p99_us", p99);
  out.field("leaked_temp_files", leaked_temps);
  out.field("session_state_dirs", state_dirs);
  out.field("pass", h.failures.load() == 0);
  out.write(config.out_json);
  std::fprintf(stderr,
               "bench_serve: %lld ok requests, %.0f rps, p50 %.0fus, "
               "p99 %.0fus, %lld reconnects, %lld restores -> %s\n",
               h.requests_ok.load(), throughput, p50, p99,
               h.reconnects.load(), restores,
               h.failures.load() == 0 ? "PASS" : "FAIL");

  if (h.failures.load() == 0) {
    const std::string cleanup = "rm -rf " + root;
    (void)!::system(cleanup.c_str());
    return 0;
  }
  std::fprintf(stderr, "bench_serve: state kept at %s\n", root.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A SIGKILLed server mid-call must cost the client an EPIPE, not the
  // whole harness.
  ::signal(SIGPIPE, SIG_IGN);
  // Child mode: this same binary re-execs as the server, so the
  // harness never depends on where relsched_serve was installed.
  if (argc >= 2 && std::strcmp(argv[1], "--serve-child") == 0) {
    return run_serve_child(argc, argv);
  }

  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check-only") {
      config.check_only = true;
      config.sessions = 16;
      config.edits_per_session = 14;
      config.clients = 8;
      config.kills = 1;
    } else if (arg == "--sessions" && i + 1 < argc) {
      config.sessions = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--edits" && i + 1 < argc) {
      config.edits_per_session = std::max(1, std::atoi(argv[++i]));
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
    std::fprintf(stderr, "bench_serve: cannot resolve /proc/self/exe\n");
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
    std::fprintf(stderr, "bench_serve child: %s\n", error.c_str());
    return 2;
  }
  relsched::serve::Server server(std::move(options));
  if (!server.start(&error)) {
    std::fprintf(stderr, "bench_serve child: %s\n", error.c_str());
    return 1;
  }
  server.serve_forever();
  return 0;
}

}  // namespace
