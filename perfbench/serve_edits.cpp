// serve_edits: the built relsched_serve daemon, default options (only
// the socket and state directory set), driven by 3 connections from
// this process in a closed loop. Each connection owns 8 sessions of a
// generated ~2,000-vertex design and goes round-robin over them.
//
//   op     an "edit" request of 1-4 edits (one transaction) from the
//          shared edit stream (perfbench/edits.hpp)
//   query  after every 50th edit on a connection, the session it just
//          edited is evicted; that session's next request is a
//          "resolve", which restores it from snapshot + WAL
//
// Per-request protocol, JSON, admission, WAL and thread overhead
// dominate. The engine's in-resolve pool is pinned to one worker for the
// daemon and the replay (RELSCHED_THREADS=1), as in hls_suite: on these
// 2,000-vertex sessions waking the pool's workers cost more than the
// parallel work saved (1,360 vs 1,020 edits/s back to back), and under
// host contention the default width fell to 396 edits/s. Every reply digest is checked against an in-process serial
// oracle that replays the session's acknowledged edits; in the traced
// run that replay also times the serve, engine, persist and certify
// layers one request at a time.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "certify/certify.hpp"
#include "cg/graph_io.hpp"
#include "common.hpp"
#include "edits.hpp"
#include "engine/session.hpp"
#include "persist/serialize.hpp"
#include "persist/wal.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace relsched;
using serve::Json;

constexpr int kConnections = 3;
constexpr int kSessionsPerConnection = 8;
constexpr int kSessions = kConnections * kSessionsPerConnection;
constexpr int kVertices = 2000;
constexpr int kEvictEvery = 50;
constexpr int kBatchesPerSession = 8000;
constexpr std::size_t kLayerReplay = 1500;
constexpr std::chrono::milliseconds kIoTimeout{30000};

struct SessionInput {
  std::string text;
  EditTargets targets;
  /// Edit batches in request order, 1-4 edits each.
  std::vector<std::vector<Edit>> batches;
};

/// One request the daemon acknowledged, in per-session order.
struct Record {
  int batch = -1;  // index into SessionInput::batches; -1 = resolve
  Json reply;
};

struct Daemon {
  pid_t pid = -1;
  std::string socket;
  std::string state_dir;
};

bool spawn_daemon(const Config& config, int instance, Daemon* d,
                  std::string* error) {
  namespace fs = std::filesystem;
  d->socket = config.work_dir + "/serve.sock";
  d->state_dir = config.work_dir + "/state";
  std::error_code ec;
  fs::remove_all(d->state_dir, ec);
  fs::create_directories(d->state_dir, ec);
  const std::string log =
      config.work_dir + "/serve-" + std::to_string(instance) + ".log";
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  std::vector<std::string> args = {config.serve_bin, "--socket", d->socket,
                                   "--state-dir", d->state_dir};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int rc = ::posix_spawn(&d->pid, argv[0], &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    *error = "cannot spawn " + config.serve_bin;
    d->pid = -1;
    return false;
  }
  return true;
}

/// Waits for the daemon to exit (killing it after `grace`); returns its
/// peak RSS in MiB, or a negative value when it did not exit cleanly.
double reap_daemon(Daemon& d, std::chrono::seconds grace) {
  if (d.pid < 0) return -1;
  const Clock::time_point start = Clock::now();
  int status = 0;
  rusage usage{};
  while (true) {
    const pid_t r = ::wait4(d.pid, &status, WNOHANG, &usage);
    if (r == d.pid) break;
    if (r < 0) return -1;
    if (Clock::now() - start > grace) {
      ::kill(d.pid, SIGKILL);
      ::wait4(d.pid, &status, 0, &usage);
      d.pid = -1;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  d.pid = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool call_ok(serve::Client& client, const Json& request, Json* reply,
             std::string* error) {
  if (!client.call(request, reply, error)) return false;
  const Json* ok = reply->get("ok");
  if (ok == nullptr || !ok->as_bool()) {
    *error = reply->render();
    return false;
  }
  return true;
}

Json op_request(const char* op) {
  Json r = Json::object();
  r.set("op", Json::string(op));
  return r;
}

Json session_request(const char* op, const std::string& id) {
  Json r = op_request(op);
  r.set("session", Json::string(id));
  return r;
}

Json edit_request(const std::string& id, const std::vector<Edit>& batch) {
  Json r = session_request("edit", id);
  Json edits = Json::array();
  for (const Edit& e : batch) edits.push(to_request(e));
  r.set("edits", std::move(edits));
  return r;
}

std::string digest_of(const Json& reply) {
  const Json* d = reply.get("digest");
  return d != nullptr ? d->as_string() : std::string();
}

/// State of one connection across set-up and the measured phases.
struct Connection {
  serve::Client client;
  int first_session = 0;  // owns [first, first + 8)
  std::vector<std::string> ids;
  std::vector<std::string> initial_digest;
  std::vector<std::vector<Record>> records;  // per owned session
  std::vector<std::size_t> cursor;           // next batch per session
  std::vector<bool> pending_query;
  long long edits_sent = 0;
  int turn = 0;
  bool broken = false;
  std::string error;
  // Per-phase outputs; completions in seconds since the phase started.
  Samples op_ms, query_ms;
  std::vector<double> done_s;
  Clock::time_point phase_start;
  long long ops = 0, attempted = 0, failed = 0;
};

/// Connects and opens (and first-resolves) this connection's sessions.
bool open_sessions(Connection& c, const Daemon& d,
                   const std::vector<SessionInput>& inputs) {
  c.client.close();
  c.client.set_io_timeout(kIoTimeout);
  if (!c.client.connect(d.socket, std::chrono::seconds(20), &c.error)) {
    return false;
  }
  c.ids.assign(kSessionsPerConnection, "");
  c.initial_digest.assign(kSessionsPerConnection, "");
  for (int j = 0; j < kSessionsPerConnection; ++j) {
    const SessionInput& in = inputs[c.first_session + j];
    Json open = Json::object();
    open.set("op", Json::string("open"));
    open.set("design_text", Json::string(in.text));
    Json reply;
    if (!call_ok(c.client, open, &reply, &c.error)) return false;
    c.ids[j] = reply.get("session")->as_string();
    if (!call_ok(c.client, session_request("resolve", c.ids[j]), &reply,
                 &c.error)) {
      return false;
    }
    c.initial_digest[j] = digest_of(reply);
  }
  return true;
}

/// One closed-loop phase on one connection.
void run_phase(Connection& c, const std::vector<SessionInput>& inputs,
               Clock::time_point deadline, Tracer& tracer) {
  // Op ids stay unique across the connections' tracers.
  long long op_id = static_cast<long long>(tracer.tid()) << 40;
  auto exchange = [&](const Json& request, Json* reply) {
    ++c.attempted;
    std::string error;
    if (!c.client.call(request, reply, &error)) {
      ++c.failed;
      c.broken = true;
      c.error = "transport: " + error;
      return false;
    }
    const Json* ok = reply->get("ok");
    if (ok == nullptr || !ok->as_bool()) {
      ++c.failed;  // retry_after, deadline, internal: all failures
      c.error = reply->render();
      return false;
    }
    return true;
  };
  while (!c.broken && Clock::now() < deadline) {
    const int j = c.turn++ % kSessionsPerConnection;
    const std::string& id = c.ids[j];
    tracer.set_op(op_id++);
    Json reply;
    if (c.pending_query[j]) {
      c.pending_query[j] = false;
      const Clock::time_point start = Clock::now();
      bool ok = false;
      {
        Tracer::Scope s(tracer, "serve.resolve_rtt");
        ok = exchange(session_request("resolve", id), &reply);
      }
      if (!ok) continue;
      c.query_ms.add(us_since(start) / 1e3);
      c.records[j].push_back({-1, std::move(reply)});
      continue;
    }
    const SessionInput& in = inputs[c.first_session + j];
    if (c.cursor[j] >= in.batches.size()) {
      c.broken = true;
      c.error = "edit plan exhausted";
      break;
    }
    const int batch = static_cast<int>(c.cursor[j]++);
    const Json request = edit_request(id, in.batches[batch]);
    const Clock::time_point start = Clock::now();
    bool ok = false;
    {
      Tracer::Scope s(tracer, "serve.edit_rtt");
      ok = exchange(request, &reply);
    }
    if (!ok) continue;
    c.op_ms.add(us_since(start) / 1e3);
    ++c.ops;
    c.done_s.push_back(us_since(c.phase_start) / 1e6);
    c.records[j].push_back({batch, std::move(reply)});
    if (++c.edits_sent % kEvictEvery == 0) {
      Json evicted;
      bool evict_ok = false;
      {
        Tracer::Scope s(tracer, "serve.evict");
        evict_ok = exchange(session_request("evict", id), &evicted);
      }
      if (evict_ok) c.pending_query[j] = true;
    }
  }
}

/// Replays the first `limit` of one session's acknowledged requests on an
/// in-process session and checks every reply digest. With `tracer`
/// enabled the replay mirrors the daemon's per-request work layer by
/// layer, on a session with the daemon's options: JSON parse and
/// render, framing, a WAL-attached transaction, the WAL commit, and a
/// checkpoint at each eviction plus restore and certificate at each
/// following resolve.
std::string replay_session(const SessionInput& in, const std::string& id,
                           const std::string& initial_digest,
                           const std::vector<Record>& records,
                           std::size_t limit, const std::string& dir,
                           long long op_base, Tracer& tracer) {
  namespace fs = std::filesystem;
  const bool layers = tracer.enabled();
  cg::ParseResult parsed = cg::from_text(in.text);
  if (!parsed.ok()) return "design text does not parse";
  std::optional<engine::SynthesisSession> session;
  session.emplace(std::move(*parsed.graph));
  auto digest = [&session] {
    return serve::hex16(serve::products_digest(session->products()));
  };
  (void)session->resolve();
  if (digest() != initial_digest) return "initial resolve digest differs";

  int sv[2] = {-1, -1};
  std::unique_ptr<persist::Wal> wal;
  std::error_code ec;
  if (layers) {
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return "socketpair";
    if (!session->attach_wal(persist::wal_path(dir)).ok()) return "attach_wal";
    persist::Error err;
    wal = persist::Wal::open(dir + "/replay.wal", 0, persist::WalOptions{},
                             &err);
    if (wal == nullptr) return "cannot open replay WAL: " + err.render();
  }
  std::string failure;
  std::uint64_t wal_revision = 0;
  const std::size_t count = std::min(limit, records.size());
  for (std::size_t i = 0; i < count && failure.empty(); ++i) {
    const Record& rec = records[i];
    tracer.set_op(op_base + static_cast<long long>(i));
    if (layers) {
      const std::string request =
          (rec.batch >= 0 ? edit_request(id, in.batches[rec.batch])
                          : session_request("resolve", id))
              .render();
      std::string reply;
      {
        Tracer::Scope s(tracer, "serve.json_parse");
        if (!Json::parse(request, &failure).has_value()) break;
      }
      {
        Tracer::Scope s(tracer, "serve.json_render");
        reply = rec.reply.render();
      }
      {
        Tracer::Scope s(tracer, "serve.frame_rtt");
        std::string got, error;
        if (!serve::write_frame(sv[0], request) ||
            !serve::read_frame(sv[1], &got, &error) ||
            !serve::write_frame(sv[1], reply) ||
            !serve::read_frame(sv[0], &got, &error)) {
          failure = "framing over a socketpair failed";
          break;
        }
      }
    }
    if (rec.batch < 0) {
      if (layers) {
        engine::SynthesisSession::RestoreReport report;
        std::optional<engine::SynthesisSession> restored;
        {
          Tracer::Scope s(tracer, "persist.restore");
          restored = engine::SynthesisSession::restore(dir, {}, &report);
        }
        if (!restored.has_value()) {
          failure = "restore failed: " + report.error.render();
          break;
        }
        session = std::move(restored);
        (void)session->resolve();
        {
          Tracer::Scope s(tracer, "certify.check_products");
          const engine::Products& p = session->products();
          const certify::Diag diag = certify::check_products(
              session->graph(), p.analysis, p.schedule.schedule);
          if (!diag.ok()) failure = "restored products: " + diag.message;
        }
        if (!session->attach_wal(persist::wal_path(dir)).ok()) {
          failure = "re-attach WAL failed";
        }
      }
      if (failure.empty() && digest() != digest_of(rec.reply)) {
        failure = "resolve digest differs from the serial oracle";
      }
      continue;
    }
    const std::vector<Edit>& batch = in.batches[rec.batch];
    {
      Tracer::Scope s(tracer, "engine.txn_commit");
      session->begin_txn();
      for (const Edit& e : batch) apply(*session, e);
      (void)session->commit();
    }
    if (layers) {
      Tracer::Scope s(tracer, "persist.wal_commit");
      for (const Edit& e : batch) {
        persist::WalRecord r;
        r.op = e.kind == Edit::Kind::kBound ? persist::WalRecord::Op::kSetBound
                                            : persist::WalRecord::Op::kSetDelay;
        r.revision = ++wal_revision;
        r.a = e.id;
        r.value = e.cycles;
        wal->append(r);
      }
      persist::WalRecord commit;
      commit.revision = wal_revision;
      wal->append(commit);
      wal->sync_for_commit();
    }
    if (digest() != digest_of(rec.reply)) {
      failure = "edit digest differs from the serial oracle";
      break;
    }
    // The daemon evicted the session after this edit when the next
    // record is the resolve that restores it.
    if (layers && i + 1 < count && records[i + 1].batch < 0) {
      Tracer::Scope s(tracer, "persist.checkpoint");
      if (!session->checkpoint(dir).ok()) failure = "checkpoint failed";
    }
  }
  if (sv[0] >= 0) {
    ::close(sv[0]);
    ::close(sv[1]);
  }
  return failure;
}

long long stat_of(const Json& stats, const char* key) {
  const Json* v = stats.get(key);
  return v != nullptr ? v->as_int() : 0;
}

}  // namespace

Result run_serve_edits(const Config& config) {
  Result result;
  // Inherited by every daemon this run spawns.
  ::setenv("RELSCHED_THREADS", "1", 1);

  // Inputs, before any clock: 24 designs and their edit batches.
  std::mt19937_64 design_rng(kDesignSeed);
  std::mt19937_64 rng(config.seed);
  std::vector<SessionInput> inputs(kSessions);
  for (SessionInput& in : inputs) {
    const cg::ConstraintGraph design =
        generate_design(kVertices, design_rng, "serve_edits");
    in.text = cg::to_text(design);
    in.targets = pick_targets(design, 2);
    if (in.targets.flips.empty() || in.targets.bounds.empty()) {
      result.fail_gate("generated design offers no flip or bound targets");
      return result;
    }
    EditStream stream(in.targets, rng(), 100);
    in.batches.resize(kBatchesPerSession);
    for (std::vector<Edit>& batch : in.batches) {
      batch.resize(1 + rng() % 4);
      for (Edit& e : batch) e = stream.next();
    }
  }

  std::vector<Connection> conns(kConnections);
  auto reset_connections = [&] {
    for (int k = 0; k < kConnections; ++k) {
      Connection& c = conns[k];
      c.first_session = k * kSessionsPerConnection;
      c.records.assign(kSessionsPerConnection, {});
      c.cursor.assign(kSessionsPerConnection, 0);
      c.pending_query.assign(kSessionsPerConnection, false);
    }
  };

  // Set-up, repeated: spawn the daemon, open and first-resolve every
  // session from 3 connections. The last daemon started before the
  // measured phase serves it; the rest run after the oracle.
  Samples setup_us;
  Daemon daemon;
  auto set_up = [&](int instance, bool keep) {
    reset_connections();
    std::string error;
    const Clock::time_point start = Clock::now();
    if (!spawn_daemon(config, instance, &daemon, &error)) {
      result.fail_gate(error);
      return false;
    }
    std::vector<std::thread> threads;
    for (Connection& c : conns) {
      threads.emplace_back([&c, &daemon, &inputs] {
        if (!open_sessions(c, daemon, inputs)) c.broken = true;
      });
    }
    for (std::thread& t : threads) t.join();
    setup_us.add(us_since(start));
    for (Connection& c : conns) {
      if (c.broken) {
        result.fail_gate("set-up: " + c.error);
        ::kill(daemon.pid, SIGKILL);
        (void)reap_daemon(daemon, std::chrono::seconds(10));
        return false;
      }
    }
    if (!keep) {
      Json reply;
      std::string err;
      (void)conns[0].client.call(op_request("shutdown"), &reply, &err);
      for (Connection& c : conns) c.client.close();
      if (reap_daemon(daemon, std::chrono::seconds(30)) < 0) {
        result.fail_gate("daemon did not shut down cleanly during set-up");
        return false;
      }
    }
    return true;
  };
  for (int rep = 0; rep < kSetupsBefore; ++rep) {
    if (!set_up(rep, rep + 1 == kSetupsBefore)) return result;
  }

  auto run_all = [&](std::vector<Tracer>& tracers) {
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::microseconds(
                    static_cast<long long>(config.seconds * 1e6));
    std::vector<std::thread> threads;
    for (int k = 0; k < kConnections; ++k) {
      Connection& c = conns[k];
      c.op_ms = Samples();
      c.query_ms = Samples();
      c.ops = 0;
      c.done_s.clear();
      c.phase_start = start;
      threads.emplace_back([&c, &inputs, deadline, &tracer = tracers[k]] {
        run_phase(c, inputs, deadline, tracer);
      });
    }
    for (std::thread& t : threads) t.join();
    std::vector<double> done_s;
    for (const Connection& c : conns) {
      done_s.insert(done_s.end(), c.done_s.begin(), c.done_s.end());
    }
    return median_window_rate(done_s, us_since(start) / 1e6);
  };
  auto daemon_call = [&](const char* op) {
    Json reply;
    std::string err;
    if (!conns[0].client.call(op_request(op), &reply, &err)) {
      result.fail_gate(std::string(op) + " request failed: " + err);
    }
    return reply;
  };
  auto make_tracers = [](bool enabled) {
    std::vector<Tracer> tracers;
    for (int k = 0; k < kConnections; ++k) tracers.emplace_back(enabled, k + 1);
    return tracers;
  };

  std::vector<Tracer> untraced = make_tracers(false);
  const double ops_per_s = run_all(untraced);
  Samples op_ms, query_ms;
  for (const Connection& c : conns) {
    op_ms.merge(c.op_ms);
    query_ms.merge(c.query_ms);
  }

  std::vector<Tracer> traced = make_tracers(config.trace);
  Json stats_before, stats_after;
  double traced_ops_per_s = 0;
  if (config.trace) {
    stats_before = daemon_call("stats");
    traced_ops_per_s = run_all(traced);
    stats_after = daemon_call("stats");
  }

  // Graceful shutdown; the daemon's peak RSS comes from wait4.
  (void)daemon_call("shutdown");
  for (Connection& c : conns) c.client.close();
  const double peak_rss = reap_daemon(daemon, std::chrono::seconds(60));
  if (peak_rss < 0) result.fail_gate("daemon did not shut down cleanly");

  for (const Connection& c : conns) {
    result.attempted += c.attempted;
    result.failed += c.failed;
    if (c.broken) result.fail_gate("connection: " + c.error);
    if (c.failed > 0) result.errors.push_back("last failed request: " + c.error);
  }

  report_loop(result, op_ms, query_ms, ops_per_s);

  // The serial oracle: every acknowledged request of every session,
  // replayed in order, the connections in parallel.
  std::vector<std::string> failures(kSessions);
  {
    std::vector<Tracer> off = make_tracers(false);
    std::vector<std::thread> threads;
    for (int k = 0; k < kConnections; ++k) {
      threads.emplace_back([&, k] {
        const Connection& c = conns[k];
        for (int j = 0; j < kSessionsPerConnection; ++j) {
          const int s = c.first_session + j;
          failures[s] = replay_session(
              inputs[s], c.ids[j], c.initial_digest[j], c.records[j],
              c.records[j].size(), "", 0, off[k]);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  // The traced run's layer replay: the first kLayerReplay requests of
  // each connection's first session, one thread, so the layer timings
  // are not contended.
  Tracer replay_tracer(config.trace, kConnections + 1);
  if (config.trace) {
    for (int k = 0; k < kConnections; ++k) {
      const Connection& c = conns[k];
      const int s = c.first_session;
      const std::string failure = replay_session(
          inputs[s], c.ids[0], c.initial_digest[0], c.records[0],
          kLayerReplay, config.work_dir + "/replay/s" + std::to_string(s),
          static_cast<long long>(s) << 32, replay_tracer);
      if (!failure.empty()) failures[s] = "layer replay: " + failure;
    }
  }
  for (int s = 0; s < kSessions; ++s) {
    if (!failures[s].empty()) {
      result.fail_gate("session " + std::to_string(s) + ": " + failures[s]);
    }
  }

  for (int rep = 0; rep < kSetupsAfter; ++rep) {
    if (!set_up(kSetupsBefore + rep, false)) return result;
  }
  result.e2e("setup_s", setup_us.median() / 1e6, "s",
             static_cast<long long>(setup_us.count()));
  result.e2e("peak_rss_mb", peak_rss, "MB");

  if (config.trace) {
    std::vector<const Tracer*> all;
    for (const Tracer& t : traced) all.push_back(&t);
    all.push_back(&replay_tracer);
    const SelfTimes self(all);
    std::map<std::string, double> v;
    auto delta = [&](const char* key) {
      return static_cast<double>(stat_of(stats_after, key) -
                                 stat_of(stats_before, key));
    };
    v["serve.requests"] = delta("requests");
    v["serve.shed"] = delta("shed_session_busy") + delta("shed_server_busy") +
                      delta("shed_connections");
    v["serve.evictions"] = delta("evictions");
    v["serve.restores"] = delta("restores");
    v["serve.restore_cold_rebuilds"] = delta("restore_cold_rebuilds");
    v["serve.deadline_trips"] = delta("deadline_trips");
    v["serve.internal_errors"] = delta("internal_errors");
    v["serve.evict_rtt_us"] = self.per_op_us("serve.evict");
    for (const char* name :
         {"serve.json_parse", "serve.json_render", "serve.frame_rtt",
          "engine.txn_commit", "persist.wal_commit", "persist.checkpoint",
          "persist.restore", "certify.check_products"}) {
      v[std::string(name) + "_us"] = self.per_op_us(name);
    }
    v["trace.overhead_pct"] = (ops_per_s / traced_ops_per_s - 1.0) * 100.0;
    emit_per_layer(result, v);
    if (!write_chrome_trace(config.trace_path, all)) {
      result.fail_gate("cannot write trace file " + config.trace_path);
    }
  }
  return result;
}

}  // namespace perfbench
