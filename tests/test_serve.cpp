// The serve layer: wire-protocol JSON round-trips and framing, then
// the full daemon loop over a real AF_UNIX socket -- session reuse,
// forced eviction + transparent restore (digest-stable), admission
// shedding, poison-request quarantine, graceful shutdown, client io
// timeouts, snapshot faults during eviction, and WAL-streaming
// replication to a hot standby (including promote failover and
// injected-divergence healing).
#include <gtest/gtest.h>
#include <dirent.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/fault_fs.hpp"
#include "bench_json.hpp"
#include "cg/graph_io.hpp"
#include "engine/session.hpp"
#include "persist/wal.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "testutil.hpp"

namespace relsched::serve {
namespace {

/// Null-safe field access: absent keys read as JSON null instead of
/// dereferencing nullptr, so a bad reply fails the EXPECT, not the
/// process.
const Json& field(const Json& reply, const char* key) {
  static const Json kNull;
  const Json* value = reply.get(key);
  return value != nullptr ? *value : kNull;
}

TEST(Json, BuilderRenderParseRoundTrip) {
  Json request = Json::object();
  request.set("op", Json::string("edit"));
  request.set("count", Json::number(42LL));
  request.set("flag", Json::boolean(true));
  request.set("nothing", Json::null());
  Json items = Json::array();
  items.push(Json::number(1LL));
  items.push(Json::string("two"));
  request.set("items", std::move(items));

  const std::string text = request.render();
  std::string error;
  std::optional<Json> parsed = Json::parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(field(*parsed, "op").as_string(), "edit");
  EXPECT_EQ(field(*parsed, "count").as_int(), 42);
  EXPECT_TRUE(field(*parsed, "flag").as_bool());
  ASSERT_EQ(field(*parsed, "items").size(), 2u);
  EXPECT_EQ(field(*parsed, "items").at(1)->as_string(), "two");
  EXPECT_EQ(parsed->get("missing"), nullptr);
  // Render -> parse -> render is a fixed point (insertion order).
  EXPECT_EQ(parsed->render(), text);
}

TEST(Json, StringEscapesSurviveRoundTrip) {
  const std::string hairy =
      std::string("line\nbreak\ttab \"quote\" \\ cr\r ") + '\x01' + " control";
  Json v = Json::object();
  v.set("s", Json::string(hairy));
  std::string error;
  std::optional<Json> parsed = Json::parse(v.render(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(field(*parsed, "s").as_string(), hairy);

  // \uXXXX escapes, including a surrogate pair, decode to UTF-8.
  std::optional<Json> u =
      Json::parse(R"({"s":"a\u00e9\ud83d\ude00z"})", &error);
  ASSERT_TRUE(u.has_value()) << error;
  EXPECT_EQ(field(*u, "s").as_string(), "a\xc3\xa9\xf0\x9f\x98\x80z");
}

// Bench records render strings through the shared escaper: control
// bytes such as \r come out as escapes, so the record parses as JSON.
TEST(Json, BenchRecordEscapesControlBytes) {
  const std::string hairy = std::string("cr\r") + '\x01' + "\"q\"";
  benchio::Json record = benchio::Json::object();
  record.field("note", hairy);
  record.field(std::string("key\r"), 1);
  benchio::Json list = benchio::Json::array();
  list.element(hairy);
  record.field("list", list);

  std::string error;
  std::optional<Json> parsed = Json::parse(record.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error << "\n" << record.str();
  EXPECT_EQ(field(*parsed, "note").as_string(), hairy);
  EXPECT_EQ(field(*parsed, "key\r").as_int(), 1);
  EXPECT_EQ(field(*parsed, "list").at(0)->as_string(), hairy);
}

// Bench records keep every digit of a timing: shortest round-trip
// rendering, not six significant digits (19318812.5 used to come out
// as 1.93188e+07).
TEST(Json, BenchRecordNumbersRoundTripExactly) {
  benchio::Json record = benchio::Json::object();
  record.field("cold_us", 19318812.5);
  record.field("tiny", 1e-7);
  benchio::Json list = benchio::Json::array();
  list.element(0.1);
  record.field("list", list);

  std::string error;
  std::optional<Json> parsed = Json::parse(record.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error << "\n" << record.str();
  EXPECT_EQ(field(*parsed, "cold_us").as_double(), 19318812.5);
  EXPECT_EQ(field(*parsed, "tiny").as_double(), 1e-7);
  EXPECT_EQ(field(*parsed, "list").at(0)->as_double(), 0.1);
  EXPECT_NE(record.str().find("19318812.5"), std::string::npos)
      << record.str();
}

TEST(Json, MalformedInputsRejectedWithError) {
  const char* bad[] = {
      "",
      "{",
      "{\"a\":}",
      "{\"a\":1,}",
      "[1 2]",
      "{\"a\":\"unterminated}",
      "tru",
      "{\"a\":1} trailing",
      R"({"s":"\ud800"})",  // lone high surrogate
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(Json::parse(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(Json, IntReadOfHugeDoubleSaturates) {
  const struct {
    const char* text;
    long long want;
  } kCases[] = {
      {"1e300", std::numeric_limits<long long>::max()},
      {"-1e300", std::numeric_limits<long long>::min()},
      {"9.3e18", std::numeric_limits<long long>::max()},
      {"-2.5", -2},
      {"4294967297.0", 4294967297LL},
  };
  for (const auto& c : kCases) {
    std::string error;
    const std::optional<Json> j = Json::parse(c.text, &error);
    ASSERT_TRUE(j.has_value()) << error;
    EXPECT_EQ(j->as_int(), c.want) << c.text;
  }
}

TEST(Json, DepthCapRejectsDeepNesting) {
  std::string deep;
  for (int i = 0; i < kMaxJsonDepth + 1; ++i) deep += '[';
  deep += '1';
  for (int i = 0; i < kMaxJsonDepth + 1; ++i) deep += ']';
  std::string error;
  EXPECT_FALSE(Json::parse(deep, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Framing, RoundTripOversizeAndCleanEof) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  const std::string payload = R"({"op":"ping"})";
  ASSERT_TRUE(write_frame(fds[0], payload));
  std::string got, error;
  ASSERT_TRUE(read_frame(fds[1], &got, &error)) << error;
  EXPECT_EQ(got, payload);

  // An oversized length prefix is a protocol violation, not an OOM.
  const std::uint32_t huge = kMaxFrameBytes + 1;
  char prefix[4];
  std::memcpy(prefix, &huge, 4);
  ASSERT_EQ(::write(fds[0], prefix, 4), 4);
  EXPECT_FALSE(read_frame(fds[1], &got, &error));
  EXPECT_FALSE(error.empty());

  // Closing the peer reads as clean EOF: false with an empty error.
  ::close(fds[0]);
  error = "sentinel";
  EXPECT_FALSE(read_frame(fds[1], &got, &error));
  EXPECT_TRUE(error.empty());
  ::close(fds[1]);
}

// ---- End-to-end daemon tests ----------------------------------------------

/// A server on a real unix socket plus a helper to call it; the server
/// thread is stopped via Server::shutdown() and joined in the
/// destructor.
struct LiveServer {
  ServerOptions options;
  std::unique_ptr<Server> server;
  std::thread thread;
  std::string root;

  explicit LiveServer(int max_live = 64, int max_connections = 16,
                      std::function<void(ServerOptions&)> tweak = {}) {
    root = ::testing::TempDir() + "relsched_serve_XXXXXX";
    EXPECT_NE(::mkdtemp(root.data()), nullptr);
    options.socket_path = root + "/sock";
    options.state_dir = root + "/state";
    options.max_live_sessions = max_live;
    options.max_connections = max_connections;
    options.certify = false;
    if (tweak) tweak(options);
    server = std::make_unique<Server>(options);
    std::string error;
    EXPECT_TRUE(server->start(&error)) << error;
    thread = std::thread([this] { server->serve_forever(); });
  }

  ~LiveServer() {
    server->shutdown();
    if (thread.joinable()) thread.join();
  }

  Json call(Client& client, const Json& request) {
    Json reply;
    std::string error;
    EXPECT_TRUE(client.call_with_backoff(request, &reply,
                                         std::chrono::seconds(10), &error))
        << error;
    return reply;
  }

  Client connect() {
    Client client;
    std::string error;
    EXPECT_TRUE(
        client.connect(options.socket_path, std::chrono::seconds(5), &error))
        << error;
    return client;
  }
};

Json open_request(const std::string& design_text) {
  Json request = Json::object();
  request.set("op", Json::string("open"));
  request.set("design_text", Json::string(design_text));
  return request;
}

Json resolve_request(const std::string& sid) {
  Json request = Json::object();
  request.set("op", Json::string("resolve"));
  request.set("session", Json::string(sid));
  return request;
}

Json one_edit_request(const std::string& sid, Json edit) {
  Json request = Json::object();
  request.set("op", Json::string("edit"));
  request.set("session", Json::string(sid));
  Json edits = Json::array();
  edits.push(std::move(edit));
  request.set("edits", std::move(edits));
  return request;
}

Json add_min_edit(int from, int to, long long cycles) {
  Json edit = Json::object();
  edit.set("kind", Json::string("add_min"));
  edit.set("from", Json::number(static_cast<long long>(from)));
  edit.set("to", Json::number(static_cast<long long>(to)));
  edit.set("cycles", Json::number(cycles));
  return edit;
}

TEST(ServeEndToEnd, OpenEditResolveAgreeWithLocalOracle) {
  LiveServer live;
  Client client = live.connect();

  testing::Fig2Graph fig;
  const std::string design = cg::to_text(fig.g);
  Json opened = live.call(client, open_request(design));
  ASSERT_TRUE(field(opened, "ok").as_bool()) << opened.render();
  const std::string sid = field(opened, "session").as_string();
  const long long base = field(opened, "base_revision").as_int();
  EXPECT_EQ(field(opened, "revision").as_int(), base);

  Json edited = live.call(
      client,
      one_edit_request(sid, add_min_edit(fig.v0.value(), fig.v4.value(), 4)));
  ASSERT_TRUE(field(edited, "ok").as_bool()) << edited.render();
  EXPECT_EQ(field(edited, "revision").as_int(), base + 1);
  EXPECT_EQ(field(edited, "status").as_string(), "scheduled");

  // The oracle: same design, same edit, no server.
  testing::Fig2Graph oracle_fig;
  engine::SessionOptions oracle_options;
  oracle_options.certify = false;
  engine::SynthesisSession oracle(std::move(oracle_fig.g), oracle_options);
  oracle.add_min_constraint(fig.v0, fig.v4, 4);
  const engine::Products& products = oracle.resolve();
  char expected[17];
  std::snprintf(expected, sizeof expected, "%016llx",
                static_cast<unsigned long long>(products_digest(products)));
  EXPECT_EQ(field(edited, "digest").as_string(), expected);

  Json resolved = live.call(client, resolve_request(sid));
  ASSERT_TRUE(field(resolved, "ok").as_bool()) << resolved.render();
  EXPECT_EQ(field(resolved, "digest").as_string(), expected);
}

TEST(ServeEndToEnd, EvictionAndRestoreKeepDigestsStable) {
  // max_live_sessions = 1: opening the second design must evict the
  // first; touching the first again restores it from its snapshot.
  LiveServer live(/*max_live=*/1);
  Client client = live.connect();

  testing::Fig2Graph fig;
  testing::Fig3bGraph other;

  Json opened_a = live.call(client, open_request(cg::to_text(fig.g)));
  ASSERT_TRUE(field(opened_a, "ok").as_bool()) << opened_a.render();
  const std::string sid_a = field(opened_a, "session").as_string();
  Json edited = live.call(
      client,
      one_edit_request(sid_a,
                       add_min_edit(fig.v0.value(), fig.v4.value(), 4)));
  ASSERT_TRUE(field(edited, "ok").as_bool()) << edited.render();
  const std::string digest = field(edited, "digest").as_string();
  const long long revision = field(edited, "revision").as_int();

  Json opened_b = live.call(client, open_request(cg::to_text(other.g)));
  ASSERT_TRUE(field(opened_b, "ok").as_bool()) << opened_b.render();

  // Touching A again transparently restores it: same revision (no edit
  // was lost) and the bit-identical digest.
  Json resolved = live.call(client, resolve_request(sid_a));
  ASSERT_TRUE(field(resolved, "ok").as_bool()) << resolved.render();
  EXPECT_EQ(field(resolved, "revision").as_int(), revision);
  EXPECT_EQ(field(resolved, "digest").as_string(), digest);

  Json stats = Json::object();
  stats.set("op", Json::string("stats"));
  Json counters = live.call(client, stats);
  EXPECT_GE(field(counters, "evictions").as_int(), 1);
  EXPECT_GE(field(counters, "restores").as_int(), 1);
  EXPECT_EQ(field(counters, "restore_cold_rebuilds").as_int(), 0);
  EXPECT_EQ(field(counters, "quarantined_sessions").as_int(), 0);
}

TEST(ServeEndToEnd, ExplicitEvictThenEditResumesFromRevision) {
  LiveServer live;
  Client client = live.connect();
  testing::Fig2Graph fig;
  Json opened = live.call(client, open_request(cg::to_text(fig.g)));
  ASSERT_TRUE(field(opened, "ok").as_bool()) << opened.render();
  const std::string sid = field(opened, "session").as_string();
  const long long base = field(opened, "base_revision").as_int();

  Json e1 = live.call(
      client,
      one_edit_request(sid, add_min_edit(fig.v0.value(), fig.v4.value(), 4)));
  ASSERT_TRUE(field(e1, "ok").as_bool()) << e1.render();

  Json evict = Json::object();
  evict.set("op", Json::string("evict"));
  evict.set("session", Json::string(sid));
  Json evicted = live.call(client, evict);
  ASSERT_TRUE(field(evicted, "ok").as_bool()) << evicted.render();

  Json e2 = live.call(
      client,
      one_edit_request(sid, add_min_edit(fig.v1.value(), fig.v3.value(), 1)));
  ASSERT_TRUE(field(e2, "ok").as_bool()) << e2.render();
  // Revision arithmetic continues across the evict/restore boundary:
  // nothing acknowledged was lost.
  EXPECT_EQ(field(e2, "revision").as_int(), base + 2);
}

TEST(ServeEndToEnd, PoisonEditQuarantinesButKeepsServing) {
  LiveServer live;
  Client client = live.connect();
  testing::Fig2Graph fig;
  Json opened = live.call(client, open_request(cg::to_text(fig.g)));
  ASSERT_TRUE(field(opened, "ok").as_bool()) << opened.render();
  const std::string sid = field(opened, "session").as_string();

  // remove_constraint on a sequencing edge passes the range checks but
  // violates an engine invariant (ApiError): a poison request.
  Json poison = Json::object();
  poison.set("kind", Json::string("remove_constraint"));
  poison.set("edge", Json::number(0LL));
  Json reply = live.call(client, one_edit_request(sid, std::move(poison)));
  EXPECT_FALSE(field(reply, "ok").as_bool());
  EXPECT_EQ(field(reply, "code").as_string(), kCodeBadRequest);
  EXPECT_TRUE(field(reply, "quarantined").as_bool());

  // The session is quarantined -- pinned live, certified cold -- but
  // healthy requests still work.
  Json per_session = Json::object();
  per_session.set("op", Json::string("stats"));
  per_session.set("session", Json::string(sid));
  Json sstats = live.call(client, per_session);
  EXPECT_TRUE(field(sstats, "quarantined").as_bool()) << sstats.render();

  Json edited = live.call(
      client,
      one_edit_request(sid, add_min_edit(fig.v0.value(), fig.v4.value(), 4)));
  ASSERT_TRUE(field(edited, "ok").as_bool()) << edited.render();
  EXPECT_EQ(field(edited, "status").as_string(), "scheduled");

  // A quarantined session cannot be explicitly evicted: its snapshot
  // line is not trusted.
  Json evict = Json::object();
  evict.set("op", Json::string("evict"));
  evict.set("session", Json::string(sid));
  Json evicted = live.call(client, evict);
  EXPECT_FALSE(field(evicted, "ok").as_bool());
  EXPECT_EQ(field(evicted, "code").as_string(), kCodeBadRequest);
}

TEST(ServeEndToEnd, UnknownSessionAndMalformedRequestsRejected) {
  LiveServer live;
  Client client = live.connect();

  Json reply = live.call(client, resolve_request("00000000deadbeef"));
  EXPECT_FALSE(field(reply, "ok").as_bool());
  EXPECT_EQ(field(reply, "code").as_string(), kCodeUnknownSession);

  Json nonsense = Json::object();
  nonsense.set("op", Json::string("frobnicate"));
  reply = live.call(client, nonsense);
  EXPECT_FALSE(field(reply, "ok").as_bool());
  EXPECT_EQ(field(reply, "code").as_string(), kCodeBadRequest);

  // Out-of-range edit operands are rejected before any state changes.
  testing::Fig2Graph fig;
  Json opened = live.call(client, open_request(cg::to_text(fig.g)));
  ASSERT_TRUE(field(opened, "ok").as_bool()) << opened.render();
  const std::string sid = field(opened, "session").as_string();
  const long long revision = field(opened, "revision").as_int();
  reply = live.call(client, one_edit_request(sid, add_min_edit(0, 999, 1)));
  EXPECT_FALSE(field(reply, "ok").as_bool());
  EXPECT_EQ(field(reply, "code").as_string(), kCodeBadRequest);
  reply = live.call(client, resolve_request(sid));
  EXPECT_EQ(field(reply, "revision").as_int(), revision);
}

// The edit wire texts, pinned byte for byte: one element per kind as
// the kind table renders it (and decodes it back), then every "edit"
// rejection reply. A rejected batch changes nothing.
TEST(ServeEdits, KindTableRendersAndDecodesEachKind) {
  using engine::Edit;
  const struct {
    Edit edit;
    const char* wire;
  } kCases[] = {
      {Edit::add_min(VertexId(1), VertexId(2), 3),
       R"({"kind":"add_min","from":1,"to":2,"cycles":3})"},
      {Edit::add_max(VertexId(1), VertexId(2), 40),
       R"({"kind":"add_max","from":1,"to":2,"cycles":40})"},
      {Edit::set_delay(VertexId(2), cg::Delay::unbounded()),
       R"({"kind":"set_delay","vertex":2,"cycles":-1})"},
      {Edit::set_delay(VertexId(2), cg::Delay::bounded(6)),
       R"({"kind":"set_delay","vertex":2,"cycles":6})"},
      {Edit::set_bound(EdgeId(5), 7),
       R"({"kind":"set_bound","edge":5,"cycles":7})"},
      {Edit::remove_constraint(EdgeId(5)),
       R"({"kind":"remove_constraint","edge":5})"},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(edit_json(c.edit).render(), c.wire);
    std::string error;
    const std::optional<Json> parsed = Json::parse(c.wire, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    const std::optional<Edit> decoded = decode_edit(*parsed, &error);
    ASSERT_TRUE(decoded.has_value()) << c.wire << ": " << error;
    EXPECT_TRUE(*decoded == c.edit) << c.wire;
  }
}

TEST(ServeEdits, RejectionTextsArePinned) {
  LiveServer live;
  Client client = live.connect();
  testing::Fig2Graph fig;
  Json opened = live.call(client, open_request(cg::to_text(fig.g)));
  ASSERT_TRUE(field(opened, "ok").as_bool()) << opened.render();
  const std::string sid = field(opened, "session").as_string();
  const long long revision = field(opened, "revision").as_int();

  // Fig 2 has 6 vertices and 8 edges.
  const struct {
    const char* edits;  // the request's "edits" value; nullptr: absent
    const char* error;
  } kCases[] = {
      {nullptr, "edit requires an edits array"},
      {R"({"kind":"add_min"})", "edit requires an edits array"},
      {R"([{}])", "edit #0: missing kind"},
      {R"([{"kind":3,"from":1,"to":2,"cycles":3}])", "edit #0: missing kind"},
      {R"([{"kind":"add_min","from":0,"to":5,"cycles":1},{"kind":"nop"}])",
       R"(edit #1: unknown kind "nop")"},
      {R"([{"kind":"add_min","from":0,"to":6,"cycles":1}])",
       "edit #0: add_min operands out of range"},
      {R"([{"kind":"add_min","from":2,"to":2,"cycles":1}])",
       "edit #0: add_min operands out of range"},
      {R"([{"kind":"add_min","from":0,"to":5}])",
       "edit #0: add_min operands out of range"},
      {R"([{"kind":"add_max","from":0,"to":5,"cycles":1000000001}])",
       "edit #0: add_max operands out of range"},
      {R"([{"kind":"add_max","from":-1,"to":5,"cycles":9}])",
       "edit #0: add_max operands out of range"},
      {R"([{"kind":"set_delay","vertex":2,"cycles":-2}])",
       "edit #0: set_delay operands out of range"},
      {R"([{"kind":"set_delay","vertex":2}])",
       "edit #0: set_delay operands out of range"},
      {R"([{"kind":"set_delay","vertex":4294967298,"cycles":1}])",
       "edit #0: set_delay operands out of range"},
      {R"([{"kind":"set_bound","edge":8,"cycles":1}])",
       "edit #0: set_bound operands out of range"},
      {R"([{"kind":"set_bound","edge":7,"cycles":-1}])",
       "edit #0: set_bound operands out of range"},
      {R"([{"kind":"set_bound","edge":7,"cycles":4294967299}])",
       "edit #0: set_bound operands out of range"},
      {R"([{"kind":"remove_constraint"}])",
       "edit #0: remove_constraint operands out of range"},
  };
  for (const auto& c : kCases) {
    std::string request = R"({"op":"edit","session":")" + sid + "\"";
    if (c.edits != nullptr) request += std::string(R"(,"edits":)") + c.edits;
    request += "}";
    std::string error;
    const std::optional<Json> parsed = Json::parse(request, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    const Json reply = live.call(client, *parsed);
    EXPECT_EQ(reply.render(),
              Json::object()
                  .set("ok", Json::boolean(false))
                  .set("code", Json::string(kCodeBadRequest))
                  .set("error", Json::string(c.error))
                  .render())
        << request;
  }
  Json resolved = live.call(client, resolve_request(sid));
  EXPECT_EQ(field(resolved, "revision").as_int(), revision);
}

TEST(ServeEndToEnd, ConnectionCapShedsWithRetryAfter) {
  LiveServer live(/*max_live=*/64, /*max_connections=*/1);
  Client first = live.connect();
  Json ping = Json::object();
  ping.set("op", Json::string("ping"));
  Json reply = live.call(first, ping);
  EXPECT_TRUE(field(reply, "ok").as_bool());

  // The second concurrent connection gets one RETRY_AFTER reply and is
  // hung up on -- shedding, not queueing. The reply arrives unasked,
  // right after accept, so it is read without sending a request (one
  // could race the hang-up and fail with EPIPE).
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, live.options.socket_path.c_str(),
               sizeof addr.sun_path - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof addr),
            0);
  std::string payload;
  std::string error;
  const bool got_reply = read_frame(fd, &payload, &error);
  ::close(fd);
  ASSERT_TRUE(got_reply) << error;
  const Json shed = Json::parse(payload, &error).value_or(Json());
  EXPECT_FALSE(field(shed, "ok").as_bool());
  EXPECT_EQ(field(shed, "code").as_string(), kCodeRetryAfter);
  EXPECT_GT(field(shed, "retry_after_ms").as_int(), 0);
}

TEST(ServeEndToEnd, DrainFinishesWhenAClientStopsReading) {
  LiveServer live;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, live.options.socket_path.c_str(),
               sizeof addr.sun_path - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof addr),
            0);
  ASSERT_EQ(::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK), 0);

  // Pipeline pings and never read a reply. Once the replies fill the
  // socket buffers the connection thread parks in send() and stops
  // reading requests, so the client's sends stall for good.
  const std::string ping = R"({"op":"ping"})";
  std::string frames;
  for (int i = 0; i < 100000; ++i) {
    const std::uint32_t len = static_cast<std::uint32_t>(ping.size());
    frames.append(reinterpret_cast<const char*>(&len), sizeof len);
    frames += ping;
  }
  std::size_t sent = 0;
  auto stalled_since = std::chrono::steady_clock::now();
  while (sent < frames.size()) {
    const ssize_t n =
        ::send(fd, frames.data() + sent, frames.size() - sent, MSG_NOSIGNAL);
    const auto now = std::chrono::steady_clock::now();
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      stalled_since = now;
      continue;
    }
    ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << errno;
    if (now - stalled_since > std::chrono::milliseconds(300)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_LT(sent, frames.size()) << "the server never stopped reading";

  // The drain still finishes: after its grace period (2 s) the stalled
  // send() fails, the connection thread exits and is joined.
  const auto t0 = std::chrono::steady_clock::now();
  live.server->shutdown();
  live.thread.join();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
  ::close(fd);
}

TEST(ServeEndToEnd, StateSurvivesServerRestart) {
  std::string root = ::testing::TempDir() + "relsched_restart_XXXXXX";
  ASSERT_NE(::mkdtemp(root.data()), nullptr);
  testing::Fig2Graph fig;
  const std::string design = cg::to_text(fig.g);
  std::string digest;
  long long revision = 0;

  ServerOptions options;
  options.socket_path = root + "/sock";
  options.state_dir = root + "/state";
  options.certify = false;
  {
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::thread thread([&server] { server.serve_forever(); });
    Client client;
    ASSERT_TRUE(
        client.connect(options.socket_path, std::chrono::seconds(5), &error))
        << error;
    Json opened, edited;
    ASSERT_TRUE(client.call(open_request(design), &opened, &error)) << error;
    ASSERT_TRUE(field(opened, "ok").as_bool()) << opened.render();
    const std::string sid = field(opened, "session").as_string();
    ASSERT_TRUE(client.call(
        one_edit_request(sid, add_min_edit(fig.v0.value(), fig.v4.value(), 4)),
        &edited, &error))
        << error;
    ASSERT_TRUE(field(edited, "ok").as_bool()) << edited.render();
    digest = field(edited, "digest").as_string();
    revision = field(edited, "revision").as_int();
    // The "shutdown" op (not just Server::shutdown) drains and
    // checkpoints every live session.
    Json bye = Json::object();
    bye.set("op", Json::string("shutdown"));
    Json ignored;
    (void)client.call(bye, &ignored, &error);
    thread.join();
  }
  {
    // A brand-new server on the same state dir: the reopened session
    // resumes at the acknowledged revision with the same digest.
    Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::thread thread([&server] { server.serve_forever(); });
    Client client;
    ASSERT_TRUE(
        client.connect(options.socket_path, std::chrono::seconds(5), &error))
        << error;
    Json opened, resolved;
    ASSERT_TRUE(client.call(open_request(design), &opened, &error)) << error;
    ASSERT_TRUE(field(opened, "ok").as_bool()) << opened.render();
    EXPECT_TRUE(field(opened, "restored").as_bool()) << opened.render();
    EXPECT_EQ(field(opened, "revision").as_int(), revision);
    ASSERT_TRUE(client.call(
        resolve_request(field(opened, "session").as_string()), &resolved,
        &error))
        << error;
    EXPECT_EQ(field(resolved, "digest").as_string(), digest);
    server.shutdown();
    thread.join();
  }
}

TEST(ServeEndToEnd, StartupJanitorSweepsStaleTemps) {
  // A predecessor SIGKILLed inside atomic_write_file leaves its unique
  // temp behind; the next start() must remove it and nothing else.
  std::string root = ::testing::TempDir() + "relsched_janitor_XXXXXX";
  ASSERT_NE(::mkdtemp(root.data()), nullptr);
  ServerOptions options;
  options.socket_path = root + "/sock";
  options.state_dir = root + "/state";
  const std::string session_dir = options.state_dir + "/s-00000000deadbeef";
  ASSERT_EQ(::mkdir(options.state_dir.c_str(), 0755), 0);
  ASSERT_EQ(::mkdir(session_dir.c_str(), 0755), 0);
  const std::string temp = session_dir + "/snapshot.bin.tmp.1.1";
  const std::string design = session_dir + "/design.cg";
  for (const std::string& path : {temp, design}) {
    FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr) << path;
    std::fclose(f);
  }

  Server server(options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  EXPECT_NE(::access(temp.c_str(), F_OK), 0) << "stale temp survived start()";
  EXPECT_EQ(::access(design.c_str(), F_OK), 0) << "janitor removed live state";
}

TEST(ServeFlags, OneTableSetsOptionsAndRejectsBadCommandLines) {
  const auto parse = [](std::vector<const char*> args, ServerOptions* o,
                        std::string* error) {
    args.insert(args.begin(), "relsched_serve");
    return parse_server_flags(static_cast<int>(args.size()),
                              const_cast<char**>(args.data()), o, error);
  };
  ServerOptions o;
  std::string error;
  ASSERT_TRUE(parse({"--socket", "s", "--state-dir", "d", "--max-live", "3",
                     "--deadline-ms", "0", "--no-certify", "--repl-ack-ms",
                     "7", "--repl-corrupt-at", "9"},
                    &o, &error))
      << error;
  EXPECT_EQ(o.socket_path, "s");
  EXPECT_EQ(o.max_live_sessions, 3);
  EXPECT_EQ(o.default_deadline.count(), 0);
  EXPECT_FALSE(o.certify);
  EXPECT_EQ(o.repl_ack_timeout.count(), 7);
  EXPECT_EQ(o.repl_corrupt_record_at, 9);
  for (const std::vector<const char*>& bad :
       {std::vector<const char*>{"--socket", "s"},
        {"--socket", "s", "--state-dir", "d", "--max-live", "0"},
        {"--socket", "s", "--state-dir", "d", "--max-live", "2x"},
        {"--socket", "s", "--state-dir", "d", "--deadline-ms"},
        {"--socket", "s", "--state-dir", "d", "--bogus"}}) {
    ServerOptions ignored;
    EXPECT_FALSE(parse(bad, &ignored, &error));
    EXPECT_EQ(error.rfind("usage: relsched_serve --socket PATH", 0), 0u);
  }
  EXPECT_FALSE(parse({"--socket", "s", "--state-dir", "d", "--standby",
                      "--replicate-to", "x"},
                     &o, &error));
  EXPECT_NE(error.find("mutually exclusive"), std::string::npos);
}

// ---- Client io timeouts ---------------------------------------------------

TEST(ServeClient, IoTimeoutSurfacesStructuredErrorAndClosesConnection) {
  // A listener that accepts nothing and answers nothing: the unix
  // socket backlog lets connect() succeed, then the daemon "hangs".
  std::string root = ::testing::TempDir() + "relsched_mute_XXXXXX";
  ASSERT_NE(::mkdtemp(root.data()), nullptr);
  const std::string path = root + "/sock";
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(fd, 4), 0);

  Client client;
  client.set_io_timeout(std::chrono::milliseconds(100));
  std::string error;
  ASSERT_TRUE(client.connect(path, std::chrono::seconds(2), &error)) << error;

  Json ping = Json::object();
  ping.set("op", Json::string("ping"));
  Json reply;
  EXPECT_FALSE(client.call(ping, &reply, &error));
  // The structured prefix distinguishes a hung daemon from a dead one,
  // and a blown deadline poisons the connection (a late reply would
  // desynchronize the framing).
  EXPECT_EQ(error.rfind(Client::kTimeoutPrefix, 0), 0u) << error;
  EXPECT_FALSE(client.connected());
  ::close(fd);
}

// ---- Snapshot faults during eviction --------------------------------------

/// Disarms the process-wide fault injector even when a test assertion
/// bails out early, so later tests never run against a faulty "disk".
struct ScopedFaults {
  explicit ScopedFaults(const base::FaultFsConfig& config) {
    base::fault_fs().arm(config);
  }
  ~ScopedFaults() { base::fault_fs().disarm(); }
};

/// Fails the test if any "*.tmp.*" leftover exists under `dir`.
void expect_no_stranded_temps(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;  // dir may legitimately not exist yet
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    EXPECT_EQ(name.find(".tmp."), std::string::npos)
        << "leaked temp file: " << dir << "/" << name;
    if (entry->d_type == DT_DIR) expect_no_stranded_temps(dir + "/" + name);
  }
  ::closedir(d);
}

TEST(ServeEndToEnd, SnapshotFaultsDuringEvictionKeepSessionLive) {
  // kAlways WAL sync: the edit below reaches disk at its own commit
  // point, so the armed fault schedules hit only the snapshot write
  // inside the eviction checkpoint, not a deferred WAL flush.
  LiveServer live(/*max_live=*/64, /*max_connections=*/16,
                  [](ServerOptions& o) {
                    o.wal.sync = persist::WalOptions::Sync::kAlways;
                  });
  Client client = live.connect();
  testing::Fig2Graph fig;
  Json opened = live.call(client, open_request(cg::to_text(fig.g)));
  ASSERT_TRUE(field(opened, "ok").as_bool()) << opened.render();
  const std::string sid = field(opened, "session").as_string();
  Json edited = live.call(
      client,
      one_edit_request(sid, add_min_edit(fig.v0.value(), fig.v4.value(), 4)));
  ASSERT_TRUE(field(edited, "ok").as_bool()) << edited.render();
  const std::string digest = field(edited, "digest").as_string();
  const long long revision = field(edited, "revision").as_int();

  Json evict = Json::object();
  evict.set("op", Json::string("evict"));
  evict.set("session", Json::string(sid));
  {
    // Torn-rename disk: the snapshot temp writes fine but can never be
    // published. The eviction must fail structurally instead of
    // dropping state that never reached disk.
    base::FaultFsConfig config;
    config.seed = 7;
    config.rename_per10k = 10000;
    ScopedFaults faults(config);
    Json refused = live.call(client, evict);
    EXPECT_FALSE(field(refused, "ok").as_bool()) << refused.render();
    EXPECT_EQ(field(refused, "code").as_string(), kCodeIo);
  }
  {
    // Disk full: every write fails hard before the temp even fills.
    base::FaultFsConfig config;
    config.seed = 7;
    config.write_per10k = 10000;
    config.write_enospc_per10k = 10000;
    ScopedFaults faults(config);
    Json refused = live.call(client, evict);
    EXPECT_FALSE(field(refused, "ok").as_bool()) << refused.render();
    EXPECT_EQ(field(refused, "code").as_string(), kCodeIo);
  }

  // The session survived both failed checkpoints -- still live, still
  // at the acknowledged revision, digest bit-identical -- and neither
  // abort stranded a temp file anywhere under the state dir.
  Json resolved = live.call(client, resolve_request(sid));
  ASSERT_TRUE(field(resolved, "ok").as_bool()) << resolved.render();
  EXPECT_EQ(field(resolved, "revision").as_int(), revision);
  EXPECT_EQ(field(resolved, "digest").as_string(), digest);
  expect_no_stranded_temps(live.options.state_dir);

  Json stats = Json::object();
  stats.set("op", Json::string("stats"));
  Json counters = live.call(client, stats);
  EXPECT_GE(field(counters, "checkpoint_failures").as_int(), 2);
  EXPECT_EQ(field(counters, "quarantined_sessions").as_int(), 0);

  // With the disk healthy the same eviction goes through, and the
  // restore it seeds is digest-stable.
  Json evicted = live.call(client, evict);
  ASSERT_TRUE(field(evicted, "ok").as_bool()) << evicted.render();
  resolved = live.call(client, resolve_request(sid));
  ASSERT_TRUE(field(resolved, "ok").as_bool()) << resolved.render();
  EXPECT_EQ(field(resolved, "digest").as_string(), digest);
}

// ---- Replication ----------------------------------------------------------

Json stats_of(LiveServer& live, Client& client) {
  Json stats = Json::object();
  stats.set("op", Json::string("stats"));
  return live.call(client, stats);
}

TEST(ServeReplication, StreamsToStandbyAndPromoteServesIdenticalState) {
  // The standby must be listening before the primary's replicator
  // dials it; LiveServer declaration order also tears the primary down
  // first, which stops its replicator before the standby goes away.
  LiveServer standby(64, 16, [](ServerOptions& o) { o.standby = true; });
  LiveServer primary(64, 16, [&](ServerOptions& o) {
    o.replicate_to = standby.options.socket_path;
  });
  Client client = primary.connect();

  testing::Fig2Graph fig;
  Json opened = primary.call(client, open_request(cg::to_text(fig.g)));
  ASSERT_TRUE(field(opened, "ok").as_bool()) << opened.render();
  const std::string sid = field(opened, "session").as_string();
  Json edited = primary.call(
      client,
      one_edit_request(sid, add_min_edit(fig.v0.value(), fig.v4.value(), 4)));
  ASSERT_TRUE(field(edited, "ok").as_bool()) << edited.render();
  // Semi-synchronous contract: an ok reply without the degraded marker
  // means the standby acknowledged this commit before the client heard
  // about it.
  EXPECT_FALSE(field(edited, "repl_degraded").as_bool()) << edited.render();
  const std::string digest = field(edited, "digest").as_string();
  const long long revision = field(edited, "revision").as_int();

  // Session verbs are fenced off on the standby until promotion: a
  // client that failed over too eagerly gets a structured refusal, not
  // a divergent write target.
  Client sclient = standby.connect();
  Json refused = standby.call(sclient, resolve_request(sid));
  EXPECT_FALSE(field(refused, "ok").as_bool());
  EXPECT_EQ(field(refused, "code").as_string(), kCodeStandby);

  // The stream actually ran: snapshot bootstrap plus applied appends,
  // and zero divergences.
  Json scounters = stats_of(standby, sclient);
  EXPECT_TRUE(field(scounters, "standby").as_bool()) << scounters.render();
  EXPECT_GE(field(scounters, "repl_snapshots_installed").as_int() +
                field(scounters, "repl_appends_applied").as_int(),
            1)
      << scounters.render();
  EXPECT_EQ(field(scounters, "repl_divergences").as_int(), 0);

  // Promote: the standby flips role and serves the replicated session
  // at the acknowledged revision with a bit-identical digest.
  Json promote = Json::object();
  promote.set("op", Json::string("promote"));
  Json promoted = standby.call(sclient, promote);
  ASSERT_TRUE(field(promoted, "ok").as_bool()) << promoted.render();
  EXPECT_TRUE(field(promoted, "was_standby").as_bool());

  Json resolved = standby.call(sclient, resolve_request(sid));
  ASSERT_TRUE(field(resolved, "ok").as_bool()) << resolved.render();
  EXPECT_EQ(field(resolved, "revision").as_int(), revision);
  EXPECT_EQ(field(resolved, "digest").as_string(), digest);

  // Promote is idempotent role-wise, and the replication verbs are now
  // fenced: a primary that outlived its own demotion cannot keep
  // writing into the promoted node (zombie fencing).
  Json again = standby.call(sclient, promote);
  ASSERT_TRUE(field(again, "ok").as_bool());
  EXPECT_FALSE(field(again, "was_standby").as_bool());
  Json subscribe = Json::object();
  subscribe.set("op", Json::string("repl_subscribe"));
  Json fenced = standby.call(sclient, subscribe);
  EXPECT_FALSE(field(fenced, "ok").as_bool());
  EXPECT_EQ(field(fenced, "code").as_string(), kCodeBadRequest);
}

TEST(ServeReplication, OutOfRangeOperandAnswersResyncAndAppliesNothing) {
  LiveServer standby(64, 16, [](ServerOptions& o) { o.standby = true; });
  LiveServer primary(64, 16, [&](ServerOptions& o) {
    o.replicate_to = standby.options.socket_path;
  });
  Client client = primary.connect();
  testing::Fig2Graph fig;
  Json opened = primary.call(client, open_request(cg::to_text(fig.g)));
  ASSERT_TRUE(field(opened, "ok").as_bool()) << opened.render();
  const std::string sid = field(opened, "session").as_string();
  Json edited = primary.call(
      client,
      one_edit_request(sid, add_min_edit(fig.v0.value(), fig.v4.value(), 4)));
  ASSERT_TRUE(field(edited, "ok").as_bool()) << edited.render();
  ASSERT_FALSE(field(edited, "repl_degraded").as_bool()) << edited.render();

  // Continue the standby's own cursor with one add_min record whose
  // "from" is 2^32 + 1: narrowed to 32 bits it would name vertex 1.
  Client sclient = standby.connect();
  Json subscribe = Json::object();
  subscribe.set("op", Json::string("repl_subscribe"));
  Json cursors = standby.call(sclient, subscribe);
  ASSERT_EQ(field(cursors, "sessions").size(), 1u) << cursors.render();
  const Json& cursor = *field(cursors, "sessions").at(0);
  const long long revision = field(cursor, "revision").as_int();
  Json record = Json::object();
  record.set("op", Json::number(static_cast<long long>(
                       persist::WalRecord::Op::kAddMin)));
  record.set("rev", Json::number(revision + 1));
  record.set("a", Json::number(4294967297LL));
  record.set("b", Json::number(static_cast<long long>(fig.v4.value())));
  record.set("v", Json::number(1LL));
  Json records = Json::array();
  records.push(std::move(record));
  Json append = Json::object();
  append.set("op", Json::string("repl_append"));
  append.set("session", Json::string(sid));
  append.set("epoch", Json::number(field(cursor, "epoch").as_int()));
  append.set("wal_base", Json::number(field(cursor, "wal_base").as_int()));
  append.set("seq", Json::number(field(cursor, "next_seq").as_int()));
  append.set("records", std::move(records));

  const long long applied_before =
      field(stats_of(standby, sclient), "repl_records_applied").as_int();
  Json ack = standby.call(sclient, append);
  EXPECT_TRUE(field(ack, "ok").as_bool()) << ack.render();
  EXPECT_TRUE(field(ack, "resync").as_bool()) << ack.render();
  EXPECT_EQ(field(stats_of(standby, sclient), "repl_records_applied").as_int(),
            applied_before);
}

Json op_request(const char* op) {
  Json request = Json::object();
  request.set("op", Json::string(op));
  return request;
}

TEST(ServeReplication, RoleGateRefusesWrongRoleVerbsAndCountsOnlyUnknownOps) {
  // A standby: session verbs get code "standby" (fail over and retry),
  // but an op no role serves is a bad request, not a failover signal.
  LiveServer standby(64, 16, [](ServerOptions& o) { o.standby = true; });
  Client sclient = standby.connect();
  Json reply;
  std::string error;
  ASSERT_TRUE(sclient.call(op_request("frobnicate"), &reply, &error))
      << error;
  EXPECT_FALSE(field(reply, "ok").as_bool());
  EXPECT_EQ(field(reply, "code").as_string(), kCodeBadRequest)
      << reply.render();
  testing::Fig2Graph fig;
  ASSERT_TRUE(sclient.call(open_request(cg::to_text(fig.g)), &reply, &error))
      << error;
  EXPECT_EQ(field(reply, "code").as_string(), kCodeStandby) << reply.render();
  // Only the unknown op counts as a bad request; the role refusal does
  // not.
  EXPECT_EQ(field(stats_of(standby, sclient), "bad_requests").as_int(), 1);

  // A primary fences off the replication verbs.
  LiveServer primary;
  Client client = primary.connect();
  for (const char* op : {"repl_subscribe", "repl_append"}) {
    ASSERT_TRUE(client.call(op_request(op), &reply, &error)) << error;
    EXPECT_FALSE(field(reply, "ok").as_bool()) << op;
    EXPECT_EQ(field(reply, "code").as_string(), kCodeBadRequest) << op;
    EXPECT_EQ(field(reply, "error").as_string(), "not a standby") << op;
  }
  EXPECT_EQ(field(stats_of(primary, client), "bad_requests").as_int(), 0);
}

TEST(ServeReplication, InjectedDivergenceDetectedCountedAndHealed) {
  LiveServer standby(64, 16, [](ServerOptions& o) { o.standby = true; });
  LiveServer primary(64, 16, [&](ServerOptions& o) {
    o.replicate_to = standby.options.socket_path;
    // Corrupt the first streamed add_min record: the standby applies it
    // cleanly, so only the digest handshake can catch the divergence.
    o.repl_corrupt_record_at = 1;
  });
  Client client = primary.connect();

  testing::Fig2Graph fig;
  Json opened = primary.call(client, open_request(cg::to_text(fig.g)));
  ASSERT_TRUE(field(opened, "ok").as_bool()) << opened.render();
  const std::string sid = field(opened, "session").as_string();

  // A run of min-constraint edits: at least one ships as a WAL record
  // (rather than inside the bootstrap snapshot) and gets corrupted.
  std::string digest;
  long long revision = 0;
  for (int i = 0; i < 5; ++i) {
    Json edited = primary.call(
        client, one_edit_request(
                    sid, add_min_edit(fig.v0.value(), fig.v4.value(), 3 + i)));
    ASSERT_TRUE(field(edited, "ok").as_bool()) << edited.render();
    digest = field(edited, "digest").as_string();
    revision = field(edited, "revision").as_int();
  }

  // The primary's ack handshake must notice the mismatch, count it,
  // and heal by re-shipping a snapshot; poll until the re-bootstrap
  // lands (the stream runs on its own thread).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool healed = false;
  while (std::chrono::steady_clock::now() < deadline) {
    Json counters = stats_of(primary, client);
    if (field(counters, "repl_stream_divergences").as_int() >= 1 &&
        field(counters, "repl_snapshots_shipped").as_int() >= 2) {
      healed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(healed) << stats_of(primary, client).render();

  // After healing, promote the standby: it must serve the *oracle*
  // state, not the corrupted one it briefly held.
  Client sclient = standby.connect();
  Json scounters = stats_of(standby, sclient);
  EXPECT_GE(field(scounters, "repl_divergences").as_int(), 1)
      << scounters.render();
  Json promote = Json::object();
  promote.set("op", Json::string("promote"));
  Json promoted = standby.call(sclient, promote);
  ASSERT_TRUE(field(promoted, "ok").as_bool()) << promoted.render();
  Json resolved = standby.call(sclient, resolve_request(sid));
  ASSERT_TRUE(field(resolved, "ok").as_bool()) << resolved.render();
  EXPECT_EQ(field(resolved, "revision").as_int(), revision);
  EXPECT_EQ(field(resolved, "digest").as_string(), digest);
}

}  // namespace
}  // namespace relsched::serve
