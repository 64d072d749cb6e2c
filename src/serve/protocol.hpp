// Wire protocol for relsched_serve: length-prefixed JSON frames.
//
// Every message -- request and reply -- is one frame:
//
//   u32 little-endian payload length | payload (UTF-8 JSON object)
//
// A frame longer than kMaxFrameBytes is rejected before any allocation
// (admission control against memory bombs); a malformed JSON payload
// is answered with a structured "bad_request" reply, never a dropped
// connection or a crash. The JSON dialect is deliberately small --
// objects, arrays, strings, 64-bit integers, doubles, booleans, null
// -- parsed by the bounded recursive-descent parser below (depth cap,
// no recursion on attacker-chosen nesting beyond it).
//
// Request schema. "op" selects the verb; the verbs and the role that
// serves each are the op table in server.cpp (Server::Impl::kOps), and
// an op missing from it is bad_request on either role:
//
//   {"op":"ping"}
//   {"op":"open","design_text":"graph g\n..."}         -> session id
//   {"op":"edit","session":"<id>","edits":[
//       {"kind":"add_min","from":3,"to":9,"cycles":4},
//       {"kind":"add_max","from":3,"to":9,"cycles":40},
//       {"kind":"set_delay","vertex":2,"cycles":-1},
//       {"kind":"set_bound","edge":5,"cycles":7},
//       {"kind":"remove_constraint","edge":5}]}        -> one txn+resolve
//   {"op":"resolve","session":"<id>"}                  -> status + digest
//   {"op":"evict","session":"<id>"}                    -> snapshot + drop
//   {"op":"close","session":"<id>"}                    -> drop (disk kept)
//   {"op":"stats"} | {"op":"stats","session":"<id>"}
//   {"op":"shutdown"}
//
// Replication verbs (see docs/algorithms.md, "Replication and
// failover"). A primary configured with --replicate-to acts as the
// *client* of these exchanges against a daemon started with --standby;
// the standby's replies double as the acknowledgement stream
// (`"repl":"repl_ack"`), carrying its per-session cursor and state
// digest back to the primary on every exchange:
//
//   {"op":"repl_subscribe"}            -> per-session cursors
//       {"ok":true,"repl":"repl_ack","sessions":[{"session":"<id>",
//        "epoch":E,"next_seq":S,"wal_base":B,"revision":R}, ...]}
//   {"op":"repl_snapshot","session":"<id>","epoch":E,"revision":R,
//    "digest":"<hex16>","design_text":"...","snapshot_hex":"..."}
//       -> bootstrap/re-ship: install the RSNAP001 snapshot verbatim
//   {"op":"repl_append","session":"<id>","epoch":E,"wal_base":B,
//    "seq":S,"records":[{"op":1,"rev":R,"a":..,"b":..,"v":..},...],
//    "digest":"<hex16>","digest_revision":R'}
//       -> apply streamed WAL records; the ack echoes the advanced
//          cursor plus the standby's own digest. "resync":true in an
//          ack means the standby cannot follow from there (gap, lost
//          state, or a self-detected digest divergence, flagged
//          "diverged":true) and the primary must re-ship a snapshot.
//   {"op":"promote"}                   -> standby becomes a primary
//       (optional "replicate_to" starts streaming to a new standby)
//
// A daemon in standby mode refuses the normal session verbs with
// code "standby" until promoted; a primary, promoted or not, refuses
// the repl_* verbs with bad_request "not a standby" (a fenced-off
// zombie primary must not keep writing). ping, stats, shutdown and
// promote are served in either role.
//
// Any request may carry "deadline_ms": the server clamps it against
// its own per-request budget and propagates the shrinking remainder
// (base::Watchdog::remaining) into the resolve.
//
// Replies: {"ok":true, ...} on success. On failure
// {"ok":false,"code":"<stable code>","error":"<detail>"}; overload
// replies ("code":"retry_after") add "retry_after_ms" -- the client
// must back off and retry instead of queueing unboundedly server-side.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cg/constraint_graph.hpp"
#include "engine/edit.hpp"
#include "persist/wal.hpp"

namespace relsched::serve {

/// Hard cap on one frame's payload (requests and replies alike).
inline constexpr std::size_t kMaxFrameBytes = 16u << 20;

/// Parser recursion cap: deeper nesting is a bad_request, not a stack
/// overflow.
inline constexpr int kMaxJsonDepth = 32;

class Json {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kInt,
    kDouble,
    kString,
    kArray,
    kObject,
  };

  Json() = default;

  static Json null() { return Json(); }
  static Json boolean(bool v);
  static Json number(long long v);
  static Json number(double v);
  static Json string(std::string v);
  static Json array();
  static Json object();

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }

  // ---- Readers (type-checked; wrong-kind access yields the fallback) ------
  [[nodiscard]] bool as_bool(bool fallback = false) const;
  [[nodiscard]] long long as_int(long long fallback = 0) const;
  [[nodiscard]] double as_double(double fallback = 0) const;
  [[nodiscard]] const std::string& as_string() const;  // "" fallback

  /// Object field; nullptr when absent or not an object.
  [[nodiscard]] const Json* get(std::string_view key) const;
  /// Array element count (0 for non-arrays).
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  /// Array element; nullptr out of range.
  [[nodiscard]] const Json* at(std::size_t i) const;

  // ---- Builders -----------------------------------------------------------
  Json& set(std::string key, Json value);  // object field (last write wins)
  Json& push(Json value);                  // array append

  /// Compact single-line rendering (stable field order = insertion
  /// order, which is what the tests golden against).
  [[nodiscard]] std::string render() const;

  /// Parses one JSON value spanning the whole input (trailing
  /// non-whitespace is an error). On failure returns nullopt and sets
  /// *error to a one-line description with the byte offset.
  static std::optional<Json> parse(std::string_view text, std::string* error);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  long long int_ = 0;
  double double_ = 0;
  std::string string_;
  std::vector<Json> items_;                               // array
  std::vector<std::pair<std::string, Json>> fields_;      // object
};

// ---- Edits -----------------------------------------------------------------
// Each element of an "edit" request's "edits" array is one engine::Edit,
// spelled by the edit kind table in protocol.cpp.

/// Decodes one element, operands unchecked; nullopt with *error set to
/// `missing kind` or `unknown kind "<k>"` on failure.
[[nodiscard]] std::optional<engine::Edit> decode_edit(const Json& edit,
                                                      std::string* error);

/// Renders an edit as one element (the inverse of decode_edit), e.g.
/// {"kind":"add_min","from":1,"to":2,"cycles":3}.
[[nodiscard]] Json edit_json(const engine::Edit& edit);

/// Decodes an "edit" request's batch and checks every edit against `g`
/// (Edit::refusal). On failure returns false with the bad_request detail
/// in *error: `edit requires an edits array`, `edit #i: missing kind`,
/// `edit #i: unknown kind "<k>"` or `edit #i: <kind> operands out of
/// range`.
[[nodiscard]] bool decode_edits(const Json& request, const cg::ConstraintGraph& g,
                                std::vector<engine::Edit>* out,
                                std::string* error);

/// One record of a repl_append batch:
/// {"op":<WalRecord::Op>,"rev":R,"a":A,"b":B,"v":V}.
[[nodiscard]] Json record_json(const persist::WalRecord& record);

/// Decodes one repl_append record; false when "op" is not an op number
/// or "rev" is not a number. Absent operands read -1 (a, b) and 0 (v);
/// replay checks them (Edit::refusal) before they narrow.
[[nodiscard]] bool decode_record(const Json& record, persist::WalRecord* out);

// ---- Hex helpers -----------------------------------------------------------
// Session ids and digests travel as fixed-width lowercase hex;
// snapshot payloads ride inside JSON strings as hex of the raw
// RSNAP001 bytes (KB-scale files, well under the frame cap).

[[nodiscard]] std::string hex16(std::uint64_t v);
[[nodiscard]] bool parse_hex16(const std::string& s, std::uint64_t* out);
[[nodiscard]] std::string hex_encode(std::string_view bytes);
/// False on odd length or a non-hex character; *out is cleared first.
[[nodiscard]] bool hex_decode(std::string_view hex, std::string* out);

// ---- Framing ---------------------------------------------------------------

/// Reads one length-prefixed frame from `fd` (blocking, EINTR-safe).
/// Returns false with *error empty on clean EOF, non-empty on a
/// protocol violation (oversized frame) or transport failure.
[[nodiscard]] bool read_frame(int fd, std::string* payload,
                              std::string* error);

/// Writes one frame (length prefix + payload); false on transport
/// failure or an oversized payload.
[[nodiscard]] bool write_frame(int fd, std::string_view payload);

// ---- Stable reply codes ----------------------------------------------------
// Renderred into the "code" field of failure replies; never renamed.
inline constexpr const char* kCodeBadRequest = "bad_request";
inline constexpr const char* kCodeUnknownSession = "unknown_session";
inline constexpr const char* kCodeRetryAfter = "retry_after";
inline constexpr const char* kCodeDeadline = "deadline";
inline constexpr const char* kCodeInternal = "internal";
inline constexpr const char* kCodeShuttingDown = "shutting_down";
inline constexpr const char* kCodeIo = "io";
inline constexpr const char* kCodeStandby = "standby";

}  // namespace relsched::serve
