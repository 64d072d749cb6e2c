// Write-ahead log for SynthesisSession edit streams.
//
// Products of a session are a pure function of its constraint graph
// (warm == cold is property-tested), so durably recording the *edits*
// plus the resolve points is enough to reconstruct any session state
// from the last snapshot: recovery = load snapshot, replay the WAL
// records whose revision is beyond the snapshot's, resolving at each
// kResolve marker.
//
// File layout ("RSWAL001"): header = magic(8) | u32 version |
// u64 base_revision, then a sequence of records, each
// u32 payload_len | payload | u64 fnv1a(payload). Record payloads are
// fixed-size (u64 revision | u8 op | i32 a | i32 b | i64 value), which
// lets the reader tell a torn tail from mid-file corruption:
//
//   - a record that is incomplete at EOF, or whose checksum fails on
//     the final record, is a torn tail -- the crash happened mid-append.
//     The tail is dropped (reported, and truncated on the next open);
//     recovery proceeds with the intact prefix. This is standard WAL
//     semantics: an edit whose append never completed was never
//     acknowledged.
//   - a checksum or length violation with further bytes after it is
//     corruption of acknowledged history: fatal, structured rejection.
//
// Durability policy: appends accumulate in a user-space buffer (no
// syscall); sync_for_commit() applies the configured Sync policy
// (default: group commit at most every sync_interval), and a flush
// point (sync_now, an elapsed interval, reset, close) writes the
// buffer in one batch before any fsync. kAlways flushes and fsyncs
// every commit point and is what the crash-recovery tests use;
// kInterval bounds the loss window while keeping the bench durability
// gate honest (a syscall per warm resolve would dominate a
// microsecond-scale resolve).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "persist/serialize.hpp"

namespace relsched::persist {

struct WalRecord {
  enum class Op : std::uint8_t {
    kAddMin = 1,
    kAddMax = 2,
    kRemoveConstraint = 3,
    kSetBound = 4,
    kSetDelay = 5,
    kResolve = 6,  // commit point: products were (re)computed here
  };

  Op op = Op::kResolve;
  /// Graph revision *after* the edit (for kResolve: the revision the
  /// resolve covered). Replay applies records with revision greater
  /// than the session's current one and skips the rest.
  std::uint64_t revision = 0;
  /// Operand meanings by op:
  ///   kAddMin/kAddMax      a = from vertex, b = to vertex, value = bound
  ///   kRemoveConstraint    a = edge id
  ///   kSetBound            a = edge id, value = bound
  ///   kSetDelay            a = vertex, value = cycles (-1 = unbounded)
  ///   kResolve             (none)
  /// 64-bit until replay range-checks them; the log stores the i32 ids
  /// of edits the session applied.
  std::int64_t a = -1;
  std::int64_t b = -1;
  std::int64_t value = 0;
};

struct WalOptions {
  enum class Sync : std::uint8_t {
    kNone,      // never fsync (tests / throwaway runs)
    kInterval,  // group commit: fsync when sync_interval has elapsed
    kAlways,    // fsync every commit point
  };
  Sync sync = Sync::kInterval;
  std::chrono::milliseconds sync_interval{50};

  /// Reads RELSCHED_CHECKPOINT_SYNC (always|interval|none) and
  /// RELSCHED_CHECKPOINT_SYNC_INTERVAL_MS over the defaults, via the
  /// hardened base::env parsers.
  static WalOptions from_env();
};

class Wal {
 public:
  /// Opens (or creates, with `base_revision_if_new`) the log at `path`,
  /// truncates any torn tail, and positions for appending. Returns
  /// nullptr with *error set when the file exists but is not a usable
  /// WAL (bad magic/version, mid-file corruption, io failure).
  static std::unique_ptr<Wal> open(const std::string& path,
                                   std::uint64_t base_revision_if_new,
                                   const WalOptions& options, Error* error);

  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends one record (buffered). After an io error the log is dead:
  /// further appends are no-ops and error() stays set.
  void append(const WalRecord& record);

  /// Applies the durability policy at a commit point (a kResolve
  /// marker was just appended).
  void sync_for_commit();

  /// Unconditional flush+fsync (checkpoint boundaries).
  void sync_now();

  /// Flushes buffered records to the kernel without fsync. Cheap when
  /// the buffer is empty; used at commit points when a replication
  /// follower tails the file (same-host readers see the page cache, so
  /// a flush is enough to make committed records streamable without
  /// paying an fsync the durability policy did not ask for).
  void flush_now();

  /// Truncates the log to a fresh header with `new_base_revision`
  /// (after a snapshot made the history up to that revision redundant).
  Error reset(std::uint64_t new_base_revision);

  [[nodiscard]] std::uint64_t base_revision() const { return base_revision_; }
  [[nodiscard]] const Error& error() const { return error_; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] long long appended_records() const { return appended_; }
  [[nodiscard]] long long fsyncs() const { return fsyncs_; }
  /// Transient write failures (EINTR/EAGAIN/partial writes) absorbed by
  /// the bounded-backoff retry loop before the append succeeded. A
  /// nonzero count with error().ok() means the log fought the
  /// filesystem and won; surfaced as SessionStats::wal_retries.
  [[nodiscard]] long long retries() const { return retries_; }

  struct ReadResult {
    /// Fatal problem (file unusable); records empty.
    Error error;
    std::uint64_t base_revision = 0;
    std::vector<WalRecord> records;
    /// A torn tail was dropped; `torn_detail` says what was wrong.
    bool torn_tail = false;
    std::string torn_detail;

    [[nodiscard]] bool ok() const { return error.ok(); }
  };

  /// Parses the whole log. Missing file is fatal kIo (callers decide
  /// whether that is fine); torn tails are reported, not fatal.
  static ReadResult read(const std::string& path);

  struct TailResult {
    /// Fatal problem: missing/unreadable file, bad header, or
    /// corruption of acknowledged history (checksum/length violation
    /// with further records following). Streaming cannot continue;
    /// the caller re-bootstraps from a snapshot.
    Error error;
    std::uint64_t base_revision = 0;
    /// Sequence number (record index in the current log file) of the
    /// first record NOT returned: from_seq + records.size() normally,
    /// or the total record count when from_seq was past the end. A
    /// next_seq below the requested from_seq means the log was reset
    /// (truncated to a fresh header by a checkpoint) since the caller
    /// last polled -- together with a changed base_revision this is
    /// the epoch-change signal.
    std::uint64_t next_seq = 0;
    std::vector<WalRecord> records;
    /// An incomplete or checksum-failing final record was left in
    /// place (an append may be mid-flight); the caller just polls
    /// again later. Never fatal for tailing.
    bool torn_tail = false;

    [[nodiscard]] bool ok() const { return error.ok(); }
  };

  /// Streaming read for replication: returns the intact records from
  /// sequence number `from_seq` (0-based index within the current log
  /// file) to the end of the log. Frame checksums are verified; a torn
  /// tail is tolerated (reported via `torn_tail`, treated as
  /// not-yet-appended rather than dropped history). Stateless -- the
  /// caller owns the (base_revision, next_seq) cursor and detects log
  /// resets via the signals documented on TailResult.
  static TailResult read_tail(const std::string& path,
                              std::uint64_t from_seq);

 private:
  Wal() = default;

  /// Writes the buffered records to the fd in one batch. Returns false
  /// (and kills the log) on io failure.
  bool flush();

  std::string buffer_;
  std::string path_;
  WalOptions options_;
  int fd_ = -1;
  std::uint64_t base_revision_ = 0;
  Error error_;
  long long appended_ = 0;
  long long fsyncs_ = 0;
  long long retries_ = 0;
  std::chrono::steady_clock::time_point last_sync_{};
};

}  // namespace relsched::persist
