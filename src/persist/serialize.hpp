// Binary serialization primitives for crash-safe synthesis state.
//
// Everything persisted by the engine (snapshots, write-ahead logs,
// exploration checkpoints) goes through these pieces:
//
//   Writer / Reader  - little-endian, fixed-width, bounds-checked
//                      encoding into/out of a byte buffer. Readers
//                      never trust a length field further than the
//                      bytes actually present.
//   fnv1a64          - the checksum guarding every persisted payload.
//   framed files     - magic + version + length + checksum envelope;
//                      a torn or bit-flipped file is detected and
//                      rejected with a structured Error, never loaded.
//   atomic_write_file- write-temp + fsync + rename discipline, so a
//                      crash mid-write leaves either the old file or
//                      the new one, never a hybrid.
//
// Layering: persist sits above base only. Graph/engine-shaped payloads
// are composed from these primitives in snapshot.{hpp,cpp} and by the
// engine itself.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace relsched::persist {

/// Stable machine-readable persistence failure codes (rendered into
/// JSON; never renumbered, only appended).
enum class ErrorCode : std::uint8_t {
  kNone,           // success
  kIo,             // open/read/write/rename/fsync failed
  kBadMagic,       // not a file of the expected kind
  kBadVersion,     // produced by an incompatible format version
  kChecksum,       // payload bytes do not match the stored checksum
  kTruncated,      // file shorter than its header claims
  kFormat,         // payload parsed but violates structural invariants
  kStateMismatch,  // payload is internally valid but belongs to a
                   // different run (config hash / revision mismatch)
};

[[nodiscard]] const char* to_string(ErrorCode code);

/// A structured persistence diagnostic: stable code + context. The
/// recovery contract is that corrupt state is *rejected with one of
/// these*, never silently loaded.
struct Error {
  ErrorCode code = ErrorCode::kNone;
  std::string message;
  std::string path;

  [[nodiscard]] bool ok() const { return code == ErrorCode::kNone; }
  /// One-line human rendering ("snapshot.bin: checksum: ...").
  [[nodiscard]] std::string render() const;

  static Error make(ErrorCode code, std::string message,
                    std::string path = {});
};

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// FNV-1a 64-bit over `data`; chainable via `seed`. (Implemented in
/// base/hash.hpp so layers below persist -- the binary graph format in
/// cg -- share the exact checksum; kept here as the persist-facing
/// name.)
[[nodiscard]] std::uint64_t fnv1a64(const void* data, std::size_t size,
                                    std::uint64_t seed = kFnvOffset);
[[nodiscard]] std::uint64_t fnv1a64(std::string_view data,
                                    std::uint64_t seed = kFnvOffset);

/// Appends little-endian fixed-width values to a byte buffer.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);  // IEEE-754 bit pattern
  void b(bool v) { u8(v ? 1 : 0); }
  /// u32 length + raw bytes.
  void str(std::string_view s);
  void vec_i32(const std::vector<std::int32_t>& v);
  void vec_i64(const std::vector<std::int64_t>& v);

  [[nodiscard]] const std::string& buffer() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian decoding. Any under-run or oversized
/// length field sets the sticky failure flag and yields zero values;
/// callers check ok() once at the end (and after every length they are
/// about to trust for allocation).
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  bool b() { return u8() != 0; }
  std::string str();
  std::vector<std::int32_t> vec_i32();
  std::vector<std::int64_t> vec_i64();

  [[nodiscard]] bool ok() const { return !fail_; }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }
  /// Marks the stream failed (structural validation found bad content).
  void fail() { fail_ = true; }

 private:
  bool take(void* dst, std::size_t n);

  std::string_view data_;
  std::size_t pos_ = 0;
  bool fail_ = false;
};

// ---- Transient-fault policy ------------------------------------------------
// Shared by every persist write path (atomic_write_file, the WAL):
// EINTR/EAGAIN/short writes are retried up to kMaxIoBackoffs times
// with exponential backoff (50us doubling, ~13ms worst-case total)
// before the operation is declared fatal. Hard errors (ENOSPC, EIO)
// are never retried.
inline constexpr int kMaxIoBackoffs = 8;
/// Sleeps for the `attempt`-th backoff interval (0-based).
void io_backoff(int attempt);

/// Writes `path` atomically: the bytes land in a uniquely-named
/// "<path>.tmp.<pid>.<seq>" sibling (so concurrent writers sharing a
/// directory cannot publish each other's partial bytes), are fsync'd
/// (when `durable`), and rename into place; the containing directory
/// is fsync'd so the rename itself survives a power cut. Every
/// failure path -- including a failed temp->final rename -- unlinks
/// the temp file and returns a structured Error.
[[nodiscard]] Error atomic_write_file(const std::string& path,
                                      std::string_view data,
                                      bool durable = true);

/// Reads a whole file; kIo when unreadable.
[[nodiscard]] Error read_file(const std::string& path, std::string* out);

/// Framed-file envelope: magic(8) | u32 version | u64 payload_len |
/// u64 fnv1a(payload) | payload. `magic` must be exactly 8 chars.
[[nodiscard]] Error write_framed_file(const std::string& path,
                                      std::string_view magic,
                                      std::uint32_t version,
                                      std::string_view payload,
                                      bool durable = true);
[[nodiscard]] Error read_framed_file(const std::string& path,
                                     std::string_view magic,
                                     std::uint32_t expected_version,
                                     std::string* payload);

/// Creates `dir` if absent (parent must exist); kIo on failure.
[[nodiscard]] Error ensure_dir(const std::string& dir);

// Checkpoint-directory layout: one well-known file per artifact.
[[nodiscard]] std::string snapshot_path(const std::string& dir);
[[nodiscard]] std::string wal_path(const std::string& dir);
[[nodiscard]] std::string explore_path(const std::string& dir);

}  // namespace relsched::persist
