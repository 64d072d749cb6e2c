#include "persist/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>

#include "base/env.hpp"
#include "base/fault_fs.hpp"
#include "base/errno_text.hpp"
#include "base/strings.hpp"

namespace relsched::persist {

namespace {

constexpr std::string_view kMagic = "RSWAL001";
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderSize = 8 + 4 + 8;  // magic, version, base rev
// Fixed payload: u64 revision | u8 op | i32 a | i32 b | i64 value.
constexpr std::uint32_t kPayloadSize = 8 + 1 + 4 + 4 + 8;
constexpr std::size_t kRecordSize = 4 + kPayloadSize + 8;

std::string encode_header(std::uint64_t base_revision) {
  Writer w;
  std::string out(kMagic);
  w.u32(kVersion);
  w.u64(base_revision);
  out += w.buffer();
  return out;
}

std::string encode_record(const WalRecord& record) {
  Writer payload;
  payload.u64(record.revision);
  payload.u8(static_cast<std::uint8_t>(record.op));
  payload.i32(static_cast<std::int32_t>(record.a));
  payload.i32(static_cast<std::int32_t>(record.b));
  payload.i64(record.value);
  Writer frame;
  frame.u32(kPayloadSize);
  std::string out = frame.take();
  out += payload.buffer();
  Writer sum;
  sum.u64(fnv1a64(payload.buffer()));
  out += sum.buffer();
  return out;
}

bool valid_op(std::uint8_t op) {
  return op >= static_cast<std::uint8_t>(WalRecord::Op::kAddMin) &&
         op <= static_cast<std::uint8_t>(WalRecord::Op::kResolve);
}

Error errno_error(const char* op, const std::string& path) {
  return Error::make(ErrorCode::kIo, cat(op, ": ", base::errno_text(errno)),
                     path);
}

/// Writes all of `data`, retrying transient failures (EINTR, EAGAIN,
/// short writes) with bounded exponential backoff before giving up.
/// Each retry (including the resume after a short write) increments
/// *retries, so callers can surface how hard the log is fighting the
/// filesystem. Hard errors (ENOSPC, EIO, ...) fail immediately: a log
/// that cannot grow is fatal, not worth stalling a commit point for.
bool write_all(int fd, std::string_view data, long long* retries = nullptr) {
  std::size_t written = 0;
  int backoffs = 0;
  while (written < data.size()) {
    const ssize_t n = base::fault_fs().write(fd, data.data() + written,
                                             data.size() - written);
    if (n < 0) {
      if ((errno == EINTR || errno == EAGAIN) && backoffs < kMaxIoBackoffs) {
        io_backoff(backoffs++);
        if (retries != nullptr) ++*retries;
        continue;
      }
      return false;
    }
    if (static_cast<std::size_t>(n) < data.size() - written &&
        retries != nullptr) {
      // Partial write: not an error from write(2)'s point of view, but
      // the append is only durable once the tail lands; count the
      // resume as a retry so SessionStats shows the churn.
      ++*retries;
    }
    written += static_cast<std::size_t>(n);
    if (n > 0) backoffs = 0;  // forward progress resets the budget
  }
  return true;
}

/// Shared scan over the raw bytes after the header. On success,
/// `*valid_end` is the offset (from file start) just past the last
/// intact record -- the append position after dropping any torn tail.
Wal::ReadResult parse(const std::string& path, std::string_view data,
                      std::size_t* valid_end) {
  Wal::ReadResult result;
  if (data.size() < kHeaderSize) {
    result.error = Error::make(
        ErrorCode::kTruncated,
        cat("log holds ", data.size(), " bytes, shorter than the ",
            kHeaderSize, "-byte header"),
        path);
    return result;
  }
  if (data.substr(0, kMagic.size()) != kMagic) {
    result.error =
        Error::make(ErrorCode::kBadMagic, "not a relsched WAL", path);
    return result;
  }
  Reader header(data.substr(kMagic.size(), 12));
  const std::uint32_t version = header.u32();
  result.base_revision = header.u64();
  if (version != kVersion) {
    result.error = Error::make(
        ErrorCode::kBadVersion,
        cat("WAL version ", version, ", expected ", kVersion), path);
    return result;
  }

  std::size_t off = kHeaderSize;
  if (valid_end != nullptr) *valid_end = off;
  while (off < data.size()) {
    const std::size_t left = data.size() - off;
    const bool last_possible = left <= kRecordSize;
    if (left < kRecordSize) {
      // Fewer bytes than one record: can only be a torn append.
      result.torn_tail = true;
      result.torn_detail = cat("incomplete record (", left,
                               " trailing bytes) dropped at offset ", off);
      return result;
    }
    Reader r(data.substr(off, kRecordSize));
    const std::uint32_t len = r.u32();
    if (len != kPayloadSize) {
      if (last_possible) {
        result.torn_tail = true;
        result.torn_detail =
            cat("bad record length ", len, " at end of log, dropped");
        return result;
      }
      result.error = Error::make(
          ErrorCode::kFormat,
          cat("record at offset ", off, " has length ", len, ", expected ",
              kPayloadSize, " with further records following"),
          path);
      result.records.clear();
      return result;
    }
    const std::string_view payload = data.substr(off + 4, kPayloadSize);
    Reader sumr(data.substr(off + 4 + kPayloadSize, 8));
    if (fnv1a64(payload) != sumr.u64()) {
      if (last_possible) {
        result.torn_tail = true;
        result.torn_detail = cat("checksum mismatch on final record at offset ",
                                 off, ", dropped as torn");
        return result;
      }
      result.error = Error::make(
          ErrorCode::kChecksum,
          cat("record at offset ", off,
              " fails its checksum with further records following"),
          path);
      result.records.clear();
      return result;
    }
    Reader pr(payload);
    WalRecord record;
    record.revision = pr.u64();
    const std::uint8_t op = pr.u8();
    record.a = pr.i32();
    record.b = pr.i32();
    record.value = pr.i64();
    if (!valid_op(op)) {
      result.error = Error::make(
          ErrorCode::kFormat,
          cat("record at offset ", off, " has unknown op ", int(op)), path);
      result.records.clear();
      return result;
    }
    record.op = static_cast<WalRecord::Op>(op);
    result.records.push_back(record);
    off += kRecordSize;
    if (valid_end != nullptr) *valid_end = off;
  }
  return result;
}

}  // namespace

WalOptions WalOptions::from_env() {
  WalOptions options;
  const int sync = base::env_choice("RELSCHED_CHECKPOINT_SYNC",
                                    {"interval", "always", "none"}, 0);
  options.sync = sync == 1 ? Sync::kAlways
                           : (sync == 2 ? Sync::kNone : Sync::kInterval);
  const long long interval_ms = base::env_int(
      "RELSCHED_CHECKPOINT_SYNC_INTERVAL_MS", options.sync_interval.count());
  if (interval_ms >= 0) {
    options.sync_interval = std::chrono::milliseconds(interval_ms);
  }
  return options;
}

std::unique_ptr<Wal> Wal::open(const std::string& path,
                               std::uint64_t base_revision_if_new,
                               const WalOptions& options, Error* error) {
  *error = {};
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    *error = errno_error("open", path);
    return nullptr;
  }
  std::string data;
  {
    char buf[1 << 16];
    ssize_t n = 0;
    while ((n = ::read(fd, buf, sizeof buf)) > 0) {
      data.append(buf, static_cast<std::size_t>(n));
    }
    if (n < 0) {
      *error = errno_error("read", path);
      ::close(fd);
      return nullptr;
    }
  }

  std::unique_ptr<Wal> wal(new Wal());
  wal->path_ = path;
  wal->options_ = options;
  wal->fd_ = fd;
  wal->last_sync_ = std::chrono::steady_clock::now();

  if (data.empty()) {
    wal->base_revision_ = base_revision_if_new;
    const std::string header = encode_header(base_revision_if_new);
    if (!write_all(fd, header, &wal->retries_) || ::fsync(fd) != 0) {
      *error = errno_error("write header", path);
      return nullptr;
    }
    return wal;
  }

  std::size_t valid_end = 0;
  ReadResult scan = parse(path, data, &valid_end);
  if (!scan.ok()) {
    *error = scan.error;
    return nullptr;
  }
  wal->base_revision_ = scan.base_revision;
  if (scan.torn_tail) {
    // Drop the torn bytes before appending over them.
    if (::ftruncate(fd, static_cast<off_t>(valid_end)) != 0) {
      *error = errno_error("ftruncate", path);
      return nullptr;
    }
  }
  if (::lseek(fd, static_cast<off_t>(valid_end), SEEK_SET) < 0) {
    *error = errno_error("lseek", path);
    return nullptr;
  }
  return wal;
}

Wal::~Wal() {
  if (fd_ >= 0) {
    flush();  // best effort: unflushed tail records reach the page cache
    ::close(fd_);
  }
}

void Wal::append(const WalRecord& record) {
  if (!error_.ok()) return;
  // Pure in-memory append: a warm resolve's commit point must cost
  // nanoseconds, not a write() syscall per record. The bytes reach the
  // kernel in one batch at the next flush point (sync_now, an elapsed
  // group-commit interval, reset, or close).
  buffer_ += encode_record(record);
  ++appended_;
}

bool Wal::flush() {
  if (buffer_.empty()) return true;
  if (!write_all(fd_, buffer_, &retries_)) {
    error_ = errno_error("append", path_);
    return false;
  }
  buffer_.clear();
  return true;
}

void Wal::sync_for_commit() {
  if (!error_.ok()) return;
  switch (options_.sync) {
    case WalOptions::Sync::kNone:
      return;
    case WalOptions::Sync::kAlways:
      break;
    case WalOptions::Sync::kInterval: {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_sync_ < options_.sync_interval) return;
      break;
    }
  }
  sync_now();
}

void Wal::flush_now() {
  if (!error_.ok()) return;
  flush();
}

void Wal::sync_now() {
  if (!error_.ok()) return;
  if (!flush()) return;
  int backoffs = 0;
  while (base::fault_fs().fsync(fd_) != 0) {
    if (errno == EINTR && backoffs < kMaxIoBackoffs) {
      io_backoff(backoffs++);
      ++retries_;
      continue;
    }
    error_ = errno_error("fsync", path_);
    return;
  }
  ++fsyncs_;
  last_sync_ = std::chrono::steady_clock::now();
}

Error Wal::reset(std::uint64_t new_base_revision) {
  if (!error_.ok()) return error_;
  // Buffered records describe history the snapshot now subsumes; they
  // must never be written after the truncate.
  buffer_.clear();
  if (::ftruncate(fd_, 0) != 0 || ::lseek(fd_, 0, SEEK_SET) < 0) {
    error_ = errno_error("truncate", path_);
    return error_;
  }
  const std::string header = encode_header(new_base_revision);
  if (!write_all(fd_, header, &retries_) || ::fsync(fd_) != 0) {
    error_ = errno_error("rewrite header", path_);
    return error_;
  }
  ++fsyncs_;
  base_revision_ = new_base_revision;
  last_sync_ = std::chrono::steady_clock::now();
  return {};
}

Wal::ReadResult Wal::read(const std::string& path) {
  std::string data;
  if (Error e = read_file(path, &data); !e.ok()) {
    ReadResult result;
    result.error = std::move(e);
    return result;
  }
  return parse(path, data, nullptr);
}

Wal::TailResult Wal::read_tail(const std::string& path,
                               std::uint64_t from_seq) {
  TailResult result;
  std::string data;
  if (Error e = read_file(path, &data); !e.ok()) {
    result.error = std::move(e);
    return result;
  }
  ReadResult scan = parse(path, data, nullptr);
  if (!scan.ok()) {
    result.error = std::move(scan.error);
    return result;
  }
  result.base_revision = scan.base_revision;
  result.torn_tail = scan.torn_tail;
  const std::uint64_t total = scan.records.size();
  if (from_seq >= total) {
    // Nothing new -- or the log shrank under the cursor (a checkpoint
    // reset it); next_seq < from_seq tells the caller which.
    result.next_seq = total;
    return result;
  }
  result.records.assign(scan.records.begin() + static_cast<long>(from_seq),
                        scan.records.end());
  result.next_seq = total;
  return result;
}

}  // namespace relsched::persist
