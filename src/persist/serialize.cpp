#include "persist/serialize.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>

#include "base/errno_text.hpp"
#include "base/error.hpp"
#include "base/fault_fs.hpp"
#include "base/hash.hpp"
#include "base/strings.hpp"

namespace relsched::persist {

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone:
      return "none";
    case ErrorCode::kIo:
      return "io";
    case ErrorCode::kBadMagic:
      return "bad-magic";
    case ErrorCode::kBadVersion:
      return "bad-version";
    case ErrorCode::kChecksum:
      return "checksum";
    case ErrorCode::kTruncated:
      return "truncated";
    case ErrorCode::kFormat:
      return "format";
    case ErrorCode::kStateMismatch:
      return "state-mismatch";
  }
  return "?";
}

std::string Error::render() const {
  if (ok()) return "ok";
  std::string out;
  if (!path.empty()) out = cat(path, ": ");
  return cat(out, to_string(code), ": ", message);
}

Error Error::make(ErrorCode code, std::string message, std::string path) {
  Error e;
  e.code = code;
  e.message = std::move(message);
  e.path = std::move(path);
  return e;
}

std::uint64_t fnv1a64(const void* data, std::size_t size, std::uint64_t seed) {
  return base::fnv1a64(data, size, seed);
}

std::uint64_t fnv1a64(std::string_view data, std::uint64_t seed) {
  return fnv1a64(data.data(), data.size(), seed);
}

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void Writer::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void Writer::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

void Writer::vec_i32(const std::vector<std::int32_t>& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  for (const std::int32_t x : v) i32(x);
}

void Writer::vec_i64(const std::vector<std::int64_t>& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  for (const std::int64_t x : v) i64(x);
}

bool Reader::take(void* dst, std::size_t n) {
  if (fail_ || data_.size() - pos_ < n) {
    fail_ = true;
    return false;
  }
  std::memcpy(dst, data_.data() + pos_, n);
  pos_ += n;
  return true;
}

std::uint8_t Reader::u8() {
  unsigned char v = 0;
  take(&v, 1);
  return v;
}

std::uint32_t Reader::u32() {
  unsigned char raw[4] = {};
  if (!take(raw, sizeof raw)) return 0;
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | raw[i];
  return v;
}

std::uint64_t Reader::u64() {
  unsigned char raw[8] = {};
  if (!take(raw, sizeof raw)) return 0;
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | raw[i];
  return v;
}

double Reader::f64() {
  const std::uint64_t bits = u64();
  double v = 0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string Reader::str() {
  const std::uint32_t len = u32();
  if (fail_ || remaining() < len) {
    fail_ = true;
    return {};
  }
  std::string out(data_.substr(pos_, len));
  pos_ += len;
  return out;
}

std::vector<std::int32_t> Reader::vec_i32() {
  const std::uint32_t count = u32();
  // Every element occupies 4 bytes: cap the allocation by what is
  // actually present so a flipped length cannot balloon memory.
  if (fail_ || remaining() / 4 < count) {
    fail_ = true;
    return {};
  }
  std::vector<std::int32_t> out(count);
  for (std::uint32_t i = 0; i < count; ++i) out[i] = i32();
  return out;
}

std::vector<std::int64_t> Reader::vec_i64() {
  const std::uint32_t count = u32();
  if (fail_ || remaining() / 8 < count) {
    fail_ = true;
    return {};
  }
  std::vector<std::int64_t> out(count);
  for (std::uint32_t i = 0; i < count; ++i) out[i] = i64();
  return out;
}

namespace {

Error errno_error(const char* op, const std::string& path) {
  return Error::make(ErrorCode::kIo, cat(op, ": ", base::errno_text(errno)),
                     path);
}

/// fsync of the directory containing `path`, so a just-renamed entry is
/// durable. Best-effort: some filesystems refuse directory fsync.
void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

void io_backoff(int attempt) {
  // 50us << attempt: 50us, 100us, ..., ~6.4ms; ~13ms worst-case total
  // over kMaxIoBackoffs attempts. Long enough for a genuinely
  // transient condition to clear, short enough that a doomed write
  // fails within one request deadline.
  timespec ts{};
  const long usec = 50L << (attempt < 0 ? 0 : attempt);
  ts.tv_sec = usec / 1000000;
  ts.tv_nsec = (usec % 1000000) * 1000;
  ::nanosleep(&ts, nullptr);
}

Error atomic_write_file(const std::string& path, std::string_view data,
                        bool durable) {
  // Unique temp name per (process, call): two sessions checkpointing
  // into one shared directory must never scribble over each other's
  // in-flight temp file -- a fixed "<path>.tmp" would let one writer's
  // rename publish the *other* writer's half-written bytes as a
  // complete checkpoint. With unique temps, whichever rename lands
  // last wins atomically and both published states are internally
  // consistent.
  static std::atomic<std::uint64_t> sequence{0};
  const std::string tmp =
      cat(path, ".tmp.", static_cast<long long>(::getpid()), ".",
          static_cast<long long>(
              sequence.fetch_add(1, std::memory_order_relaxed)));
  base::FaultFs& fs = base::fault_fs();
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return errno_error("open", tmp);
  // Transient write faults (EINTR/EAGAIN/short writes) are retried
  // with bounded exponential backoff; anything that survives the
  // retries (ENOSPC, EIO) aborts the write, and every abort path
  // unlinks the temp file so a failed checkpoint can never leak one.
  std::size_t written = 0;
  int backoffs = 0;
  while (written < data.size()) {
    const ssize_t n =
        fs.write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if ((errno == EINTR || errno == EAGAIN) && backoffs < kMaxIoBackoffs) {
        io_backoff(backoffs++);
        continue;
      }
      const Error e = errno_error("write", tmp);
      ::close(fd);
      ::unlink(tmp.c_str());
      return e;
    }
    written += static_cast<std::size_t>(n);
  }
  if (durable) {
    backoffs = 0;
    while (fs.fsync(fd) != 0) {
      if (errno == EINTR && backoffs < kMaxIoBackoffs) {
        io_backoff(backoffs++);
        continue;
      }
      const Error e = errno_error("fsync", tmp);
      ::close(fd);
      ::unlink(tmp.c_str());
      return e;
    }
  }
  if (::close(fd) != 0) {
    const Error e = errno_error("close", tmp);
    ::unlink(tmp.c_str());
    return e;
  }
  if (fs.rename(tmp.c_str(), path.c_str()) != 0) {
    // The rename is the publish point; when it fails the target still
    // holds its previous (complete) contents. Clean up the orphaned
    // temp and surface a structured diag -- callers must see this as a
    // failed checkpoint, not a silent partial one.
    const Error e = errno_error("rename", path);
    ::unlink(tmp.c_str());
    return e;
  }
  if (durable) fsync_parent_dir(path);
  return {};
}

Error read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Error::make(ErrorCode::kIo, "cannot open for reading", path);
  }
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) return Error::make(ErrorCode::kIo, "read failed", path);
  *out = std::move(data);
  return {};
}

namespace {
constexpr std::size_t kMagicSize = 8;
constexpr std::size_t kFrameHeaderSize = kMagicSize + 4 + 8 + 8;
}  // namespace

Error write_framed_file(const std::string& path, std::string_view magic,
                        std::uint32_t version, std::string_view payload,
                        bool durable) {
  RELSCHED_CHECK(magic.size() == kMagicSize, "frame magic must be 8 bytes");
  Writer w;
  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  frame.append(magic.data(), magic.size());
  w.u32(version);
  w.u64(payload.size());
  w.u64(fnv1a64(payload));
  frame += w.buffer();
  frame.append(payload.data(), payload.size());
  return atomic_write_file(path, frame, durable);
}

Error read_framed_file(const std::string& path, std::string_view magic,
                       std::uint32_t expected_version, std::string* payload) {
  RELSCHED_CHECK(magic.size() == kMagicSize, "frame magic must be 8 bytes");
  std::string data;
  if (Error e = read_file(path, &data); !e.ok()) return e;
  if (data.size() < kFrameHeaderSize) {
    return Error::make(ErrorCode::kTruncated,
                       cat("file holds ", data.size(),
                           " bytes, shorter than the ", kFrameHeaderSize,
                           "-byte header"),
                       path);
  }
  if (std::string_view(data).substr(0, kMagicSize) != magic) {
    return Error::make(ErrorCode::kBadMagic,
                       cat("expected magic \"", magic, "\""), path);
  }
  Reader r(std::string_view(data).substr(kMagicSize));
  const std::uint32_t version = r.u32();
  const std::uint64_t length = r.u64();
  const std::uint64_t checksum = r.u64();
  if (version != expected_version) {
    return Error::make(
        ErrorCode::kBadVersion,
        cat("format version ", version, ", expected ", expected_version),
        path);
  }
  const std::string_view body =
      std::string_view(data).substr(kFrameHeaderSize);
  if (body.size() < length) {
    return Error::make(ErrorCode::kTruncated,
                       cat("payload holds ", body.size(), " of ", length,
                           " bytes (torn write)"),
                       path);
  }
  const std::string_view exact = body.substr(0, length);
  if (fnv1a64(exact) != checksum) {
    return Error::make(ErrorCode::kChecksum,
                       "payload bytes do not match the stored checksum",
                       path);
  }
  payload->assign(exact);
  return {};
}

Error ensure_dir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0777) == 0 || errno == EEXIST) return {};
  return errno_error("mkdir", dir);
}

std::string snapshot_path(const std::string& dir) {
  return cat(dir, "/snapshot.bin");
}
std::string wal_path(const std::string& dir) { return cat(dir, "/wal.bin"); }
std::string explore_path(const std::string& dir) {
  return cat(dir, "/explore.bin");
}

}  // namespace relsched::persist
