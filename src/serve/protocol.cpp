#include "serve/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "base/errno_text.hpp"
#include "base/json.hpp"
#include "base/strings.hpp"

namespace relsched::serve {

// ---- Json builders ---------------------------------------------------------

Json Json::boolean(bool v) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}

Json Json::number(long long v) {
  Json j;
  j.kind_ = Kind::kInt;
  j.int_ = v;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.kind_ = Kind::kDouble;
  j.double_ = v;
  return j;
}

Json Json::string(std::string v) {
  Json j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(v);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

bool Json::as_bool(bool fallback) const {
  return kind_ == Kind::kBool ? bool_ : fallback;
}

long long Json::as_int(long long fallback) const {
  if (kind_ == Kind::kInt) return int_;
  if (kind_ == Kind::kDouble) return static_cast<long long>(double_);
  return fallback;
}

double Json::as_double(double fallback) const {
  if (kind_ == Kind::kDouble) return double_;
  if (kind_ == Kind::kInt) return static_cast<double>(int_);
  return fallback;
}

const std::string& Json::as_string() const {
  static const std::string kEmpty;
  return kind_ == Kind::kString ? string_ : kEmpty;
}

const Json* Json::get(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : fields_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json* Json::at(std::size_t i) const {
  return i < items_.size() ? &items_[i] : nullptr;
}

Json& Json::set(std::string key, Json value) {
  kind_ = Kind::kObject;
  for (auto& [k, v] : fields_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  fields_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  kind_ = Kind::kArray;
  items_.push_back(std::move(value));
  return *this;
}

// ---- Rendering -------------------------------------------------------------

std::string Json::render() const {
  std::string out;
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return bool_ ? "true" : "false";
    case Kind::kInt:
      return cat(int_);
    case Kind::kDouble: {
      if (!std::isfinite(double_)) {
        return "null";  // JSON has no Inf/NaN; null is the honest spelling
      }
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", double_);
      return buf;
    }
    case Kind::kString:
      base::append_json_string(out, string_);
      return out;
    case Kind::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i != 0) out.push_back(',');
        out += items_[i].render();
      }
      out.push_back(']');
      return out;
    }
    case Kind::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : fields_) {
        if (!first) out.push_back(',');
        first = false;
        base::append_json_string(out, k);
        out.push_back(':');
        out += v.render();
      }
      out.push_back('}');
      return out;
    }
  }
  return out;
}

// ---- Parsing ---------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> run(std::string* error) {
    std::optional<Json> value = parse_value(0);
    if (!value) {
      *error = cat("json: ", error_, " at byte ", pos_);
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      *error = cat("json: trailing bytes at byte ", pos_);
      return std::nullopt;
    }
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool fail(std::string message) {
    if (error_.empty()) error_ = std::move(message);
    return false;
  }

  [[nodiscard]] bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::optional<Json> parse_value(int depth) {
    if (depth > kMaxJsonDepth) {
      fail(cat("nesting deeper than ", kMaxJsonDepth));
      return std::nullopt;
    }
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    const char c = text_[pos_];
    switch (c) {
      case 'n':
        if (!literal("null")) break;
        return Json::null();
      case 't':
        if (!literal("true")) break;
        return Json::boolean(true);
      case 'f':
        if (!literal("false")) break;
        return Json::boolean(false);
      case '"':
        return parse_string();
      case '[':
        return parse_array(depth);
      case '{':
        return parse_object(depth);
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        break;
    }
    fail(cat("unexpected character '", std::string(1, c), "'"));
    return std::nullopt;
  }

  std::optional<Json> parse_string() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
        return std::nullopt;
      }
      const char c = text_[pos_++];
      if (c == '"') return Json::string(std::move(out));
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
        return std::nullopt;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        fail("dangling escape");
        return std::nullopt;
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          unsigned code = 0;
          if (!parse_hex4(&code)) return std::nullopt;
          if (code >= 0xD800 && code <= 0xDBFF) {
            // Surrogate pair: require the low half immediately after.
            unsigned low = 0;
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail("high surrogate without low surrogate");
              return std::nullopt;
            }
            pos_ += 2;
            if (!parse_hex4(&low)) return std::nullopt;
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("invalid low surrogate");
              return std::nullopt;
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("stray low surrogate");
            return std::nullopt;
          }
          append_utf8(code, &out);
          break;
        }
        default:
          fail(cat("unknown escape '\\", std::string(1, e), "'"));
          return std::nullopt;
      }
    }
  }

  bool parse_hex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_ + static_cast<std::size_t>(i)];
      code <<= 4;
      if (h >= '0' && h <= '9') {
        code |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        code |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        code |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        return fail("non-hex digit in \\u escape");
      }
    }
    pos_ += 4;
    *out = code;
    return true;
  }

  static void append_utf8(unsigned code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  std::optional<Json> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") {
      fail("malformed number");
      return std::nullopt;
    }
    errno = 0;
    if (integral) {
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == ERANGE || end == nullptr || *end != '\0') {
        fail(cat("integer out of range: ", token));
        return std::nullopt;
      }
      return Json::number(v);
    }
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(v)) {
      fail(cat("malformed number: ", token));
      return std::nullopt;
    }
    return Json::number(v);
  }

  std::optional<Json> parse_array(int depth) {
    ++pos_;  // '['
    Json out = Json::array();
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      std::optional<Json> item = parse_value(depth + 1);
      if (!item) return std::nullopt;
      out.push(std::move(*item));
      skip_ws();
      if (pos_ >= text_.size()) {
        fail("unterminated array");
        return std::nullopt;
      }
      const char c = text_[pos_++];
      if (c == ']') return out;
      if (c != ',') {
        fail("expected ',' or ']' in array");
        return std::nullopt;
      }
    }
  }

  std::optional<Json> parse_object(int depth) {
    ++pos_;  // '{'
    Json out = Json::object();
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        fail("expected string key in object");
        return std::nullopt;
      }
      std::optional<Json> key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        fail("expected ':' after object key");
        return std::nullopt;
      }
      ++pos_;
      std::optional<Json> value = parse_value(depth + 1);
      if (!value) return std::nullopt;
      out.set(key->as_string(), std::move(*value));
      skip_ws();
      if (pos_ >= text_.size()) {
        fail("unterminated object");
        return std::nullopt;
      }
      const char c = text_[pos_++];
      if (c == '}') return out;
      if (c != ',') {
        fail("expected ',' or '}' in object");
        return std::nullopt;
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text, std::string* error) {
  return Parser(text).run(error);
}

// ---- Hex helpers -----------------------------------------------------------

namespace {
constexpr const char* kHexDigits = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}
}  // namespace

std::string hex16(std::uint64_t v) {
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHexDigits[v & 0xF];
    v >>= 4;
  }
  return out;
}

bool parse_hex16(const std::string& s, std::uint64_t* out) {
  if (s.size() != 16) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    const int d = hex_value(c);
    if (d < 0) return false;
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  *out = v;
  return true;
}

std::string hex_encode(std::string_view bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kHexDigits[b >> 4];
    out += kHexDigits[b & 0xF];
  }
  return out;
}

bool hex_decode(std::string_view hex, std::string* out) {
  out->clear();
  if (hex.size() % 2 != 0) return false;
  out->reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_value(hex[i]);
    const int lo = hex_value(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<char>((hi << 4) | lo));
  }
  return true;
}

// ---- Framing ---------------------------------------------------------------

namespace {

/// Reads exactly `count` bytes; 1 on success, 0 on clean EOF at a frame
/// boundary (nothing read yet), -1 on transport failure or mid-frame EOF.
int read_exact(int fd, char* buf, std::size_t count, std::string* error) {
  std::size_t got = 0;
  while (got < count) {
    const ssize_t n = ::read(fd, buf + got, count - got);
    if (n == 0) {
      if (got == 0) return 0;
      *error = cat("connection closed mid-frame (", got, " of ", count,
                   " bytes)");
      return -1;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      *error = cat("read: ", base::errno_text(errno));
      return -1;
    }
    got += static_cast<std::size_t>(n);
  }
  return 1;
}

bool write_exact(int fd, const char* buf, std::size_t count) {
  std::size_t sent = 0;
  while (sent < count) {
    // MSG_NOSIGNAL: a peer that died mid-exchange (SIGKILLed primary,
    // crashed client) must surface as EPIPE here, never as a
    // process-killing SIGPIPE -- the frame layer cannot assume every
    // embedder installed a handler.
    const ssize_t n = ::send(fd, buf + sent, count - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

bool read_frame(int fd, std::string* payload, std::string* error) {
  error->clear();
  char prefix[4];
  const int got = read_exact(fd, prefix, sizeof prefix, error);
  if (got <= 0) return false;  // clean EOF leaves *error empty
  std::uint32_t len = 0;
  std::memcpy(&len, prefix, sizeof len);  // LE hosts only, like persist::
  if (len > kMaxFrameBytes) {
    *error = cat("frame of ", len, " bytes exceeds the ", kMaxFrameBytes,
                 "-byte cap");
    return false;
  }
  payload->resize(len);
  if (len != 0 && read_exact(fd, payload->data(), len, error) <= 0) {
    if (error->empty()) *error = "connection closed before frame payload";
    return false;
  }
  return true;
}

bool write_frame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) return false;
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  char prefix[4];
  std::memcpy(prefix, &len, sizeof len);
  if (!write_exact(fd, prefix, sizeof prefix)) return false;
  return payload.empty() || write_exact(fd, payload.data(), payload.size());
}

}  // namespace relsched::serve
