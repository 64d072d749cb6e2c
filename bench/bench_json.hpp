// Minimal machine-readable output for bench binaries: a JSON value
// builder just rich enough for flat records ({"k": v} objects, arrays
// of them, numbers/strings/bools). CI jobs archive the emitted
// BENCH_*.json files so runs can be diffed across commits without
// scraping the human-readable tables.
#pragma once

#include <charconv>
#include <cstdio>
#include <fstream>
#include <string>

#include "base/json.hpp"

namespace relsched::benchio {

/// Streaming builder for one JSON value. Nested containers are built
/// separately and spliced in with `raw()`.
class Json {
 public:
  static Json object() { return Json('{', '}'); }
  static Json array() { return Json('[', ']'); }

  Json& field(const std::string& key, const std::string& value) {
    std::string quoted;
    base::append_json_string(quoted, value);
    return raw_field(key, quoted);
  }
  Json& field(const std::string& key, const char* value) {
    return field(key, std::string(value));
  }
  Json& field(const std::string& key, double value) {
    return raw_field(key, number(value));
  }
  Json& field(const std::string& key, long long value) {
    return raw_field(key, std::to_string(value));
  }
  Json& field(const std::string& key, int value) {
    return raw_field(key, std::to_string(value));
  }
  Json& field(const std::string& key, bool value) {
    return raw_field(key, value ? "true" : "false");
  }
  Json& field(const std::string& key, const Json& value) {
    return raw_field(key, value.str());
  }

  /// Array element (object fields use field()).
  Json& element(const Json& value) {
    separator();
    body_ += value.str();
    return *this;
  }
  Json& element(double value) {
    separator();
    body_ += number(value);
    return *this;
  }
  Json& element(int value) {
    separator();
    body_ += std::to_string(value);
    return *this;
  }
  Json& element(long long value) {
    separator();
    body_ += std::to_string(value);
    return *this;
  }
  Json& element(const std::string& value) {
    separator();
    base::append_json_string(body_, value);
    return *this;
  }

  [[nodiscard]] std::string str() const {
    return open_ + body_ + close_;
  }

  /// Crash-safe emit: the bytes land in `path + ".tmp"` and rename into
  /// place, so an interrupted bench leaves either the previous
  /// BENCH_*.json or the new one -- never a torn hybrid. Returns false
  /// when the file could not be written.
  bool write(const std::string& path) const {
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      out << str() << "\n";
      out.flush();
      if (!out) {
        std::remove(tmp.c_str());
        return false;
      }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::remove(tmp.c_str());
      return false;
    }
    return true;
  }

 private:
  Json(char open, char close) : open_(1, open), close_(1, close) {}

  /// Shortest text that parses back to exactly `v`.
  static std::string number(double v) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  }

  void separator() {
    if (!body_.empty()) body_ += ", ";
  }

  Json& raw_field(const std::string& key, const std::string& value) {
    separator();
    base::append_json_string(body_, key);
    body_ += ": ";
    body_ += value;
    return *this;
  }

  std::string open_, close_, body_;
};

}  // namespace relsched::benchio
