// Small string helpers shared across libraries (libstdc++ 12 lacks
// <format>, so we provide the few pieces we need).
#pragma once

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace relsched {

/// Joins the elements of `items` with `sep`, streaming each through
/// operator<<.
template <typename Range>
std::string join(const Range& items, std::string_view sep) {
  std::ostringstream os;
  bool first = true;
  for (const auto& item : items) {
    if (!first) os << sep;
    first = false;
    os << item;
  }
  return os.str();
}

/// Streams all arguments into one string.
template <typename... Args>
std::string cat(const Args&... args) {
  std::ostringstream os;
  ((os << args), ...);
  return os.str();
}

[[nodiscard]] inline bool starts_with(std::string_view s, std::string_view p) {
  return s.substr(0, p.size()) == p;
}

/// Left-pads `s` with spaces to `width` characters.
[[nodiscard]] inline std::string pad_left(std::string s, std::size_t width) {
  if (s.size() < width) s.insert(0, width - s.size(), ' ');
  return s;
}

/// Right-pads `s` with spaces to `width` characters.
[[nodiscard]] inline std::string pad_right(std::string s, std::size_t width) {
  if (s.size() < width) s.append(width - s.size(), ' ');
  return s;
}

}  // namespace relsched
