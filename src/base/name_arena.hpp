// Interned-name storage for graph vertices.
//
// Names live in append-only chunks instead of one heap string per
// vertex: a 10^5-vertex design stores all names in a handful of 64 KiB
// blocks, and Vertex carries a 16-byte string_view instead of a 32-byte
// std::string. Chunk capacities double from 256 bytes up to 64 KiB, so
// a graph of a few dozen vertices -- one per loop body of an HDL design
// -- does not reserve 64 KiB it never touches. Chunks are
// shared_ptr-owned and immutable once shared:
//
//   - Copying an arena (graph copies, session forks) copies only the
//     chunk pointers; every existing string_view stays valid because
//     the copy co-owns the bytes it points into.
//   - intern() appends to the newest chunk only while this arena is its
//     sole owner and the reserved capacity suffices; otherwise it opens
//     a fresh chunk. A chunk's buffer therefore never reallocates or
//     mutates under a view.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace relsched::base {

class NameArena {
 public:
  /// Stores a copy of `s` and returns a view that stays valid for the
  /// lifetime of this arena and of every copy taken after the call.
  std::string_view intern(std::string_view s) {
    if (chunks_.empty() || chunks_.back().use_count() != 1 ||
        chunks_.back()->size() + s.size() > chunks_.back()->capacity()) {
      const std::size_t grown =
          chunks_.empty()
              ? kFirstChunkBytes
              : std::min(2 * chunks_.back()->capacity(), kChunkBytes);
      auto chunk = std::make_shared<std::string>();
      chunk->reserve(std::max(grown, s.size()));
      chunks_.push_back(std::move(chunk));
    }
    std::string& chunk = *chunks_.back();
    const std::size_t offset = chunk.size();
    chunk.append(s);
    return std::string_view(chunk.data() + offset, s.size());
  }

 private:
  static constexpr std::size_t kFirstChunkBytes = 256;
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 16;
  std::vector<std::shared_ptr<std::string>> chunks_;
};

}  // namespace relsched::base
