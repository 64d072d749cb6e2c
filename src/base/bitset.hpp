// Word-parallel dynamic bitsets.
//
// BitMatrix packs one fixed-width bit row per entity into a single flat
// uint64_t slab. The anchors layer stores A(v) / R(v) / IR(v) as such a
// matrix (vertices as rows, anchors as columns): set union, subset, and
// equality become a handful of word operations instead of merging
// sorted vectors, and a row's memory is one contiguous stripe of the
// slab -- no per-vertex allocations to chase at 10^5+ vertices.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "base/error.hpp"

namespace relsched::base {

inline constexpr int kBitsPerWord = 64;

/// A dense rows x cols bit matrix in one flat word array. Row r's words
/// occupy [r * words_per_row(), (r + 1) * words_per_row()); bits past
/// `cols` in the last word of a row are always zero (every mutator
/// preserves this, so whole-word comparisons are exact).
class BitMatrix {
 public:
  BitMatrix() = default;

  /// Resizes to rows x cols, all bits cleared.
  void reset(int rows, int cols) {
    RELSCHED_CHECK(rows >= 0 && cols >= 0, "BitMatrix dimensions out of range");
    rows_ = rows;
    cols_ = cols;
    words_per_row_ = static_cast<std::size_t>((cols + kBitsPerWord - 1) /
                                              kBitsPerWord);
    words_.assign(static_cast<std::size_t>(rows) * words_per_row_, 0);
  }

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] std::size_t words_per_row() const { return words_per_row_; }

  [[nodiscard]] const std::uint64_t* row(int r) const {
    return words_.data() + static_cast<std::size_t>(r) * words_per_row_;
  }
  [[nodiscard]] std::uint64_t* row(int r) {
    return words_.data() + static_cast<std::size_t>(r) * words_per_row_;
  }

  [[nodiscard]] bool test(int r, int c) const {
    return (row(r)[static_cast<std::size_t>(c) / kBitsPerWord] >>
            (static_cast<unsigned>(c) % kBitsPerWord)) &
           1u;
  }
  void set(int r, int c) {
    row(r)[static_cast<std::size_t>(c) / kBitsPerWord] |=
        std::uint64_t{1} << (static_cast<unsigned>(c) % kBitsPerWord);
  }
  void clear(int r, int c) {
    row(r)[static_cast<std::size_t>(c) / kBitsPerWord] &=
        ~(std::uint64_t{1} << (static_cast<unsigned>(c) % kBitsPerWord));
  }
  void clear_row(int r) {
    std::uint64_t* w = row(r);
    for (std::size_t i = 0; i < words_per_row_; ++i) w[i] = 0;
  }

  /// row(dst) |= row(src); returns true when dst gained at least one bit.
  bool merge_row(int dst, int src) {
    std::uint64_t* d = row(dst);
    const std::uint64_t* s = row(src);
    std::uint64_t grew = 0;
    for (std::size_t i = 0; i < words_per_row_; ++i) {
      grew |= s[i] & ~d[i];
      d[i] |= s[i];
    }
    return grew != 0;
  }

  [[nodiscard]] int row_popcount(int r) const {
    const std::uint64_t* w = row(r);
    int count = 0;
    for (std::size_t i = 0; i < words_per_row_; ++i) {
      count += std::popcount(w[i]);
    }
    return count;
  }

  friend bool operator==(const BitMatrix& a, const BitMatrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.words_ == b.words_;
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> words_;
};

/// a subset-of b over `words` words.
[[nodiscard]] inline bool words_subset(const std::uint64_t* a,
                                       const std::uint64_t* b,
                                       std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) {
    if ((a[i] & ~b[i]) != 0) return false;
  }
  return true;
}

[[nodiscard]] inline bool words_equal(const std::uint64_t* a,
                                      const std::uint64_t* b,
                                      std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

[[nodiscard]] inline int words_popcount(const std::uint64_t* a,
                                        std::size_t words) {
  int count = 0;
  for (std::size_t i = 0; i < words; ++i) count += std::popcount(a[i]);
  return count;
}

/// Number of bits set in a below bit `bit`: the position of that bit's
/// cell in a row that stores one cell per set bit, in bit order.
[[nodiscard]] inline int words_rank(const std::uint64_t* a, int bit) {
  const std::size_t word = static_cast<std::size_t>(bit) / kBitsPerWord;
  const unsigned offset = static_cast<unsigned>(bit) % kBitsPerWord;
  return words_popcount(a, word) +
         std::popcount(a[word] & ((std::uint64_t{1} << offset) - 1));
}

[[nodiscard]] inline bool words_test(const std::uint64_t* a, int bit) {
  return ((a[static_cast<std::size_t>(bit) / kBitsPerWord] >>
           (static_cast<unsigned>(bit) % kBitsPerWord)) &
          1u) != 0;
}

/// Index of the first bit set in a but clear in b, or -1 when a is a
/// subset of b (the containment-witness primitive of wellposed/lint).
[[nodiscard]] inline int words_first_missing(const std::uint64_t* a,
                                             const std::uint64_t* b,
                                             std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) {
    const std::uint64_t missing = a[i] & ~b[i];
    if (missing != 0) {
      return static_cast<int>(i) * kBitsPerWord + std::countr_zero(missing);
    }
  }
  return -1;
}

}  // namespace relsched::base
