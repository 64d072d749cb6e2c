// Relative schedules (paper Definition 5) and their evaluation.
//
// A relative schedule Omega assigns each vertex v an offset sigma_a(v)
// for every anchor a in its (full / relevant / irredundant) anchor set.
// Given actual execution delays for the anchors (a DelayProfile), start
// times follow the recursion
//
//   T(v) = max over a in S(v) of { T(a) + delta(a) + sigma_a(v) },
//
// which the control unit realizes with counters or shift registers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "anchors/anchor_analysis.hpp"
#include "base/cow.hpp"
#include "base/ids.hpp"
#include "cg/constraint_graph.hpp"

namespace relsched::sched {

/// One vertex's offsets: (anchor, sigma_anchor(v)) pairs in ascending
/// anchor order. A read-only window into a RelativeSchedule's cells,
/// valid until the schedule is mutated or destroyed.
class OffsetView {
 public:
  using Entry = std::pair<VertexId, graph::Weight>;

  OffsetView(std::span<const VertexId> anchors,
             std::span<const graph::Weight> values)
      : anchors_(anchors), values_(values) {}

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Entry;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    iterator(const VertexId* anchor, const graph::Weight* value)
        : anchor_(anchor), value_(value) {}
    Entry operator*() const { return {*anchor_, *value_}; }
    iterator& operator++() {
      ++anchor_;
      ++value_;
      return *this;
    }
    iterator operator++(int) {
      iterator t = *this;
      ++*this;
      return t;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.anchor_ == b.anchor_;
    }
    friend bool operator!=(const iterator& a, const iterator& b) {
      return !(a == b);
    }

   private:
    const VertexId* anchor_ = nullptr;
    const graph::Weight* value_ = nullptr;
  };
  [[nodiscard]] iterator begin() const {
    return iterator(anchors_.data(), values_.data());
  }
  [[nodiscard]] iterator end() const {
    return iterator(anchors_.data() + anchors_.size(), nullptr);
  }
  /// The entries as a range: `for (const auto& [a, sigma] :
  /// view.entries())`.
  [[nodiscard]] OffsetView entries() const { return *this; }

  [[nodiscard]] std::span<const VertexId> anchors() const { return anchors_; }
  [[nodiscard]] std::span<const graph::Weight> values() const {
    return values_;
  }
  [[nodiscard]] std::size_t size() const { return anchors_.size(); }
  [[nodiscard]] bool empty() const { return anchors_.empty(); }

  /// sigma_anchor(v); nullopt when `anchor` is not tracked.
  [[nodiscard]] std::optional<graph::Weight> get(VertexId anchor) const {
    const auto it = std::lower_bound(anchors_.begin(), anchors_.end(), anchor);
    if (it == anchors_.end() || *it != anchor) return std::nullopt;
    return values_[static_cast<std::size_t>(it - anchors_.begin())];
  }

  friend bool operator==(const OffsetView& a, const OffsetView& b) {
    return std::equal(a.anchors_.begin(), a.anchors_.end(),
                      b.anchors_.begin(), b.anchors_.end()) &&
           std::equal(a.values_.begin(), a.values_.end(), b.values_.begin(),
                      b.values_.end());
  }

 private:
  std::span<const VertexId> anchors_;
  std::span<const graph::Weight> values_;
};

std::ostream& operator<<(std::ostream& os, const OffsetView& offsets);

/// Actual execution delays assumed for anchors when evaluating a
/// schedule. Anchors without an explicit entry take delay 0 (their
/// minimum). Bounded vertices always use their declared delay.
class DelayProfile {
 public:
  DelayProfile() = default;

  void set(VertexId anchor, int delay) { delays_[anchor] = delay; }

  [[nodiscard]] int delay_of(const cg::ConstraintGraph& g, VertexId v) const {
    if (g.vertex(v).delay.is_bounded() && v != g.source()) {
      return g.vertex(v).delay.cycles();
    }
    auto it = delays_.find(v);
    return it == delays_.end() ? 0 : it->second;
  }

 private:
  std::unordered_map<VertexId, int> delays_;
};

/// All offsets of a schedule in one anchors::CellTable, laid out once
/// when the schedule is built; the iteration then writes values in
/// place. The table is copy-on-write: copies share it, and so does a
/// from_lengths() view; a mutator clones a shared table first.
class RelativeSchedule {
 public:
  RelativeSchedule() = default;

  /// The minimum schedule over full anchor sets: by Theorem 3
  /// sigma_a^min(v) = length(a, v) for exactly a in A(v), so this shares
  /// `analysis`'s length table. Precondition: a well-posed graph.
  [[nodiscard]] static RelativeSchedule from_lengths(
      const anchors::AnchorAnalysis& analysis) {
    RelativeSchedule s;
    s.cells_ = analysis.length_table();
    return s;
  }

  /// True when this schedule reads `analysis`'s length table itself.
  [[nodiscard]] bool views(const anchors::AnchorAnalysis& analysis) const {
    return &cells_.read() == &analysis.length_table().read();
  }

  [[nodiscard]] int vertex_count() const {
    const std::vector<std::uint32_t>& start = cells_->start;
    return start.empty() ? 0 : static_cast<int>(start.size()) - 1;
  }
  [[nodiscard]] OffsetView offsets(VertexId v) const {
    const anchors::CellTable& t = cells_.read();
    const std::size_t b = t.start[v.index()];
    const std::size_t e = t.start[v.index() + 1];
    return OffsetView(
        std::span<const VertexId>(t.anchor).subspan(b, e - b),
        std::span<const graph::Weight>(t.value).subspan(b, e - b));
  }

  /// sigma_a(v); nullopt when `a` is not tracked for v.
  [[nodiscard]] std::optional<graph::Weight> offset(VertexId v,
                                                    VertexId a) const {
    return offsets(v).get(a);
  }

  // ---- Construction ------------------------------------------------------

  /// Reserves room for `vertices` vertices and `cells` cells in total.
  void reserve(int vertices, std::size_t cells);
  /// Appends vertex vertex_count(), tracking no anchor yet.
  void add_vertex();
  /// Appends a cell to the last vertex; anchors must ascend.
  void add_cell(VertexId anchor, graph::Weight value);
  /// Drops spare capacity (after a build of unknown size).
  void shrink_to_fit();

  /// Sets sigma_a(v), inserting the cell when v does not track `a` yet
  /// (which shifts every later cell: meant for tools and tests, not
  /// for the scheduler's loops).
  void set(VertexId v, VertexId a, graph::Weight value);

  /// Vertex v's values, writable in place (aligned with
  /// offsets(v).anchors()).
  [[nodiscard]] std::span<graph::Weight> values(VertexId v) {
    anchors::CellTable& t = cells_.write();
    const std::size_t b = t.start[v.index()];
    return std::span<graph::Weight>(t.value).subspan(
        b, t.start[v.index() + 1] - b);
  }

  /// Heap bytes held by the three arrays (shared ones included).
  [[nodiscard]] std::size_t heap_bytes() const {
    return cells_->heap_bytes();
  }

  /// Maximum offset w.r.t. `anchor` over all vertices (sigma_a^max, §VI);
  /// 0 when no vertex references the anchor.
  [[nodiscard]] graph::Weight max_offset(VertexId anchor) const;

  /// Start times T(v) under `profile`, evaluated in forward topological
  /// order. The source starts at profile time 0.
  [[nodiscard]] std::vector<graph::Weight> start_times(
      const cg::ConstraintGraph& g, const DelayProfile& profile) const;

  /// Equal vertex counts and equal offsets at every vertex.
  friend bool operator==(const RelativeSchedule& a, const RelativeSchedule& b) {
    const anchors::CellTable& x = a.cells_.read();
    const anchors::CellTable& y = b.cells_.read();
    return a.vertex_count() == b.vertex_count() && x.anchor == y.anchor &&
           x.value == y.value && (a.vertex_count() == 0 || x.start == y.start);
  }

 private:
  base::Cow<anchors::CellTable> cells_;
};

/// Verifies that the start times induced by `schedule` under `profile`
/// satisfy every constraint edge of `g` (with actual, not minimum,
/// unbounded delays). Returns the first violated edge, if any.
[[nodiscard]] std::optional<EdgeId> find_violation(
    const cg::ConstraintGraph& g, const RelativeSchedule& schedule,
    const DelayProfile& profile);

}  // namespace relsched::sched
