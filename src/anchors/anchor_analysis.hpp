// Anchor analysis (paper §III-A, §III-D, §IV-A, §IV-D).
//
// Anchors (Definition 2) are the source vertex plus every unbounded-delay
// vertex. For each vertex v we compute:
//
//   A(v)  - the anchor set (Definition 4): anchors a with a path in Gf
//           from a to v containing an unbounded-weight edge delta(a).
//   R(v)  - the relevant anchor set (Definitions 8-9): anchors with a
//           *defining path* to v (a path in the full graph G whose only
//           unbounded edge is the first, weight delta(a)).
//   IR(v) - the irredundant anchor set (Definition 11): relevant anchors
//           not dominated through another anchor by longest-path lengths.
//
// Theorem 6: IR(v) is the minimum set of anchors needed to compute the
// start time T(v) under well-posed constraints and minimum offsets.
//
// Storage is word-parallel: the three per-vertex anchor sets live in
// base::BitMatrix slabs (vertices as rows, anchors as columns over a
// shared AnchorDomain). Set union / subset / equality are a few word
// operations per vertex, and there is no per-vertex heap node.
// AnchorSetView is the non-owning read handle; it iterates members in
// ascending VertexId order.
//
// The path values are stored only where they can be finite. By
// Theorem 3, length(a, v) = sigma_a^min(v) is finite exactly inside
// a's cone ({a} union {v : a in A(v)}), and |rho*(a, v)| exactly where
// a in R(v) (Definition 9). Each value kind is one vertex-major CSR
// array aligned with a bit matrix: vertex v's length cells are one per
// anchor of A(v), in the row's bit order (length(a, a) = 0 is a
// constant and has no cell); its defining cells are one per anchor of
// R(v). Consumers walk a set and its cells in step (AnchorCells), so no
// rank is computed per cell. The designs this repo generates hold
// 1.0-1.25 anchors per vertex, so the cells are a few percent of the
// |A| x |V| dense rows they replace. By Theorem 3 the length cells are
// also the full-mode minimum schedule, so they live in the CellTable
// layout sched::RelativeSchedule reads: a session's schedule views them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "base/bitset.hpp"
#include "base/cow.hpp"
#include "base/ids.hpp"
#include "base/vertex_mask.hpp"
#include "base/watchdog.hpp"
#include "cg/constraint_graph.hpp"
#include "graph/algorithms.hpp"

namespace relsched::persist {
struct AnchorAnalysisAccess;  // checkpoint serialization (persist layer)
}  // namespace relsched::persist

namespace relsched::base {
class WorkStealingPool;  // base/thread_pool.hpp
}  // namespace relsched::base

namespace relsched::anchors {

/// Which anchor sets to use when computing offsets / start times.
enum class AnchorMode { kFull, kRelevant, kIrredundant };

/// The anchor population: column c of every anchor bit-row is
/// `anchors[c]`; `index[v]` maps a vertex to its column (or -1).
/// Anchors are listed in ascending VertexId order, so ascending-column
/// iteration yields ascending ids.
struct AnchorDomain {
  std::vector<VertexId> anchors;
  std::vector<int> index;  // vertex -> column, or -1

  [[nodiscard]] int count() const { return static_cast<int>(anchors.size()); }
  [[nodiscard]] std::size_t word_count() const {
    return (anchors.size() + base::kBitsPerWord - 1) / base::kBitsPerWord;
  }
};

/// Non-owning view of one anchor set bit-row. Valid while the owning
/// AnchorSets / AnchorAnalysis is alive and un-mutated.
class AnchorSetView {
 public:
  AnchorSetView(const std::uint64_t* words, const AnchorDomain* domain)
      : words_(words), domain_(domain) {}

  [[nodiscard]] bool contains(VertexId a) const {
    const int c = domain_->index[a.index()];
    return c >= 0 &&
           ((words_[static_cast<std::size_t>(c) / base::kBitsPerWord] >>
             (static_cast<unsigned>(c) % base::kBitsPerWord)) &
            1u) != 0;
  }
  [[nodiscard]] int size() const {
    return base::words_popcount(words_, domain_->word_count());
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  [[nodiscard]] bool is_subset_of(const AnchorSetView& other) const {
    return base::words_subset(words_, other.words_, domain_->word_count());
  }
  /// First member (ascending id) not contained in `other`;
  /// VertexId::invalid() when *this is a subset of `other`.
  [[nodiscard]] VertexId first_missing_in(const AnchorSetView& other) const {
    const int c =
        base::words_first_missing(words_, other.words_, domain_->word_count());
    return c < 0 ? VertexId::invalid() : domain_->anchors[c];
  }

  /// Iterates members in ascending VertexId order. Iterators point at
  /// the bit row itself, so they outlive the view they came from.
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = VertexId;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    iterator(const std::uint64_t* words, const AnchorDomain* domain,
             std::size_t word)
        : words_(words), domain_(domain), word_(word) {
      if (words_ != nullptr && word_ < domain_->word_count()) {
        bits_ = words_[word_];
        skip_zero_words();
      }
    }
    VertexId operator*() const {
      return domain_->anchors[word_ * base::kBitsPerWord +
                              static_cast<std::size_t>(
                                  std::countr_zero(bits_))];
    }
    iterator& operator++() {
      bits_ &= bits_ - 1;
      skip_zero_words();
      return *this;
    }
    iterator operator++(int) {
      iterator t = *this;
      ++*this;
      return t;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.word_ == b.word_ && a.bits_ == b.bits_;
    }
    friend bool operator!=(const iterator& a, const iterator& b) {
      return !(a == b);
    }

   private:
    void skip_zero_words() {
      const std::size_t words = domain_->word_count();
      while (bits_ == 0 && ++word_ < words) bits_ = words_[word_];
      if (bits_ == 0) word_ = words;
    }
    const std::uint64_t* words_ = nullptr;
    const AnchorDomain* domain_ = nullptr;
    std::size_t word_ = 0;
    std::uint64_t bits_ = 0;
  };
  [[nodiscard]] iterator begin() const {
    return iterator(words_, domain_, 0);
  }
  [[nodiscard]] iterator end() const {
    return iterator(nullptr, domain_, domain_->word_count());
  }

  [[nodiscard]] const std::uint64_t* words() const { return words_; }
  [[nodiscard]] const AnchorDomain& domain() const { return *domain_; }

  friend bool operator==(const AnchorSetView& a, const AnchorSetView& b) {
    return base::words_equal(a.words_, b.words_, a.domain_->word_count());
  }

 private:
  const std::uint64_t* words_;
  const AnchorDomain* domain_;
};

std::ostream& operator<<(std::ostream& os, const AnchorSetView& view);

/// One stored value of a vertex: the anchor it belongs to and the
/// value (length(anchor, v) or |rho*(anchor, v)|).
struct AnchorCell {
  VertexId anchor;
  graph::Weight value;
};

/// A vertex's anchor set zipped with its stored values, in the set's
/// ascending-anchor order: `for (const auto [a, len] : cells)`.
class AnchorCells {
 public:
  AnchorCells(AnchorSetView set, const graph::Weight* values)
      : set_(set), values_(values) {}

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = AnchorCell;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    iterator(AnchorSetView::iterator anchor, const graph::Weight* value)
        : anchor_(anchor), value_(value) {}
    AnchorCell operator*() const { return {*anchor_, *value_}; }
    iterator& operator++() {
      ++anchor_;
      ++value_;
      return *this;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.anchor_ == b.anchor_;
    }
    friend bool operator!=(const iterator& a, const iterator& b) {
      return !(a == b);
    }

   private:
    AnchorSetView::iterator anchor_;
    const graph::Weight* value_ = nullptr;
  };
  [[nodiscard]] iterator begin() const {
    return iterator(set_.begin(), values_);
  }
  [[nodiscard]] iterator end() const { return iterator(set_.end(), nullptr); }
  [[nodiscard]] const AnchorSetView& set() const { return set_; }

 private:
  AnchorSetView set_;
  const graph::Weight* values_;
};

/// Forward-only lookup into one vertex's cells. value(a) returns a's
/// value, or graph::kNegInf when a is not in the set. Successive calls
/// must ask for ascending anchors, as any AnchorSetView walk does, so
/// reading a second vertex's cells alongside a walk costs one pass and
/// no per-cell rank.
class AnchorCellCursor {
 public:
  explicit AnchorCellCursor(const AnchorCells& cells)
      : it_(cells.begin()), end_(cells.end()) {}

  [[nodiscard]] graph::Weight value(VertexId anchor) {
    while (it_ != end_ && (*it_).anchor < anchor) ++it_;
    return it_ != end_ && (*it_).anchor == anchor ? (*it_).value
                                                  : graph::kNegInf;
  }

 private:
  AnchorCells::iterator it_;
  AnchorCells::iterator end_;
};

/// All anchor sets of one kind, indexed by vertex: a bit matrix plus
/// the column domain it is defined over.
struct AnchorSets {
  AnchorDomain domain;
  base::BitMatrix matrix;

  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(matrix.rows());
  }
  [[nodiscard]] AnchorSetView view(VertexId v) const {
    return AnchorSetView(matrix.row(v.index()), &domain);
  }
  [[nodiscard]] AnchorSetView operator[](std::size_t v) const {
    return AnchorSetView(matrix.row(static_cast<int>(v)), &domain);
  }
};

/// Cells in one vertex-major CSR layout: vertex v's cells are
/// [start[v], start[v + 1]) of `anchor` and `value`, anchors ascending.
/// Both the analysis's length cells and a RelativeSchedule use it.
struct CellTable {
  std::vector<std::uint32_t> start;  // |V| + 1 entries, or none
  std::vector<VertexId> anchor;
  std::vector<graph::Weight> value;

  /// Heap bytes held by the three arrays.
  [[nodiscard]] std::size_t heap_bytes() const {
    return start.capacity() * sizeof(std::uint32_t) +
           anchor.capacity() * sizeof(VertexId) +
           value.capacity() * sizeof(graph::Weight);
  }
};

/// findAnchorSet (paper §IV-A): anchor sets A(v) over the forward
/// constraint graph. Worst case O(|Ef| * |A| / 64) words merged.
/// Precondition: Gf acyclic.
AnchorSets find_anchor_sets(const cg::ConstraintGraph& g);

/// The same, over `topo`, a topological order of Gf the caller already
/// holds.
AnchorSets find_anchor_sets(const cg::ConstraintGraph& g,
                            std::span<const int> topo);

/// Dense working rows for the per-anchor sweeps of compute() and
/// update(). A sweep relaxes one anchor's paths by vertex index, so it
/// borrows these two vertex-indexed rows and scatters its result into
/// the analysis's cells. A sweep writes every entry before it reads it,
/// so the rows may hold anything between sweeps. The worklist arrays
/// are scrubbed by their own queue, so a sweep touches only the
/// entries of vertices it enqueued. Callers that update repeatedly keep
/// one (the engine pools it with its other warm-path scratch), so a
/// warm patch allocates nothing proportional to |V|.
struct SweepWorkspace {
  std::vector<graph::Weight> defining;
  std::vector<graph::Weight> length;
  base::VertexMask region;
  std::vector<VertexId> order;
  std::vector<VertexId> heads;
  /// Rise worklist of one patch: FIFO queue, per-vertex enqueue counts
  /// and in-queue flags.
  std::vector<VertexId> queue;
  std::vector<int> enqueued;
  std::vector<std::uint8_t> in_queue;
  /// update(): the edges into the dirty cone from outside it.
  std::vector<EdgeId> entering;
};

/// Dirty-region description for AnchorAnalysis::update(). Produced by
/// the engine layer from the constraint graph's edit journal.
struct UpdatePlan {
  /// Membership test: vertex -> reachable (in the full graph) from an
  /// edit's seed vertices; only these vertices' products may have
  /// changed. The set is closed under out-edges.
  const base::VertexMask* affected = nullptr;
  /// The same affected vertices as an explicit list, sorted in forward
  /// topological order of the edited graph. update() walks this list
  /// instead of scanning all of V.
  std::span<const VertexId> affected_topo;
  /// The edits' seed vertices (a subset of the affected set).
  std::span<const VertexId> seeds;
  /// The edge set of Gf changed (min-constraint insertion/removal):
  /// anchor sets A(v) must be re-derived over the affected cone.
  bool forward_changed = false;
  /// Scratch for the per-anchor sweeps, pooled by the caller.
  SweepWorkspace* workspace = nullptr;
  /// Charged per vertex the sweeps relax (nullptr: no limit). When it
  /// trips, update() stops early and leaves the analysis unusable; the
  /// caller must discard it.
  base::Watchdog* watchdog = nullptr;
};

class AnchorAnalysis {
 public:
  /// Runs the full pipeline: A(v), R(v), IR(v) and anchor-to-vertex
  /// longest paths (unbounded weights 0). Preconditions: Gf acyclic and
  /// the graph feasible (no positive cycles) -- callers check first.
  ///
  /// Each anchor's sweep runs in one dense scratch pair (one pair per
  /// worker with a pool) and gathers its cells in lists of its own; a
  /// sequential tail places them. Every cell and every bit is written
  /// as a pure function of the immutable inputs,
  /// so the result is bit-identical to the sequential path at any
  /// thread count. The pool parameter stays only because the frozen
  /// benchmark (perfbench/) times this call as anchors.compute_pool_us;
  /// the engine always passes nullptr.
  static AnchorAnalysis compute(const cg::ConstraintGraph& g,
                                base::WorkStealingPool* pool = nullptr);

  /// The same, sequentially, over `topo`, a topological order of Gf
  /// the caller already holds (the engine's cold resolve passes the
  /// order it maintains instead of sorting Gf again). A non-null
  /// `watchdog` is charged per vertex the sweeps relax; when it trips
  /// the result is incomplete and the caller must discard it.
  ///
  /// A non-empty `source_lengths` holds G0's longest paths from the
  /// source, as wellposed::is_feasible leaves them. The source's cone is
  /// all of V on a valid graph (checked), so they are its length cells
  /// and its cone sweep is skipped.
  static AnchorAnalysis compute(
      const cg::ConstraintGraph& g, std::span<const int> topo,
      base::Watchdog* watchdog = nullptr,
      std::span<const graph::Weight> source_lengths = {});

  /// Anchor sets A(v) only (cheaper; enough for well-posedness checks).
  /// R(v) and IR(v) are empty and every length is graph::kNegInf.
  static AnchorAnalysis compute_anchor_sets_only(const cg::ConstraintGraph& g);

  /// Incremental recompute after a non-structural edit, in place: only
  /// the cone of vertices in `plan.affected` is re-derived, and the
  /// per-anchor path values are recomputed only for anchors whose
  /// defining region or cone touches an edit; every other cell is kept
  /// and patched values are written in place. When the edit changes
  /// an A(v) or R(v) bit, that cell layout is rebuilt in one
  /// O(|V| + cells) pass before the values are written. Preconditions: *this was computed by
  /// compute() for the pre-edit graph, and `g` has the same vertices
  /// and anchors, is feasible, with Gf acyclic. The result is
  /// equivalent to compute(g) -- property-tested bit-for-bit.
  void update(const cg::ConstraintGraph& g, const UpdatePlan& plan);

  /// Number of anchors whose path values the last update() recomputed
  /// (the dominant cost; compute() recomputes all of them). For engine
  /// statistics.
  [[nodiscard]] int rows_recomputed() const { return rows_recomputed_; }

  /// Value arrays (length cells, defining cells: at most 2) still
  /// shared with another analysis, i.e. with a fork relative. Copies of
  /// an AnchorAnalysis share them copy-on-write; update() clones an
  /// array only when it patches it. `views` is the number of schedule
  /// views of this analysis the caller holds itself (they share the
  /// length table too, but are no fork relative). For engine
  /// statistics.
  [[nodiscard]] int cell_arrays_shared(int views = 0) const;

  [[nodiscard]] const std::vector<VertexId>& anchors() const {
    return sets_.domain.anchors;
  }
  [[nodiscard]] bool is_anchor(VertexId v) const {
    return sets_.domain.index[v.index()] >= 0;
  }

  [[nodiscard]] AnchorSetView anchor_set(VertexId v) const {
    return sets_.view(v);
  }
  /// All A(v) indexed by vertex (reused by wellposed::check).
  [[nodiscard]] const AnchorSets& anchor_sets() const { return sets_; }
  [[nodiscard]] AnchorSetView relevant_set(VertexId v) const {
    return AnchorSetView(relevant_.row(v.index()), &sets_.domain);
  }
  [[nodiscard]] AnchorSetView irredundant_set(VertexId v) const {
    return AnchorSetView(irredundant_.row(v.index()), &sets_.domain);
  }
  [[nodiscard]] AnchorSetView set(VertexId v, AnchorMode mode) const;

  /// length(a, v): longest weighted path from anchor `a` to `v` within
  /// the anchor's cone -- the subgraph induced by {a} union
  /// {w : a in A(w)} -- with unbounded weights 0; graph::kNegInf when v
  /// is outside the cone. By Theorem 3 this equals the minimum offset
  /// sigma_a^min(v). (The cone restriction is deliberate: a backward
  /// edge escaping the cone can make the raw full-graph longest path
  /// exceed the realizable offset.)
  [[nodiscard]] graph::Weight length(VertexId anchor, VertexId v) const;

  /// (a, length(a, v)) for every a in A(v), in ascending anchor order.
  /// Sweeps over A(v) read these instead of calling length() per cell.
  /// length(v, v) of an anchor v is not among them.
  [[nodiscard]] AnchorCells lengths_at(VertexId v) const {
    const CellTable& t = lengths_.read();
    return AnchorCells(anchor_set(v), t.value.data() + t.start[v.index()]);
  }

  /// Every length cell, shared copy-on-write: the table a full-mode
  /// sched::RelativeSchedule views (RelativeSchedule::from_lengths).
  [[nodiscard]] const base::Cow<CellTable>& length_table() const {
    return lengths_;
  }

  /// length(anchor, v) for every vertex v, into `out` (resized to |V|):
  /// the source's column is the zero-profile start times.
  void length_column(VertexId anchor, std::vector<graph::Weight>& out) const;

  /// |rho*(a, v)|: the length of the *maximal defining path* from
  /// anchor `a` to `v` (Definitions 8 and 10) -- the longest path whose
  /// only unbounded edge is the first (weight delta(a), excluded from
  /// the length). Returns graph::kNegInf when no defining path exists;
  /// by Definition 9, a is relevant for v iff this is finite.
  [[nodiscard]] graph::Weight maximal_defining_path_length(VertexId anchor,
                                                           VertexId v) const;

  /// (a, |rho*(a, v)|) for every a in R(v), in ascending anchor order.
  [[nodiscard]] AnchorCells defining_at(VertexId v) const {
    return AnchorCells(relevant_set(v), defining_cells_.read().data() +
                                            defining_start_[v.index()]);
  }

  /// Sum / average helpers used by the Table III harness.
  [[nodiscard]] std::size_t total_anchor_set_size(AnchorMode mode) const;

  /// Fault-injection hook (engine::FaultInjector, tests only): truncates
  /// the length(anchor, .) values by overwriting every cone cell at
  /// vertices from `keep_prefix` on with kNegInf, simulating a
  /// partially written row. No-op when `anchor` is not an anchor. The
  /// certifier's Theorem 3 cross-check (certify::check_products) must
  /// catch this.
  void corrupt_length_row_for_testing(VertexId anchor, int keep_prefix);

  /// Fault-injection hook (engine::FaultInjector, tests only): toggles
  /// `anchor`'s bit in IR(v). certify::check_irredundant must catch
  /// every such flip.
  void flip_irredundant_bit_for_testing(VertexId v, VertexId anchor);

 private:
  /// Snapshot (de)serialization: the bit rows and cells have no
  /// mutating public API, and persist sits above this library in the
  /// build graph.
  friend struct relsched::persist::AnchorAnalysisAccess;

  /// A value array shared copy-on-write between copies of the analysis
  /// (session forks).
  using Cells = base::Cow<std::vector<graph::Weight>>;
  static constexpr std::size_t kNoCell = static_cast<std::size_t>(-1);

  static AnchorAnalysis compute_sharded(
      const cg::ConstraintGraph& g, std::span<const int> topo,
      base::WorkStealingPool* pool, base::Watchdog* watchdog,
      std::span<const graph::Weight> source_lengths);
  void compute_irredundant_at(VertexId v);
  /// Lays out both cell arrays from the bit rows (values kNegInf).
  void rebuild_layouts();
  /// Index of (anchor column `col`, v)'s cell, or kNoCell when v is
  /// outside the column's cone / relevant region.
  [[nodiscard]] std::size_t length_index(int col, VertexId v) const;
  [[nodiscard]] std::size_t defining_index(int col, VertexId v) const;

  int rows_recomputed_ = 0;
  /// A(v) plus the anchor domain shared by all three matrices.
  AnchorSets sets_;
  /// R(v) and IR(v), over sets_.domain's columns.
  base::BitMatrix relevant_;
  base::BitMatrix irredundant_;
  /// Vertex v's cells hold length(a, v) for a in A(v), in bit order.
  base::Cow<CellTable> lengths_;
  /// defining_cells_[defining_start_[v] .. defining_start_[v + 1])
  /// holds |rho*(a, v)| for a in R(v), in bit order. |V| + 1 starts.
  std::vector<std::uint32_t> defining_start_;
  Cells defining_cells_;
};

}  // namespace relsched::anchors
