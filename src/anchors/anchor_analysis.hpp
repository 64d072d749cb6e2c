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
// operations per vertex, and there is no per-vertex heap node --
// essential at 10^5 vertices, where the former sorted-vector SmallSets
// dominated both warm-update time and memory traffic. AnchorSetView is
// the non-owning read handle; it iterates members in ascending VertexId
// order, exactly like the SmallSet representation it replaced.
#pragma once

#include <iosfwd>
#include <span>
#include <vector>

#include "base/bitset.hpp"
#include "base/cow.hpp"
#include "base/ids.hpp"
#include "base/small_set.hpp"
#include "base/vertex_mask.hpp"
#include "cg/constraint_graph.hpp"
#include "graph/algorithms.hpp"

namespace relsched::persist {
struct AnchorAnalysisAccess;  // checkpoint serialization (persist layer)
}  // namespace relsched::persist

namespace relsched::base {
class WorkStealingPool;  // base/thread_pool.hpp
}  // namespace relsched::base

namespace relsched::anchors {

/// Materialized anchor set (sorted vector). Still the construction /
/// expected-value type in tests and lint; the analysis itself stores
/// bit rows and hands out AnchorSetView.
using AnchorSet = SmallSet<VertexId>;

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

  /// Iterates members in ascending VertexId order.
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = VertexId;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    iterator(const AnchorSetView* view, std::size_t word)
        : view_(view), word_(word) {
      if (view_ != nullptr && word_ < view_->domain_->word_count()) {
        bits_ = view_->words_[word_];
        skip_zero_words();
      }
    }
    VertexId operator*() const {
      return view_->domain_->anchors[word_ * base::kBitsPerWord +
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
      const std::size_t words = view_->domain_->word_count();
      while (bits_ == 0 && ++word_ < words) bits_ = view_->words_[word_];
      if (bits_ == 0) word_ = words;
    }
    const AnchorSetView* view_ = nullptr;
    std::size_t word_ = 0;
    std::uint64_t bits_ = 0;
  };
  [[nodiscard]] iterator begin() const { return iterator(this, 0); }
  [[nodiscard]] iterator end() const {
    return iterator(nullptr, domain_->word_count());
  }

  [[nodiscard]] AnchorSet materialize() const {
    AnchorSet s;
    for (VertexId a : *this) s.insert(a);
    return s;
  }

  [[nodiscard]] const std::uint64_t* words() const { return words_; }
  [[nodiscard]] const AnchorDomain& domain() const { return *domain_; }

  friend bool operator==(const AnchorSetView& a, const AnchorSetView& b) {
    return base::words_equal(a.words_, b.words_, a.domain_->word_count());
  }
  friend bool operator==(const AnchorSetView& a, const AnchorSet& b) {
    if (a.size() != static_cast<int>(b.size())) return false;
    for (VertexId m : b) {
      if (!a.contains(m)) return false;
    }
    return true;
  }
  friend bool operator==(const AnchorSet& a, const AnchorSetView& b) {
    return b == a;
  }

 private:
  const std::uint64_t* words_;
  const AnchorDomain* domain_;
};

std::ostream& operator<<(std::ostream& os, const AnchorSetView& view);

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

/// findAnchorSet (paper §IV-A): anchor sets A(v) over the forward
/// constraint graph. Worst case O(|Ef| * |A| / 64) words merged.
/// Precondition: Gf acyclic.
AnchorSets find_anchor_sets(const cg::ConstraintGraph& g);

/// The same, over `topo`, a topological order of Gf the caller already
/// holds.
AnchorSets find_anchor_sets(const cg::ConstraintGraph& g,
                            std::span<const int> topo);

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
};

class AnchorAnalysis {
 public:
  /// Runs the full pipeline: A(v), R(v), IR(v) and anchor-to-vertex
  /// longest paths (unbounded weights 0). Preconditions: Gf acyclic and
  /// the graph feasible (no positive cycles) -- callers check first.
  ///
  /// With a pool, the per-anchor path rows and the per-vertex R/IR bit
  /// rows are sharded across its workers. Every output slot (a row, a
  /// bit row) is written by exactly one task as a pure function of the
  /// immutable inputs, so the result is bit-identical to the
  /// sequential path at any thread count; a busy pool (this resolve is
  /// itself running on a worker) degrades to the sequential loop.
  static AnchorAnalysis compute(const cg::ConstraintGraph& g,
                                base::WorkStealingPool* pool = nullptr);

  /// The same, over `topo`, a topological order of Gf the caller
  /// already holds (the engine's cold resolve passes the order it
  /// maintains instead of projecting and sorting Gf again).
  static AnchorAnalysis compute(const cg::ConstraintGraph& g,
                                std::span<const int> topo,
                                base::WorkStealingPool* pool);

  /// Anchor sets A(v) only (cheaper; enough for well-posedness checks).
  static AnchorAnalysis compute_anchor_sets_only(const cg::ConstraintGraph& g);

  /// Incremental recompute after a non-structural edit, in place: only
  /// the cone of vertices in `plan.affected` is re-derived, and the
  /// per-anchor longest-path rows are recomputed only for anchors whose
  /// defining region or cone touches an edit (all other rows are kept
  /// verbatim -- mutating in place instead of rebuilding avoids copying
  /// the untouched majority). Preconditions: *this was computed by
  /// compute() for the pre-edit graph, and `g` has the same vertices
  /// and anchors, is feasible, with Gf acyclic. The result is
  /// equivalent to compute(g) -- property-tested bit-for-bit.
  ///
  /// With a pool, touched per-anchor rows are patched in parallel
  /// (deterministic per-anchor ownership, disjoint copy-on-write
  /// cells) and the affected IR rows recomputed in parallel;
  /// bit-identical to the sequential path at any thread count.
  void update(const cg::ConstraintGraph& g, const UpdatePlan& plan,
              base::WorkStealingPool* pool = nullptr);

  /// Number of per-anchor path rows the last update() recomputed (the
  /// dominant cost; compute() recomputes all of them). For engine
  /// statistics.
  [[nodiscard]] int rows_recomputed() const { return rows_recomputed_; }

  /// Per-anchor path rows still shared with another analysis (i.e. with
  /// the fork parent's copy). Copies of an AnchorAnalysis share rows
  /// copy-on-write; update() clones only the rows it patches, so a
  /// forked session's private footprint is proportional to its dirty
  /// cone, not the design. For engine statistics.
  [[nodiscard]] int rows_shared() const;

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

  /// Read-only view of the whole length(anchor, .) row, indexed by
  /// vertex. Bulk accessor for consumers that sweep every vertex (the
  /// certifier's length-row certificate); one bounds check instead of
  /// |V| per-entry lookups.
  [[nodiscard]] const std::vector<graph::Weight>& length_row(
      VertexId anchor) const;

  /// Sum / average helpers used by the Table III harness.
  [[nodiscard]] std::size_t total_anchor_set_size(AnchorMode mode) const;

  /// Fault-injection hook (engine::FaultInjector, tests only): truncates
  /// the length(anchor, .) row by overwriting every entry past
  /// `keep_prefix` vertices with kNegInf, simulating a partially written
  /// row. No-op when `anchor` is not an anchor. The certifier's
  /// Theorem 3 cross-check (certify::check_products) must catch this.
  void corrupt_length_row_for_testing(VertexId anchor, int keep_prefix);

  /// |rho*(a, v)|: the length of the *maximal defining path* from
  /// anchor `a` to `v` (Definitions 8 and 10) -- the longest path whose
  /// only unbounded edge is the first (weight delta(a), excluded from
  /// the length). Returns graph::kNegInf when no defining path exists;
  /// by Definition 9, a is relevant for v iff this is finite.
  [[nodiscard]] graph::Weight maximal_defining_path_length(VertexId anchor,
                                                           VertexId v) const;

 private:
  /// Snapshot (de)serialization: the bit rows and path rows have no
  /// mutating public API, and persist sits above this library in the
  /// build graph.
  friend struct relsched::persist::AnchorAnalysisAccess;

  void compute_irredundant_at(VertexId v);

  int rows_recomputed_ = 0;
  /// A(v) plus the anchor domain shared by all three matrices.
  AnchorSets sets_;
  /// R(v) and IR(v), over sets_.domain's columns.
  base::BitMatrix relevant_;
  base::BitMatrix irredundant_;
  /// One length row per anchor, copy-on-write so copies of the analysis
  /// (session forks) share unpatched rows with their parent.
  using Row = base::Cow<std::vector<graph::Weight>>;
  /// length_from_[i][v] = longest path from anchors_[i] to vertex v.
  std::vector<Row> length_from_;
  /// defining_from_[i][v] = |rho*(anchors_[i], v)|.
  std::vector<Row> defining_from_;
};

}  // namespace relsched::anchors
