// ConstraintGraph: the paper's polar weighted directed constraint graph
// G(V, E) (§III, Table I).
//
// Vertices are operations carrying an execution delay; edges are:
//   - Sequencing edges (v_i, v_j): forward, weight delta(v_i). When v_i is
//     an anchor the weight is the *unbounded* symbol delta(v_i), which all
//     path computations treat as 0.
//   - Minimum timing constraints l_ij >= 0: forward edge (v_i, v_j) with
//     fixed weight l_ij.
//   - Maximum timing constraints u_ij >= 0 (sigma(v_j) <= sigma(v_i)+u_ij):
//     backward edge (v_j, v_i) with fixed weight -u_ij.
//
// Every edge (t -> h, w) uniformly encodes sigma(h) >= sigma(t) + w.
//
// Convention: the first vertex added is the source v0. The source is
// always an anchor (its activation time is not known statically), so its
// outgoing sequencing edges carry unbounded weight delta(v0) regardless of
// the delay it was declared with.
//
// Storage is data-oriented for 10^4-10^6 vertex designs:
//   - Edges live in one id-stable slab (std::vector<Edge>); removal
//     swap-pops, so ids stay dense.
//   - Adjacency is intrusive: per-edge next/prev links threaded through
//     flat arrays, per-vertex head/tail cursors. Insertion-order
//     traversal is preserved exactly (bit-identical products with the
//     former vector-of-vectors layout) with O(1) append/unlink and zero
//     per-vertex heap blocks.
//   - Vertex names are interned in a shared append-only arena
//     (base::NameArena); Vertex carries a string_view.
//   - Derived hot-path state -- resolved delay codes, forward-degree
//     counters, the sorted backward-edge index -- is maintained
//     incrementally per edit, never rebuilt per query.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/error.hpp"
#include "base/ids.hpp"
#include "base/name_arena.hpp"
#include "cg/delay.hpp"
#include "graph/algorithms.hpp"
#include "graph/digraph.hpp"

namespace relsched::cg {

enum class EdgeKind {
  kSequencing,     // forward; weight delta(tail)
  kMinConstraint,  // forward; fixed weight l >= 0
  kMaxConstraint,  // backward; fixed weight -u <= 0
};

[[nodiscard]] constexpr bool is_forward(EdgeKind kind) {
  return kind != EdgeKind::kMaxConstraint;
}

struct Vertex {
  VertexId id;
  /// Interned in the graph's name arena; valid for the lifetime of the
  /// graph and of every copy of it.
  std::string_view name;
  Delay delay;
};

struct Edge {
  EdgeId id;
  VertexId from;
  VertexId to;
  EdgeKind kind = EdgeKind::kSequencing;
  /// Fixed weight for constraint edges; ignored for sequencing edges
  /// (their weight is the tail's execution delay, queried dynamically so
  /// that set_delay() cannot leave stale weights behind).
  int fixed_weight = 0;
};

/// A resolved edge weight: the numeric value used in path computations
/// (unbounded weights contribute 0) plus the unboundedness flag.
struct EdgeWeight {
  graph::Weight value = 0;
  bool unbounded = false;
};

/// One recorded mutation. Every mutating ConstraintGraph method appends
/// an Edit to the journal and bumps the revision; the engine layer
/// (engine::SynthesisSession) consumes the journal to derive dirty
/// regions for incremental recomputation.
struct Edit {
  enum class Kind {
    kAddVertex,
    kAddSequencingEdge,
    kAddMinConstraint,
    kAddMaxConstraint,
    kRemoveConstraint,
    kSetConstraintBound,
    kSetDelay,
  };
  Kind kind;
  /// Structural edits (new vertices, sequencing edges, anchor-status
  /// flips) invalidate incremental state wholesale; consumers fall back
  /// to a cold rebuild.
  bool structural = false;
  /// True when the edit changes which edges exist in the forward graph
  /// Gf (min-constraint insertion/removal): topological orders and
  /// anchor sets may shift.
  bool forward = false;
  /// Endpoints in graph orientation (tail, head); the touched vertex
  /// (as both) for kAddVertex and kSetDelay. Note: edge ids recorded
  /// before a later kRemoveConstraint may be stale (removal swap-pops
  /// the edge list), so consumers key off vertices, never off journaled
  /// edge ids.
  VertexId from = VertexId::invalid();
  VertexId to = VertexId::invalid();

  /// Up to two vertices, iterable in order.
  struct Seeds {
    std::array<VertexId, 2> vertices;
    std::size_t count = 0;

    [[nodiscard]] const VertexId* begin() const { return vertices.data(); }
    [[nodiscard]] const VertexId* end() const { return begin() + count; }
  };

  /// Dirty seed vertices: any value derived from a path through one of
  /// these may have changed. Always the edit's endpoint vertices -- for
  /// removals too: any path that used the removed edge (t, h) passes
  /// through h, and the suffix of such a path after the *last* edge the
  /// journal suffix removes survives into the current graph, so flooding
  /// from the heads of every unconsumed removal covers all shrunk paths
  /// (the engine consumes the journal suffix atomically and floods from
  /// the union of its seeds). The tail is seeded too, so anchor-row
  /// reuse checks see edits incident to an anchor's cone boundary.
  /// Order: {from, to}; {to, from} for removals (head first); {v} for
  /// single-vertex edits. The dirty-cone flood visits in this order.
  [[nodiscard]] Seeds seeds() const {
    switch (kind) {
      case Kind::kAddVertex:
      case Kind::kSetDelay:
        return Seeds{{from, from}, 1};
      case Kind::kRemoveConstraint:
        return Seeds{{to, from}, 2};
      default:
        return Seeds{{from, to}, 2};
    }
  }
};

/// Outcome of structural validation.
struct ValidationIssue {
  enum class Kind {
    kForwardCycle,        // Gf = (V, Ef) must be acyclic (paper assumption)
    kNotReachableFromSource,
    kDoesNotReachSink,
    kMultipleSinks,
    kNoVertices,
  };
  Kind kind;
  VertexId vertex;  // offending vertex where applicable
  std::string message;
};

class ConstraintGraph {
 public:
  explicit ConstraintGraph(std::string name = "g") : name_(std::move(name)) {}

  // ---- Construction -----------------------------------------------------

  /// Adds an operation vertex. The first vertex added is the source v0.
  VertexId add_vertex(std::string_view name, Delay delay);

  /// Sequencing dependency from `from` to `to`; weight is delta(from).
  EdgeId add_sequencing_edge(VertexId from, VertexId to);

  /// Minimum timing constraint l_ij >= 0 between start times of `from`
  /// and `to`: sigma(to) >= sigma(from) + min_cycles.
  EdgeId add_min_constraint(VertexId from, VertexId to, int min_cycles);

  /// Maximum timing constraint u_ij >= 0: sigma(to) <= sigma(from) +
  /// max_cycles. Adds the backward edge (to, from) with weight -u.
  EdgeId add_max_constraint(VertexId from, VertexId to, int max_cycles);

  /// Replaces the execution delay of `v` (used by hierarchical
  /// scheduling when a child graph's latency becomes known).
  void set_delay(VertexId v, Delay delay);

  // ---- Edit API (incremental synthesis) -----------------------------------
  //
  // Constraint edges can be removed and re-weighted after construction.
  // Together with add_min_constraint / add_max_constraint / set_delay
  // these form the edit surface of the incremental engine: each call
  // bumps revision() and journals its dirty region.

  /// Removes a min- or max-constraint edge (sequencing edges carry the
  /// structural dependences and cannot be removed). The last edge is
  /// swap-popped into the freed slot, so `e` and the previously-last
  /// EdgeId are invalidated; all other ids are stable. Removing a
  /// min-constraint that is some vertex's only forward in/out edge
  /// would break polarity and is rejected.
  void remove_constraint(EdgeId e);

  /// Rewrites the bound of a constraint edge: min_cycles l >= 0 for a
  /// min constraint, max_cycles u >= 0 for a max constraint (stored as
  /// -u). A pure weight change: edge existence, anchor sets, and
  /// well-posedness are untouched.
  void set_constraint_bound(EdgeId e, int cycles);

  /// Monotone counter bumped by every mutation (== total edits so far,
  /// including entries dropped by rebase_journal()).
  [[nodiscard]] std::uint64_t revision() const {
    return journal_base_ + edits_.size();
  }

  /// The retained journal suffix: entries with revisions
  /// [journal_base(), revision()). Consumers remember the revision they
  /// have already applied and replay `edits()[r - journal_base()]`
  /// onwards.
  [[nodiscard]] const std::vector<Edit>& edits() const { return edits_; }

  /// First revision still present in edits().
  [[nodiscard]] std::uint64_t journal_base() const { return journal_base_; }

  /// Branch point: forgets the retained journal (all entries are known
  /// to be consumed by every observer of this copy). revision() is
  /// unchanged -- it stays monotone across the rebase -- so caches keyed
  /// by revision remain valid. Used when forking a session: the fork's
  /// graph starts with an empty journal instead of dragging the parent's
  /// edit history along.
  void rebase_journal() {
    journal_base_ += edits_.size();
    edits_ = std::vector<Edit>();  // releases the capacity, unlike clear()
  }

  /// Checkpoint support: after rebuilding a graph from a snapshot, the
  /// construction journal describes edits the snapshot's products have
  /// by definition already consumed. Drops it and adopts the snapshot's
  /// revision counter, so consumers keyed by absolute revision (engine
  /// product caches, WAL records) line up with the original session.
  /// `revision` must not go backwards.
  void restore_revision(std::uint64_t revision) {
    RELSCHED_CHECK(revision >= this->revision(),
                   "restore_revision cannot rewind the revision counter");
    edits_.clear();
    journal_base_ = revision;
  }

  // ---- Accessors ----------------------------------------------------------

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int vertex_count() const {
    return static_cast<int>(vertices_.size());
  }
  [[nodiscard]] int edge_count() const { return static_cast<int>(edges_.size()); }
  [[nodiscard]] const Vertex& vertex(VertexId v) const {
    return vertices_[v.index()];
  }
  [[nodiscard]] const Edge& edge(EdgeId e) const { return edges_[e.index()]; }
  [[nodiscard]] const std::vector<Vertex>& vertices() const { return vertices_; }
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }

  /// Intrusive adjacency links of one edge (see EdgeChain).
  struct EdgeLinks {
    EdgeId next_out, prev_out, next_in, prev_in;
  };

  /// Iterable adjacency chain of one vertex, in edge insertion order
  /// (identical traversal order to the former per-vertex vectors).
  class EdgeChain {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = EdgeId;
      using difference_type = std::ptrdiff_t;

      iterator() = default;
      iterator(const std::vector<EdgeLinks>* links, EdgeId cur, bool out)
          : links_(links), cur_(cur), out_(out) {}
      EdgeId operator*() const { return cur_; }
      iterator& operator++() {
        const EdgeLinks& l = (*links_)[cur_.index()];
        cur_ = out_ ? l.next_out : l.next_in;
        return *this;
      }
      iterator operator++(int) {
        iterator t = *this;
        ++*this;
        return t;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.cur_ == b.cur_;
      }
      friend bool operator!=(const iterator& a, const iterator& b) {
        return !(a == b);
      }

     private:
      const std::vector<EdgeLinks>* links_ = nullptr;
      EdgeId cur_;
      bool out_ = false;
    };

    EdgeChain(const std::vector<EdgeLinks>* links, EdgeId head, bool out)
        : links_(links), head_(head), out_(out) {}
    [[nodiscard]] iterator begin() const {
      return iterator(links_, head_, out_);
    }
    [[nodiscard]] iterator end() const {
      return iterator(links_, EdgeId::invalid(), out_);
    }
    [[nodiscard]] bool empty() const { return !head_.is_valid(); }

   private:
    const std::vector<EdgeLinks>* links_;
    EdgeId head_;
    bool out_;
  };

  [[nodiscard]] EdgeChain out_edges(VertexId v) const {
    return EdgeChain(&links_, out_head_[v.index()], /*out=*/true);
  }
  [[nodiscard]] EdgeChain in_edges(VertexId v) const {
    return EdgeChain(&links_, in_head_[v.index()], /*out=*/false);
  }

  /// The source vertex v0 (first vertex added).
  [[nodiscard]] VertexId source() const { return VertexId(0); }

  /// The sink vertex: the unique vertex with no outgoing forward edges.
  /// Returns invalid() when the graph is not polar (validate() reports why).
  [[nodiscard]] VertexId sink() const;

  // ---- Semantic queries ---------------------------------------------------

  /// Anchors (Definition 2): the source plus all unbounded-delay vertices.
  [[nodiscard]] bool is_anchor(VertexId v) const {
    return v.value() == 0 || delay_code_[v.index()] < 0;
  }
  [[nodiscard]] std::vector<VertexId> anchors() const;

  /// Resolved weight of an edge. Sequencing edges out of anchors are
  /// unbounded (value 0); all other weights are fixed.
  [[nodiscard]] EdgeWeight weight(EdgeId e) const {
    const Edge& ed = edges_[e.index()];
    if (ed.kind == EdgeKind::kSequencing) {
      const int code = delay_code_[ed.from.index()];
      if (ed.from.value() == 0 || code < 0) return EdgeWeight{0, true};
      return EdgeWeight{code, false};
    }
    return EdgeWeight{ed.fixed_weight, false};
  }

  /// Number of backward (max-constraint) edges |Eb|.
  [[nodiscard]] int backward_edge_count() const {
    return static_cast<int>(backward_ids_.size());
  }

  /// Ids of all backward (max-constraint) edges, ascending -- the same
  /// visit order as filtering edges() by kind, without touching the
  /// forward majority. Maintained incrementally across edits.
  [[nodiscard]] std::span<const EdgeId> backward_edges() const {
    return backward_ids_;
  }

  // ---- Projections ---------------------------------------------------------

  /// Full graph with unbounded weights set to 0 (the paper's G0).
  [[nodiscard]] graph::Digraph project_full() const;

  /// Forward constraint graph Gf = (V, Ef), unbounded weights 0.
  [[nodiscard]] graph::Digraph project_forward() const;

  // ---- Forward adjacency (Gf) ----------------------------------------------
  // Read straight from the intrusive chains and the forward-degree
  // counters: the adjacency graph::DynamicTopoOrder walks.

  /// Number of forward edges into `v`.
  [[nodiscard]] int forward_in_degree(int v) const {
    return forward_in_count_[static_cast<std::size_t>(v)];
  }
  /// Calls f(head, edge id) for each forward edge out of `v`, in chain
  /// (insertion) order.
  template <typename F>
  void for_each_forward_out(int v, F&& f) const {
    for (EdgeId eid : out_edges(VertexId(v))) {
      const Edge& e = edges_[eid.index()];
      if (is_forward(e.kind)) f(e.to.value(), eid.value());
    }
  }
  /// Calls f(tail) for each forward edge into `v`, in chain order.
  template <typename F>
  void for_each_forward_in(int v, F&& f) const {
    for (EdgeId eid : in_edges(VertexId(v))) {
      const Edge& e = edges_[eid.index()];
      if (is_forward(e.kind)) f(e.from.value());
    }
  }

  /// Kahn's topological order of Gf, identical to
  /// graph::topological_order(project_forward()); std::nullopt when Gf
  /// has a cycle. For callers that hold no order of their own.
  [[nodiscard]] std::optional<std::vector<int>> forward_order() const;

  // ---- Validation / export --------------------------------------------------

  /// Checks the paper's structural assumptions: Gf acyclic and the graph
  /// polar (single source/sink, all vertices on a source-to-sink path in
  /// Gf), with the source an anchor of every other vertex (v0 in A(v):
  /// some Gf path from v0 to v starts with a sequencing edge, not a
  /// minimum timing constraint). Empty result means valid.
  [[nodiscard]] std::vector<ValidationIssue> validate() const;

  /// The same checks given `gf_order`, a topological order of Gf the
  /// caller already holds (std::nullopt: Gf is cyclic). Source and sink
  /// reachability are one forward and one reverse pass over the order.
  [[nodiscard]] std::vector<ValidationIssue> validate(
      std::optional<std::span<const int>> gf_order) const;

  /// Graphviz dot rendering (forward edges solid, backward dashed,
  /// anchors double-circled like the paper's figures).
  [[nodiscard]] std::string to_dot() const;

 private:
  EdgeId add_edge(VertexId from, VertexId to, EdgeKind kind, int fixed_weight);
  /// Detaches `e` from its tail's out-chain and head's in-chain.
  void unlink_edge(EdgeId e);
  /// Rewires the chains so the edge currently labelled `from_id` is
  /// addressed as `to_id` (swap-pop relabel).
  void relabel_edge(EdgeId from_id, EdgeId to_id);

  std::string name_;
  base::NameArena names_;
  std::vector<Vertex> vertices_;
  /// Resolved delay per vertex: -1 for unbounded, else the cycle count.
  /// Keeps weight()/is_anchor() off the wider Vertex records.
  std::vector<int> delay_code_;
  /// Forward in/out degree per vertex: O(1) polarity checks on removal,
  /// O(V) sink() without touching edges.
  std::vector<int> forward_out_count_;
  std::vector<int> forward_in_count_;
  /// Id-stable edge slab plus the intrusive adjacency chained through it.
  std::vector<Edge> edges_;
  std::vector<EdgeLinks> links_;
  std::vector<EdgeId> out_head_, out_tail_, in_head_, in_tail_;
  /// Backward (max-constraint) edge ids, ascending.
  std::vector<EdgeId> backward_ids_;
  std::vector<Edit> edits_;
  std::uint64_t journal_base_ = 0;
};

}  // namespace relsched::cg
