// Well-posedness analysis of timing constraints (paper §III-B, §IV-B/C, §V-A).
//
//   - The cold check (cold_check): the paper's questions asked once
//     each, in its order, over one topological order of Gf. Every
//     front door that decides a graph from scratch maps its verdict.
//   - Feasibility (Definition 6, Theorem 1): constraints satisfiable when
//     all unbounded delays are 0 <=> no positive cycle in G0.
//   - Well-posedness (Definition 7, Theorem 2): constraints satisfiable
//     for *all* unbounded delay values <=> A(v_i) subset-of A(v_j) for
//     every edge e_ij.
//   - makeWellposed (§IV-C, Theorem 7): serialize an ill-posed graph into
//     a minimally serialized well-posed serial-compatible graph, if one
//     exists (Lemma 3: iff no unbounded-length cycles).
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "anchors/anchor_analysis.hpp"
#include "base/watchdog.hpp"
#include "certify/certify.hpp"
#include "cg/constraint_graph.hpp"

namespace relsched::wellposed {

enum class Status {
  kWellPosed,
  kIllPosed,    // some constraint unsatisfiable for some delay profile
  kInfeasible,  // unsatisfiable even with all unbounded delays = 0
  kInvalid,     // the paper's structural assumptions fail (validate())
  kUndecided,   // a watchdog stopped the check before a verdict
};

[[nodiscard]] const char* to_string(Status status);

struct CheckResult {
  Status status = Status::kWellPosed;
  /// For kIllPosed: the edge whose anchor containment fails.
  EdgeId violating_edge = EdgeId::invalid();
  std::string message;
  /// Machine-checkable witness for failed statuses (code kNone when
  /// well-posed): the positive cycle (Theorem 1) or the containment
  /// counterexample a in A(tail) \ A(head) with its defining path
  /// (Theorem 2). Replayable via certify::verify_witness.
  certify::Diag diag;
};

/// Theorem 1: feasibility via positive-cycle detection on G0 (no
/// positive cycle reachable from the source). G0 is the DAG Gf plus
/// |Eb| backward edges, so one pass over `gf_order` (a topological
/// order of Gf) gives longest paths from the source over Gf, and the
/// FIFO label-correcting detector of is_feasible_incremental, seeded
/// with the backward edges' tails, settles the rest. With an empty
/// `gf_order` the detector starts from the source alone.
/// A non-null `watchdog` is charged per vertex of the pass and per
/// vertex the detector relaxes; when it trips the function returns
/// false with watchdog->stopped() set -- callers must treat that as
/// "undecided", not "infeasible". A non-null `dropped_max` (indexed by
/// edge id) leaves out the max constraints it flags, as if removed.
/// A non-null `potentials` receives, on a true verdict, the longest
/// paths from the source over G0 (graph::kNegInf where unreached): the
/// zero-profile start times, and the source's length cells in the
/// anchor analysis.
[[nodiscard]] bool is_feasible(
    const cg::ConstraintGraph& g, std::span<const int> gf_order,
    base::Watchdog* watchdog = nullptr,
    const std::vector<bool>* dropped_max = nullptr,
    std::vector<graph::Weight>* potentials = nullptr);

/// The same, sorting Gf first; from the source alone when Gf is cyclic.
[[nodiscard]] bool is_feasible(const cg::ConstraintGraph& g,
                               base::Watchdog* watchdog = nullptr);

/// Pooled scratch state for is_feasible_incremental. A warm resolve at
/// 10^5 vertices must not pay three O(V) allocations before relaxing a
/// handful of edges: the arrays are sized once and only the entries the
/// previous run actually touched (its queue contents) are scrubbed.
struct SpfaWorkspace {
  std::vector<int> enqueued;
  std::vector<std::uint8_t> in_queue;
  std::vector<VertexId> queue;
};

/// Incremental feasibility after an edit. `potentials` must satisfy
/// every G0 edge of the *pre-edit* graph (sigma(head) >= sigma(tail) +
/// w); the zero-profile start times of a valid schedule are such a
/// potential function. Only constraints out of `dirty` vertices can be
/// newly violated, so relaxation starts there and spreads by a
/// label-correcting worklist. Returns true and repairs `potentials` in
/// place when the edited graph is feasible; returns false (leaving
/// `potentials` unusable) when a positive cycle is detected -- callers
/// fall back to the cold path.
/// A non-null `watchdog` is charged per relaxed vertex; when it trips
/// the function returns false with watchdog->stopped() set (undecided,
/// `potentials` unusable) -- distinguish via the watchdog before
/// concluding a positive cycle.
[[nodiscard]] bool is_feasible_incremental(const cg::ConstraintGraph& g,
                                           std::vector<graph::Weight>& potentials,
                                           std::span<const VertexId> dirty,
                                           SpfaWorkspace& workspace,
                                           base::Watchdog* watchdog = nullptr);

/// Convenience overload with a throwaway workspace (cold callers,
/// tests). Hot paths keep a workspace alive across resolves.
[[nodiscard]] bool is_feasible_incremental(const cg::ConstraintGraph& g,
                                           std::vector<graph::Weight>& potentials,
                                           std::span<const VertexId> dirty,
                                           base::Watchdog* watchdog = nullptr);

/// The cold verdict of `g` and what deciding it produced (cold_check).
struct ColdCheck {
  /// The first question that fails decides: kInvalid (the first
  /// issue's message, no witness), kInfeasible (the positive cycle
  /// certify::find_positive_cycle finds), kIllPosed (the first violating
  /// backward edge with its containment counterexample); kWellPosed
  /// when none does, kUndecided when the watchdog tripped.
  CheckResult verdict;
  /// Every structural issue, in validate() order (kInvalid only).
  std::vector<cg::ValidationIssue> issues;
  /// The anchor analysis, when analysed() and the caller handed none in.
  anchors::AnchorAnalysis analysis;
  /// G0's longest paths from the source (is_feasible's potentials),
  /// once feasibility is established.
  std::vector<graph::Weight> potentials;

  /// The verdict got past feasibility: the anchor analysis exists.
  [[nodiscard]] bool analysed() const {
    return verdict.status == Status::kWellPosed ||
           verdict.status == Status::kIllPosed;
  }
};

/// The cold questions, each asked once, in the paper's order, over one
/// topological order of Gf -- `gf_order`, or (when empty) Gf sorted
/// here once:
///   1. the structural assumptions (cg::ConstraintGraph::validate);
///   2. feasibility (Theorem 1) by is_feasible, keeping its potentials;
///   3. findAnchorSet: the anchor analysis, with the source's length
///      cells taken from those potentials -- or the caller's non-null
///      `analysis`, reused as it is;
///   4. checkWellposed (Theorem 2): containment A(tail) subset-of
///      A(head) on every backward edge.
/// The engine's cold resolve, both sched::schedule entry points,
/// check(), lint and analyze decide a graph this way and only map the
/// verdict. A non-null `watchdog` is charged by steps 2 and 3; when it
/// trips the verdict is kUndecided.
[[nodiscard]] ColdCheck cold_check(const cg::ConstraintGraph& g,
                                   std::span<const int> gf_order = {},
                                   const anchors::AnchorAnalysis* analysis =
                                       nullptr,
                                   base::Watchdog* watchdog = nullptr);

/// checkWellposed (paper §IV-B): cold_check's verdict -- kInvalid on a
/// graph that fails validation.
[[nodiscard]] CheckResult check(const cg::ConstraintGraph& g);

/// The containment question of cold_check() alone, for callers that
/// already hold a valid, feasible graph's anchor sets: kWellPosed or
/// kIllPosed.
CheckResult check_containment(const cg::ConstraintGraph& g,
                              const anchors::AnchorSets& anchor_sets);

/// Containment re-check after an edit, assuming the pre-edit graph was
/// well-posed and feasibility has already been re-established. A
/// backward edge can only become violating if an endpoint's anchor set
/// changed, i.e. the endpoint is in `affected`; all other edges are
/// skipped -- the scan walks the graph's backward-edge index, never the
/// forward majority. Candidates are visited in edge-id order like
/// check(), so the reported edge and message are identical to a cold
/// check of the edited graph.
CheckResult recheck(const cg::ConstraintGraph& g,
                    const anchors::AnchorSets& anchor_sets,
                    const base::VertexMask& affected);

struct MakeWellposedResult {
  Status status = Status::kWellPosed;
  /// Serializing sequencing edges added: pairs (anchor, vertex).
  std::vector<std::pair<VertexId, VertexId>> added_edges;
  std::string message;
  /// Machine-checkable witness for failed statuses: the positive cycle
  /// (Theorem 1), the in-window anchor with its defining path
  /// (Fig 3(a)), or the unbounded-length cycle the repair would close
  /// (Lemma 3). The witness refers to the restored (pre-call) graph
  /// with `added_edges` re-applied: sequencing edges append
  /// deterministically, so re-adding them reproduces the witness's
  /// edge ids exactly.
  certify::Diag diag;
};

/// makeWellposed (paper §IV-C): adds sequencing dependencies
/// anchor -> vertex (weight delta(anchor), zero offset) until every
/// backward edge satisfies anchor containment, or detects that no
/// well-posed serial-compatible graph exists.
///
/// Implemented as a fixed point: recompute anchor sets, repair every
/// violated backward edge, repeat. Added edges have maximal defining
/// path length 0, so the result is a *minimum* serial-compatible graph
/// (Theorem 7). Mutates `g` in place; transactional on failure: every
/// serializing edge added along the way is rolled back out, so `g` is
/// restored to its pre-call state (verify the failure diag against the
/// restored graph with `added_edges` re-applied).
MakeWellposedResult make_wellposed(cg::ConstraintGraph& g);

}  // namespace relsched::wellposed
