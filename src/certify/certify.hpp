// Certificates and diagnostics for the synthesis pipeline.
//
// The paper's failure modes are all witness-shaped:
//
//   - infeasibility (Theorem 1) is a positive-weight cycle in G0;
//   - ill-posedness (Theorem 2) is a backward edge whose tail tracks an
//     anchor the head does not, together with the defining path that
//     puts the anchor in A(tail);
//   - unserializability (Lemma 3) is an unbounded-length cycle the
//     repairing sequencing edge would close.
//
// This library packages each of those as a structured Diag -- stable
// error code, concrete witness, human rendering, JSON rendering -- and
// provides two independent validators:
//
//   verify_witness   - O(|witness|) replay: re-sums the cycle /
//                      re-walks the path against the graph, so a wrong
//                      witness is itself a detectable error;
//   check_schedule   - validates a RelativeSchedule against every
//                      forward and backward edge symbolically over ALL
//                      anchor delay profiles (per-anchor offset
//                      inequalities, Theorems 3-4) in O(|A| * |E|),
//                      with zero dependence on the scheduler's own
//                      data structures (it computes its own topological
//                      order and zero-profile start times).
//
// Layering: certify links only base/graph/cg/anchors. It consumes
// sched/relative_schedule.hpp header-only (offsets(v), offset(v, a) and
// vertex_count() are inline), so wellposed and sched can both depend on
// certify without a library cycle.
#pragma once

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "anchors/anchor_analysis.hpp"
#include "cg/constraint_graph.hpp"
#include "sched/relative_schedule.hpp"

namespace relsched::certify {

/// Stable machine-readable error codes (rendered into JSON; never
/// renumbered, only appended).
enum class Code {
  kNone,             // no diagnostic
  kPositiveCycle,    // Theorem 1: positive-weight cycle in G0
  kContainment,      // Theorem 2: A(tail) not contained in A(head)
  kAnchorInWindow,   // Fig 3(a): the head anchor sits inside its own
                     // maximum-timing window; unrepairable
  kUnboundedCycle,   // Lemma 3: serialization would close an
                     // unbounded-length cycle
  kScheduleViolation,  // check_schedule: an edge's constraint is not
                       // satisfied for every delay profile
  kVerdictMismatch,    // engine certification: a warm failure verdict
                       // disagrees with an independent cold check
                       // (carries no witness; the cold fallback's
                       // products carry the authoritative diag)
  kTimeout,            // cooperative cancellation: a watchdog (deadline,
                       // cancel request, or iteration budget) stopped
                       // the resolve before a verdict; carries no
                       // witness -- the result is undecided, not a
                       // constraint failure
  kIrredundantSet,     // check_irredundant: an IR(v) set keeps an anchor
                       // that has a redundancy witness or drops one
                       // that has none (paper §III-D); carries no
                       // witness, the message names vertex and anchor
};

[[nodiscard]] const char* to_string(Code code);

/// Theorem 1 witness: a closed walk in G0 whose resolved weights
/// (unbounded = 0) sum to a strictly positive value.
struct CycleWitness {
  /// Edge ids in walk order; edge[i].to == edge[i+1].from, and the last
  /// edge closes back to the first edge's tail.
  std::vector<EdgeId> edges;
  /// Sum of resolved weights along the walk (> 0).
  graph::Weight total = 0;
};

/// Theorem 2 / Fig 3(a) witness: a backward edge (tail, head) and an
/// anchor `a` in A(tail) \ A(head), exhibited by a defining path.
struct ContainmentWitness {
  /// The violating backward (max-constraint) edge.
  EdgeId backward_edge = EdgeId::invalid();
  /// The counterexample anchor: a in A(tail) \ A(head).
  VertexId anchor = VertexId::invalid();
  /// Forward path anchor -> tail whose first edge carries the anchor's
  /// unbounded delay (this is what puts `anchor` in A(tail); the
  /// negative half, anchor not-in A(head), is cross-checked by callers
  /// against an independent find_anchor_sets()).
  std::vector<EdgeId> path;
};

/// Lemma 3 witness: serializing `anchor` before the backward edge's
/// head would close a forward cycle through the anchor's unbounded
/// delay. `path` is the existing forward path head -> anchor.
struct UnboundedCycleWitness {
  EdgeId backward_edge = EdgeId::invalid();
  VertexId anchor = VertexId::invalid();
  /// Forward path from the backward edge's head to the anchor.
  std::vector<EdgeId> path;
};

/// check_schedule witness: one edge (t -> h, w) and the anchor whose
/// offset inequality fails (invalid for the zero-profile numeric
/// check). `lhs < rhs` is the violated `lhs >= rhs` instance.
struct ScheduleViolationWitness {
  EdgeId edge = EdgeId::invalid();
  /// The anchor of the violated per-anchor inequality; invalid() for
  /// the zero-profile start-time check or a missing-anchor violation.
  VertexId anchor = VertexId::invalid();
  graph::Weight lhs = 0;
  graph::Weight rhs = 0;
  /// What went wrong, machine-readable beyond the code: "offset",
  /// "missing-anchor", "anchor-in-window", "zero-profile",
  /// "malformed".
  std::string detail;
};

using Witness = std::variant<std::monostate, CycleWitness, ContainmentWitness,
                             UnboundedCycleWitness, ScheduleViolationWitness>;

/// A structured diagnostic: stable code + witness + renderings.
struct Diag {
  Code code = Code::kNone;
  Witness witness;
  /// One-line human rendering (same text style as the prose messages
  /// the pipeline reported before witnesses existed).
  std::string message;

  [[nodiscard]] bool ok() const { return code == Code::kNone; }
  [[nodiscard]] bool has_witness() const {
    return !std::holds_alternative<std::monostate>(witness);
  }
};

/// Multi-line human rendering: the message plus the witness spelled out
/// (cycle edges with weights, path vertices, the violated inequality).
[[nodiscard]] std::string render(const Diag& diag, const cg::ConstraintGraph& g);

/// Single-object JSON rendering with the stable `code` string.
[[nodiscard]] std::string to_json(const Diag& diag, const cg::ConstraintGraph& g);

/// O(|witness|) replay of a diag's witness against `g`: re-sums the
/// cycle / re-walks the path and re-checks every structural claim the
/// witness makes. Returns std::nullopt when the witness checks out, or
/// a human-readable reason why it is wrong. A diag with code kNone or
/// without a witness is rejected (nothing to verify).
[[nodiscard]] std::optional<std::string> verify_witness(
    const cg::ConstraintGraph& g, const Diag& diag);

/// Extracts a Theorem 1 witness: a positive-weight cycle in G0
/// reachable from the source. Returns kNone when the graph is feasible.
/// Bellman-Ford with parent tracking, O(|V| * |E|).
[[nodiscard]] Diag find_positive_cycle(const cg::ConstraintGraph& g);

/// Builds a Theorem 2 / Fig 3(a) containment diag for backward edge `e`
/// and counterexample `anchor` (claimed to be in A(e.from)): finds the
/// defining path anchor -> e.from and selects kAnchorInWindow when
/// anchor == e.to, kContainment otherwise. A wrong claim (no defining
/// path exists) yields a witness with an empty path, which
/// verify_witness rejects.
[[nodiscard]] Diag make_containment_diag(const cg::ConstraintGraph& g, EdgeId e,
                                         VertexId anchor);

/// Builds a Lemma 3 diag: the forward path e.to -> anchor that the
/// serializing edge anchor -> e.to would close into a cycle. A wrong
/// claim yields an empty-path witness, rejected by verify_witness.
[[nodiscard]] Diag make_unbounded_cycle_diag(const cg::ConstraintGraph& g,
                                             EdgeId e, VertexId anchor);

/// Independent schedule certifier. Validates that `schedule` satisfies
/// every edge (t -> h, w) of `g` -- sigma(h) >= sigma(t) + w -- for ALL
/// anchor delay profiles, via the per-anchor offset inequalities:
///
///   unbounded edge (t anchor):  sigma_t(h) exists and >= 0;
///   fixed-weight edge, for each tracked (a, sigma_a(t)) of t:
///       a == h             ->  reject (anchor inside its own window);
///       otherwise          ->  sigma_a(h) exists and
///                              sigma_a(h) >= sigma_a(t) + w;
///   plus the zero-profile numeric check T0(h) >= T0(t) + w, which
///   covers the max(0, ...) floor of the start-time recursion.
///
/// Sound for schedules tracking FULL anchor sets (all the engine
/// produces); restricted modes (kRelevant/kIrredundant) satisfy the
/// constraints via anchor nesting that these per-anchor inequalities
/// do not model, so certify their kFull parent instead.
/// O(|A| * |E|); computes its own topological order and start times.
[[nodiscard]] Diag check_schedule(const cg::ConstraintGraph& g,
                                  const sched::RelativeSchedule& schedule);

/// check_schedule plus the Theorem 3 minimality cross-check against an
/// independent anchor analysis: for every vertex v the schedule must
/// track exactly A(v), with sigma_a(v) == length(a, v) (the cone-
/// restricted longest path). Catches corruption that leaves the
/// schedule valid but non-minimal (stale offsets) and corruption of
/// the analysis rows themselves (truncated row vs. healthy schedule).
/// Once the length rows are certified, ends with check_irredundant, so
/// the IR(v) sets control is built from are certified wherever
/// products are. Requires a kFull-mode schedule.
[[nodiscard]] Diag check_products(const cg::ConstraintGraph& g,
                                  const anchors::AnchorAnalysis& analysis,
                                  const sched::RelativeSchedule& schedule);

/// Certifies the irredundant anchor sets (paper §III-D, Theorems 5-6)
/// against the analysis's A(v), R(v), defining-path and length rows.
/// For every vertex v: IR(v) is a subset of A(v), and an anchor a of
/// A(v) is dropped from IR(v) exactly when it has a witness -- no
/// defining path reaches v (maximal_defining_path_length(a, v) is
/// kNegInf), or some r in R(v) with a in A(r) satisfies
/// length(a, r) + length(r, v) >= length(a, v). Precondition: a
/// well-posed graph (where R(v) is a subset of A(v)).
/// O(sum over v of |A(v)| * |R(v)|).
[[nodiscard]] Diag check_irredundant(const cg::ConstraintGraph& g,
                                     const anchors::AnchorAnalysis& analysis);

}  // namespace relsched::certify
