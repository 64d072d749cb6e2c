// Static slack / criticality analysis with certified critical-subgraph
// extraction.
//
// The paper's minimum relative schedule is fully determined by the
// anchor analysis: sigma_a^min(v) = length(a, v), the cone-restricted
// longest path (Theorem 3). That makes "how far can this constraint
// tighten before anything moves?" a *static* question -- answerable
// from the cached anchor analysis without re-running the scheduler's
// fixpoint. For a constraint edge stored as (t -> h, w) the minimum
// schedule stays bit-identical under tightening w -> w + s exactly
// while the schedule's validity inequalities keep holding:
//
//   per anchor frame a in A(t):  length(a, h) >= length(a, t) + w + s
//   zero-profile start times:    T0(h)        >= T0(t)        + w + s
//
// so the slack is
//
//   slack(e) = min( min_{a in A(t)} [length(a,h) - length(a,t) - w],
//                   T0(h) - T0(t) - w )
//
// with T0 the zero-profile start times (the certifier's recursion:
// T0(v) = max(0, max_{a in A(v)} T0(a) + d0(a) + length(a, v))).
//
// Soundness (docs/algorithms.md spells out the full argument):
// within the slack the old minimum schedule remains valid for the
// tightened graph -- the inequalities above are precisely what
// certify::check_schedule verifies per edge -- so the tightened graph
// is feasible and still well-posed, and since tightening can only
// *raise* cone-restricted longest paths while the old offsets stay
// achievable, the new minimum schedule equals the old one bit-for-bit.
// One step past the slack the old schedule violates its defining
// inequality, so the minimum schedule moves or feasibility is lost.
// Both directions are fuzzed by perturb-and-recheck in
// tests/property_analyze.cpp.
//
// A constraint is *binding* (slack 0) when some frame's inequality is
// tight; the criticality ranking orders constraints by slack, then by
// how many anchor frames are tight, with the arg-min anchor recorded
// as defining-path provenance.
//
// extract_critical() materializes the minimal closure that reproduces
// the schedule: the union of anchor-membership paths, length-realizing
// (defining) cone paths, binding max constraints, and a polar spine --
// or, on infeasible / ill-posed designs, the lint unsat core /
// containment witnesses. Every extraction is certified at runtime:
// the subgraph is re-scheduled from scratch and its offsets compared
// bit-for-bit against the full design's on every mapped vertex
// (via certify::check_schedule + the Theorem 3 identity), or -- for
// failure verdicts -- the failure is re-detected and its witness
// replayed on the subgraph.
#pragma once

#include <string>
#include <vector>

#include "anchors/anchor_analysis.hpp"
#include "certify/certify.hpp"
#include "cg/constraint_graph.hpp"

namespace relsched::analyze {

/// Analysis verdict for the whole design. Slacks exist only for kOk;
/// the other states carry a witness-bearing diag instead.
enum class Status {
  kOk,          // valid + feasible + well-posed: slacks computed
  kInvalid,     // structural validation failed (message says why)
  kInfeasible,  // positive cycle (diag carries the Theorem 1 witness)
  kIllPosed,    // anchor-set containment violated (diag carries it)
};

[[nodiscard]] const char* to_string(Status status);

/// Per-constraint slack record, in user orientation (max constraints
/// are stored backward; from/to/bound here are what
/// add_max_constraint(from, to, u) was called with).
struct ConstraintSlack {
  EdgeId edge = EdgeId::invalid();
  cg::EdgeKind kind = cg::EdgeKind::kMinConstraint;
  VertexId from = VertexId::invalid();
  VertexId to = VertexId::invalid();
  int bound = 0;
  /// Tightening slack: the largest s >= 0 with the minimum schedule
  /// bit-identical after bound -> bound + s (min) / bound - s (max).
  /// Always finite and >= 0 on a scheduled design. 0 = binding.
  graph::Weight slack = 0;
  /// The zero-profile term T0(h) - T0(t) - w of the slack minimum.
  graph::Weight zero_profile_margin = 0;
  /// Arg-min anchor frame (defining-path provenance): the anchor whose
  /// offset inequality is the first to break when tightening past the
  /// slack; invalid() when the zero-profile term is the strict minimum
  /// or no anchor frame constrains the edge (tail == source).
  VertexId critical_anchor = VertexId::invalid();
  /// sigma_{critical_anchor}(head) = length(critical_anchor, head):
  /// the length of the defining cone path that pins the slack.
  graph::Weight critical_offset = 0;
  /// Number of anchor frames whose margin equals the slack -- how many
  /// inequalities break simultaneously one step past it.
  int tight_frames = 0;
};

struct Report {
  Status status = Status::kInvalid;
  /// Criticality ranking: slack ascending, tight_frames descending,
  /// EdgeId ascending. Empty unless status == kOk.
  std::vector<ConstraintSlack> slacks;
  /// Witness for kInfeasible / kIllPosed (certify::verify_witness
  /// replayable); kNone otherwise.
  certify::Diag diag;
  /// The cold verdict's message (wellposed::cold_check); only kInvalid
  /// renders it.
  std::string message;

  [[nodiscard]] bool ok() const { return status == Status::kOk; }
  /// Number of binding (slack 0) constraints.
  [[nodiscard]] int binding_count() const;
};

/// Runs the analysis. Pass the engine's cached analysis (computed for
/// exactly `g`) to skip recomputing it; with nullptr,
/// wellposed::cold_check decides the graph and computes it.
/// A non-null analysis is trusted: its own preconditions (valid, polar,
/// feasible graph) stand in for the validity and positive-cycle sweeps,
/// so those full-graph passes are skipped. Never schedules, never
/// mutates `g`.
[[nodiscard]] Report analyze(const cg::ConstraintGraph& g,
                             const anchors::AnchorAnalysis* analysis = nullptr);

/// A standalone critical subgraph plus the mapping back to the full
/// design. For kOk reports the subgraph re-schedules to the full
/// design's offsets bit-for-bit on every mapped vertex; for failure
/// reports it reproduces the failure witness.
struct Extraction {
  Status status = Status::kInvalid;
  cg::ConstraintGraph subgraph;
  /// subgraph vertex id (by index) -> full-design vertex id. The
  /// subgraph source is always the full design's source.
  std::vector<VertexId> vertex_map;
  /// full-design vertex index -> subgraph vertex value, or -1.
  std::vector<int> old_to_new;
  /// subgraph edge id (by index) -> full-design edge id.
  std::vector<EdgeId> edge_map;
  /// Runtime certification verdict: the subgraph was re-scheduled (or
  /// its failure re-detected) and checked against the full design.
  bool certified = false;
  /// Why certification failed, when it did.
  std::string certification_error;
  /// Full-design size, for reduction-ratio reporting.
  int full_vertices = 0;
  int full_edges = 0;
};

/// Extracts and certifies the critical subgraph for `report` (which
/// must have been produced by analyze() on exactly `g`). `analysis`
/// as in analyze(). On kInvalid reports the extraction is empty and
/// uncertified.
[[nodiscard]] Extraction extract_critical(
    const cg::ConstraintGraph& g, const Report& report,
    const anchors::AnchorAnalysis* analysis = nullptr);

// ---- Rendering ------------------------------------------------------------

/// Human rendering: status line, binding counts, and the top `top`
/// ranked constraints (0 = all).
[[nodiscard]] std::string render_text(const Report& report,
                                      const cg::ConstraintGraph& g,
                                      int top = 10);

/// One summary line for an extraction (sizes, ratio, certification).
[[nodiscard]] std::string render_text(const Extraction& extraction);

/// Stable JSON (lint renderer conventions): {"graph", "status",
/// "constraints": [{id, kind, from, to, bound, slack,
/// zero_profile_margin, critical_anchor, critical_offset,
/// tight_frames}], "counts": {constraints, binding}, "diag"?,
/// "extraction"?: {vertices, edges, full_vertices, full_edges,
/// certified, certification_error?}}.
[[nodiscard]] std::string to_json(const Report& report,
                                  const cg::ConstraintGraph& g,
                                  const Extraction* extraction = nullptr);

/// Driver exit code: 0 kOk, 2 kInvalid, 3 kInfeasible, 4 kIllPosed;
/// 1 when `extraction` is present but uncertified (a certification
/// failure outranks everything: the tool's own claim did not check out).
[[nodiscard]] int exit_code(const Report& report,
                            const Extraction* extraction = nullptr);

}  // namespace relsched::analyze
