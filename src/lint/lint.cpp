#include "lint/lint.hpp"

#include <algorithm>
#include <cstdio>

#include "base/error.hpp"
#include "base/json.hpp"
#include "base/strings.hpp"
#include "graph/algorithms.hpp"
#include "graph/digraph.hpp"
#include "wellposed/wellposed.hpp"

namespace relsched::lint {

namespace {

using graph::kNegInf;
using graph::Weight;

const char* kind_label(cg::EdgeKind kind) {
  switch (kind) {
    case cg::EdgeKind::kSequencing:
      return "seq";
    case cg::EdgeKind::kMinConstraint:
      return "min";
    case cg::EdgeKind::kMaxConstraint:
      return "max";
  }
  return "?";
}

/// Human rendering of a constraint in user orientation: max edges are
/// stored backward (head -> tail, weight -u), so they are flipped back
/// to the add_max_constraint(from, to, u) the user wrote.
std::string describe_edge(const cg::ConstraintGraph& g, EdgeId eid) {
  const cg::Edge& e = g.edge(eid);
  switch (e.kind) {
    case cg::EdgeKind::kSequencing:
      return cat(g.vertex(e.from).name, " -> ", g.vertex(e.to).name,
                 " (sequencing)");
    case cg::EdgeKind::kMinConstraint:
      return cat("min ", g.vertex(e.from).name, " -> ", g.vertex(e.to).name,
                 " >= ", e.fixed_weight);
    case cg::EdgeKind::kMaxConstraint:
      return cat("max ", g.vertex(e.to).name, " -> ", g.vertex(e.from).name,
                 " <= ", -e.fixed_weight);
  }
  return "?";
}

/// Longest resolved-weight walk from `from` to `to` that avoids edge
/// `skip`, optionally restricted to forward edges and/or to a vertex
/// subset (`allowed`, the anchor-cone case). Label-correcting
/// Bellman-Ford; precondition: the walked subgraph has no positive
/// cycle (subgraphs of a feasible graph never do), so walks equal
/// paths and n passes suffice.
Weight implied_path(const cg::ConstraintGraph& g, VertexId from, VertexId to,
                    EdgeId skip, const std::vector<bool>* allowed,
                    bool forward_only) {
  const int n = g.vertex_count();
  std::vector<Weight> dist(static_cast<std::size_t>(n), kNegInf);
  dist[from.index()] = 0;
  for (int pass = 0; pass < n; ++pass) {
    bool changed = false;
    for (const cg::Edge& e : g.edges()) {
      if (e.id == skip) continue;
      if (forward_only && !cg::is_forward(e.kind)) continue;
      if (allowed != nullptr &&
          (!(*allowed)[e.from.index()] || !(*allowed)[e.to.index()])) {
        continue;
      }
      if (dist[e.from.index()] == kNegInf) continue;
      const Weight cand =
          graph::saturating_add(dist[e.from.index()], g.weight(e.id).value);
      if (cand > dist[e.to.index()]) {
        dist[e.to.index()] = cand;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return dist[to.index()];
}

/// Is removing constraint edge `eid` provably schedule-preserving?
///
/// Soundness argument (the property test in tests/property_lint.cpp
/// checks the conclusion bit-for-bit):
///
///   Min edge (t, h, w): require a *forward-only* implying path
///   t ~> h in Gf \ {e} of resolved weight >= w. Unbounded weights
///   resolve to 0, their minimum, so the implication holds for every
///   delay profile. Any Gf path establishing an anchor membership
///   a in A(v) reroutes its e-segment through the implying path (a min
///   edge is never the unbounded delta(a) edge), so all A(v) -- and
///   with them polarity, cones, and the well-posedness verdict -- are
///   preserved, and the removal cannot be rejected by the polarity
///   guard (the implying path supplies the alternate in/out edges).
///
///   Both kinds: for every anchor a whose cone contains both
///   endpoints, require a reroute of weight >= w *within that cone*
///   minus e. The minimum offsets sigma_a(v) are the cone-restricted
///   longest paths length(a, v) (Theorem 3); a reroute inside the cone
///   means no such path shortens when e disappears, while removal can
///   never lengthen one. Cones themselves only depend on the anchor
///   sets, which the min-edge condition keeps intact. Hence every
///   offset map entry -- the schedule -- is bit-identical. (A global
///   implying walk is NOT enough for max edges: it may escape the
///   cone, where it cannot stand in for the removed edge in
///   length(a, .); see the cone remark on AnchorAnalysis::length.)
bool edge_redundant(const cg::ConstraintGraph& g,
                    const anchors::AnchorAnalysis& analysis, EdgeId eid,
                    Weight* implied) {
  const cg::Edge& e = g.edge(eid);
  const Weight w = g.weight(eid).value;
  if (e.kind == cg::EdgeKind::kMinConstraint) {
    const Weight wf =
        implied_path(g, e.from, e.to, eid, nullptr, /*forward_only=*/true);
    if (wf == kNegInf || wf < w) return false;
    *implied = wf;
  } else if (e.kind == cg::EdgeKind::kMaxConstraint) {
    const Weight wg =
        implied_path(g, e.from, e.to, eid, nullptr, /*forward_only=*/false);
    if (wg == kNegInf || wg < w) return false;
    *implied = wg;
  } else {
    return false;  // sequencing edges carry structure; never redundant
  }
  std::vector<bool> cone(static_cast<std::size_t>(g.vertex_count()), false);
  for (VertexId a : analysis.anchors()) {
    const auto in_cone = [&](VertexId v) {
      return v == a || analysis.anchor_set(v).contains(a);
    };
    if (!in_cone(e.from) || !in_cone(e.to)) continue;
    for (int v = 0; v < g.vertex_count(); ++v) {
      cone[static_cast<std::size_t>(v)] = in_cone(VertexId(v));
    }
    const Weight wc =
        implied_path(g, e.from, e.to, eid, &cone, /*forward_only=*/false);
    if (wc == kNegInf || wc < w) return false;
  }
  return true;
}

/// Never-binding slack bound for backward edge `eid`: with containment
/// A(tail) subset-of A(head) (well-posedness, the precondition), the
/// start times race over the same anchors with offsets equal to the
/// cone lengths (Theorem 3), so T(tail) - T(head) <= max over a in
/// A(tail) of (length(a, tail) - length(a, head)). Strictly below the
/// bound u means strictly positive slack for every delay profile.
bool never_binding(const cg::ConstraintGraph& g,
                   const anchors::AnchorAnalysis& analysis, EdgeId eid,
                   Weight* separation) {
  const cg::Edge& e = g.edge(eid);
  const int u = -e.fixed_weight;
  const auto tail = analysis.anchor_set(e.from);
  if (tail.empty()) {
    // Only the source has an empty anchor set; its start time is 0 and
    // every other start time is >= 0, so slack is at least u.
    *separation = 0;
    return u > 0;
  }
  Weight sep = kNegInf;
  anchors::AnchorCellCursor head(analysis.lengths_at(e.to));
  for (const auto [a, lt] : analysis.lengths_at(e.from)) {
    const Weight lh = head.value(a);
    if (lt == kNegInf || lh == kNegInf) return false;  // defensive
    sep = std::max(sep, lt - lh);
  }
  *separation = sep;
  return sep < u;
}

/// Feasibility of `g` with the backward edges marked in `dropped`
/// removed: no positive cycle in the remaining G0 (Theorem 1).
bool feasible_without(const cg::ConstraintGraph& g,
                      const std::vector<bool>& dropped) {
  graph::Digraph d(g.vertex_count());
  for (const cg::Edge& e : g.edges()) {
    if (e.kind == cg::EdgeKind::kMaxConstraint && dropped[e.id.index()]) {
      continue;
    }
    d.add_arc(e.from.value(), e.to.value(), g.weight(e.id).value);
  }
  return !graph::longest_paths_from(d, g.source().value()).positive_cycle;
}

Finding redundant_finding(const cg::ConstraintGraph& g,
                          const RedundantEdge& r) {
  const cg::Edge& e = g.edge(r.edge);
  Finding f;
  f.rule = e.kind == cg::EdgeKind::kMinConstraint
               ? Rule::kRedundantMinConstraint
               : Rule::kRedundantMaxConstraint;
  f.severity = severity(f.rule);
  f.message = cat(describe_edge(g, r.edge),
                  " is implied by the remaining graph (strongest implying "
                  "path has weight ",
                  r.implied, "); removing it leaves the schedule unchanged");
  f.suggestion = "remove the constraint (relsched lint --strip-redundant)";
  f.vertices = {e.from, e.to};
  f.edges = {r.edge};
  return f;
}

Finding never_binding_finding(const cg::ConstraintGraph& g, EdgeId eid,
                              Weight separation) {
  const cg::Edge& e = g.edge(eid);
  const int u = -e.fixed_weight;
  Finding f;
  f.rule = Rule::kNeverBindingMax;
  f.severity = severity(f.rule);
  f.message =
      cat(describe_edge(g, eid), " can never be tight: the start-time "
          "separation of its endpoints is at most ",
          separation == kNegInf ? Weight{0} : separation,
          " < ", u, " for every delay profile");
  f.suggestion = "tighten the bound or drop the constraint";
  f.vertices = {e.from, e.to};
  f.edges = {eid};
  return f;
}

Finding dead_anchor_finding(const cg::ConstraintGraph& g, VertexId anchor) {
  Finding f;
  f.rule = Rule::kDeadAnchor;
  f.severity = severity(f.rule);
  f.message = cat("anchor '", g.vertex(anchor).name,
                  "' is irrelevant for the sink: no defining path reaches "
                  "it, so this synchronization never delays completion");
  f.suggestion =
      "confirm the synchronization is intentional; it constrains only "
      "internal operations";
  f.vertices = {anchor};
  return f;
}

using base::append_json_string;

}  // namespace

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

const char* rule_id(Rule rule) {
  switch (rule) {
    case Rule::kInvalidGraph:
      return "invalid-graph";
    case Rule::kUnsatCore:
      return "unsat-core";
    case Rule::kIllPosedConstraint:
      return "ill-posed-constraint";
    case Rule::kRedundantMinConstraint:
      return "redundant-min-constraint";
    case Rule::kRedundantMaxConstraint:
      return "redundant-max-constraint";
    case Rule::kNeverBindingMax:
      return "never-binding-max";
    case Rule::kDeadAnchor:
      return "dead-anchor";
  }
  return "?";
}

Severity severity(Rule rule) {
  switch (rule) {
    case Rule::kInvalidGraph:
    case Rule::kUnsatCore:
    case Rule::kIllPosedConstraint:
      return Severity::kError;
    case Rule::kRedundantMinConstraint:
    case Rule::kRedundantMaxConstraint:
      return Severity::kWarning;
    case Rule::kNeverBindingMax:
    case Rule::kDeadAnchor:
      return Severity::kInfo;
  }
  return Severity::kError;
}

std::optional<Severity> Report::max_severity() const {
  std::optional<Severity> max;
  for (const Finding& f : findings) {
    if (!max || f.severity > *max) max = f.severity;
  }
  return max;
}

int Report::count(Rule rule) const {
  int n = 0;
  for (const Finding& f : findings) n += f.rule == rule ? 1 : 0;
  return n;
}

int Report::count(Severity s) const {
  int n = 0;
  for (const Finding& f : findings) n += f.severity == s ? 1 : 0;
  return n;
}

UnsatCore unsat_core(const cg::ConstraintGraph& g) {
  UnsatCore out;
  std::vector<bool> dropped(static_cast<std::size_t>(g.edge_count()), false);
  if (feasible_without(g, dropped)) {
    out.verification_error = "graph is feasible; no core to extract";
    return out;
  }
  // Deletion filter. Invariant: (kept so far) + (unprocessed suffix)
  // is infeasible. Dropping e and testing tells whether e is needed to
  // keep it that way. Feasibility is monotone under removal, so every
  // kept edge stays necessary as the set shrinks: the final core is
  // irreducible.
  for (const cg::Edge& e : g.edges()) {
    if (e.kind != cg::EdgeKind::kMaxConstraint) continue;
    dropped[e.id.index()] = true;
    if (feasible_without(g, dropped)) {
      dropped[e.id.index()] = false;  // needed: keep it
      out.core.push_back(e.id);
    }
  }
  // Explicit single-deletion minimality check (cheap; doubles as a
  // regression guard on the filter itself).
  out.minimal = !feasible_without(g, dropped);
  for (const EdgeId e : out.core) {
    dropped[e.index()] = true;
    if (!feasible_without(g, dropped)) out.minimal = false;
    dropped[e.index()] = false;
  }
  // Independent cross-check: re-find the positive cycle inside the
  // reduced core graph and replay it through certify::verify_witness.
  // Lint never crashes on a bad core -- a failed replay degrades into
  // verification_error, which analyze() surfaces in the finding.
  const cg::ConstraintGraph reduced = core_graph(g, out.core);
  out.witness = certify::find_positive_cycle(reduced);
  if (out.witness.ok()) {
    out.verification_error =
        "reduced core is feasible: the filter kept too little";
  } else if (const auto err = certify::verify_witness(reduced, out.witness)) {
    out.verification_error = cat("core witness rejected: ", *err);
  }
  return out;
}

cg::ConstraintGraph core_graph(const cg::ConstraintGraph& g,
                               const std::vector<EdgeId>& core) {
  cg::ConstraintGraph out(cat(g.name(), ".core"));
  for (const cg::Vertex& v : g.vertices()) {
    out.add_vertex(std::string(v.name), v.delay);
  }
  std::vector<bool> in_core(static_cast<std::size_t>(g.edge_count()), false);
  for (const EdgeId e : core) in_core[e.index()] = true;
  for (const cg::Edge& e : g.edges()) {
    switch (e.kind) {
      case cg::EdgeKind::kSequencing:
        out.add_sequencing_edge(e.from, e.to);
        break;
      case cg::EdgeKind::kMinConstraint:
        out.add_min_constraint(e.from, e.to, e.fixed_weight);
        break;
      case cg::EdgeKind::kMaxConstraint:
        // Stored backward (head -> tail, -u); re-add in user orientation.
        if (in_core[e.id.index()]) {
          out.add_max_constraint(e.to, e.from, -e.fixed_weight);
        }
        break;
    }
  }
  return out;
}

std::vector<RedundantEdge> redundant_constraints(
    const cg::ConstraintGraph& g, const anchors::AnchorAnalysis& analysis) {
  std::vector<RedundantEdge> out;
  for (const cg::Edge& e : g.edges()) {
    if (e.kind == cg::EdgeKind::kSequencing) continue;
    Weight implied = kNegInf;
    if (edge_redundant(g, analysis, e.id, &implied)) {
      out.push_back({e.id, implied});
    }
  }
  return out;
}

std::vector<RedundantEdge> redundant_constraints(const cg::ConstraintGraph& g) {
  if (!g.validate().empty() || !wellposed::is_feasible(g)) return {};
  return redundant_constraints(g, anchors::AnchorAnalysis::compute(g));
}

std::vector<StrippedEdge> strip_redundant(cg::ConstraintGraph& g) {
  std::vector<StrippedEdge> out;
  if (!g.validate().empty() || !wellposed::is_feasible(g)) return out;
  // Anchor sets -- and with them every cone -- are invariant under the
  // removals below (that is exactly what edge_redundant guarantees), so
  // one analysis of the original graph stays valid for every re-check.
  const anchors::AnchorAnalysis analysis = anchors::AnchorAnalysis::compute(g);
  std::vector<RedundantEdge> candidates = redundant_constraints(g, analysis);
  // Descending edge-id order: remove_constraint swap-pops the *last*
  // edge into the freed slot, so removing from the top keeps every
  // still-pending (smaller) candidate id stable.
  std::sort(candidates.begin(), candidates.end(),
            [](const RedundantEdge& a, const RedundantEdge& b) {
              return a.edge > b.edge;
            });
  for (const RedundantEdge& c : candidates) {
    // Re-verify against the partially stripped graph: of two mutually
    // implied duplicates, the first removal invalidates the second.
    Weight implied = kNegInf;
    if (!edge_redundant(g, analysis, c.edge, &implied)) continue;
    const cg::Edge& e = g.edge(c.edge);
    StrippedEdge s;
    s.kind = e.kind;
    if (e.kind == cg::EdgeKind::kMinConstraint) {
      s.from = e.from;
      s.to = e.to;
      s.bound = e.fixed_weight;
    } else {
      s.from = e.to;
      s.to = e.from;
      s.bound = -e.fixed_weight;
    }
    g.remove_constraint(c.edge);
    out.push_back(s);
  }
  return out;
}

Report analyze(const cg::ConstraintGraph& g, const Options& options) {
  return analyze(g, nullptr, options);
}

Report analyze(const cg::ConstraintGraph& g,
               const anchors::AnchorAnalysis* analysis,
               const Options& options) {
  Report report;

  // Structural validity gates everything: the downstream analyses
  // assume a polar graph with acyclic Gf.
  const std::vector<cg::ValidationIssue> issues = g.validate();
  if (!issues.empty()) {
    for (const cg::ValidationIssue& issue : issues) {
      Finding f;
      f.rule = Rule::kInvalidGraph;
      f.severity = severity(f.rule);
      f.message = issue.message;
      if (issue.vertex.is_valid()) f.vertices.push_back(issue.vertex);
      report.findings.push_back(std::move(f));
    }
    return report;
  }

  // Feasibility (Theorem 1). Anchor analysis requires it, so an
  // infeasible graph yields exactly the unsat-core finding.
  if (!wellposed::is_feasible(g)) {
    const UnsatCore core = unsat_core(g);
    Finding f;
    f.rule = Rule::kUnsatCore;
    f.severity = severity(f.rule);
    std::vector<std::string> parts;
    parts.reserve(core.core.size());
    for (const EdgeId e : core.core) parts.push_back(describe_edge(g, e));
    f.message = cat("infeasible: ", core.core.size(),
                    " max constraint(s) form an irreducible infeasible "
                    "core [",
                    join(parts, "; "), "]");
    if (!core.verification_error.empty()) {
      f.message += cat(" (core verification FAILED: ",
                       core.verification_error, ")");
    }
    f.suggestion = "relax or remove any one of the listed max constraints";
    f.edges = core.core;
    f.diag = certify::find_positive_cycle(g);
    report.findings.push_back(std::move(f));
    return report;
  }

  std::optional<anchors::AnchorAnalysis> owned;
  if (analysis == nullptr) {
    owned = anchors::AnchorAnalysis::compute(g);
    analysis = &*owned;
  }

  // Well-posedness (Theorem 2), exhaustively: every backward edge whose
  // tail tracks an anchor the head does not (wellposed::check stops at
  // the first).
  bool ill_posed = false;
  for (const cg::Edge& e : g.edges()) {
    if (e.kind != cg::EdgeKind::kMaxConstraint) continue;
    const auto tail = analysis->anchor_set(e.from);
    const auto head = analysis->anchor_set(e.to);
    if (tail.is_subset_of(head)) continue;
    ill_posed = true;
    const VertexId a = tail.first_missing_in(head);
    Finding f;
    f.rule = Rule::kIllPosedConstraint;
    f.severity = severity(f.rule);
    f.message = cat(describe_edge(g, e.id), " is not well-posed: '",
                    g.vertex(e.from).name, "' tracks anchor '",
                    g.vertex(a).name, "' but '", g.vertex(e.to).name,
                    "' does not");
    f.suggestion = cat("serialize anchor '", g.vertex(a).name, "' before '",
                       g.vertex(e.to).name,
                       "' (make_wellposed) or drop the constraint");
    f.vertices = {a};
    f.edges = {e.id};
    f.diag = certify::make_containment_diag(g, e.id, a);
    report.findings.push_back(std::move(f));
  }

  std::vector<RedundantEdge> redundant;
  std::vector<bool> is_redundant(static_cast<std::size_t>(g.edge_count()),
                                 false);
  if (options.check_redundant) {
    redundant = redundant_constraints(g, *analysis);
    for (const RedundantEdge& r : redundant) {
      is_redundant[r.edge.index()] = true;
      report.findings.push_back(redundant_finding(g, r));
    }
  }

  // Never-binding max constraints. Sound only on well-posed graphs:
  // the slack bound below needs A(tail) subset-of A(head) so that every
  // anchor the tail's start time can race on is tracked by the head.
  if (options.check_never_binding && !ill_posed) {
    for (const cg::Edge& e : g.edges()) {
      if (e.kind != cg::EdgeKind::kMaxConstraint) continue;
      if (is_redundant[e.id.index()]) continue;  // stronger finding exists
      Weight separation = kNegInf;
      if (never_binding(g, *analysis, e.id, &separation)) {
        report.findings.push_back(
            never_binding_finding(g, e.id, separation));
      }
    }
  }

  // Anchor liveness: a non-source anchor with no defining path to the
  // sink never delays completion (R(sink), Definitions 8-9).
  if (options.check_liveness) {
    const VertexId sink = g.sink();
    const auto relevant = analysis->relevant_set(sink);
    for (const VertexId a : analysis->anchors()) {
      if (a == g.source() || relevant.contains(a)) continue;
      report.findings.push_back(dead_anchor_finding(g, a));
    }
  }
  return report;
}

std::string render_text(const Report& report, const cg::ConstraintGraph& g) {
  std::string out = cat("lint: ", g.name(), ": ");
  if (report.clean()) {
    out += "no findings\n";
    return out;
  }
  out += cat(report.findings.size(), " finding(s), ",
             report.count(Severity::kError), " error(s), ",
             report.count(Severity::kWarning), " warning(s), ",
             report.count(Severity::kInfo), " info\n");
  for (const Finding& f : report.findings) {
    out += cat("  [", to_string(f.severity), "] ", rule_id(f.rule), ": ",
               f.message, "\n");
    if (!f.suggestion.empty()) {
      out += cat("      suggestion: ", f.suggestion, "\n");
    }
  }
  return out;
}

std::string to_json(const Report& report, const cg::ConstraintGraph& g) {
  std::string out = "{\"graph\": ";
  append_json_string(out, g.name());
  out += ", \"findings\": [";
  bool first = true;
  for (const Finding& f : report.findings) {
    if (!first) out += ", ";
    first = false;
    out += "{\"rule\": ";
    append_json_string(out, rule_id(f.rule));
    out += ", \"severity\": ";
    append_json_string(out, to_string(f.severity));
    out += ", \"message\": ";
    append_json_string(out, f.message);
    out += ", \"suggestion\": ";
    append_json_string(out, f.suggestion);
    out += ", \"vertices\": [";
    for (std::size_t i = 0; i < f.vertices.size(); ++i) {
      if (i > 0) out += ", ";
      out += cat("{\"id\": ", f.vertices[i].value(), ", \"name\": ");
      append_json_string(out, g.vertex(f.vertices[i]).name);
      out += "}";
    }
    out += "], \"edges\": [";
    for (std::size_t i = 0; i < f.edges.size(); ++i) {
      if (i > 0) out += ", ";
      const cg::Edge& e = g.edge(f.edges[i]);
      const bool backward = e.kind == cg::EdgeKind::kMaxConstraint;
      out += cat("{\"id\": ", e.id.value(), ", \"kind\": \"",
                 kind_label(e.kind), "\", \"from\": ");
      append_json_string(out, g.vertex(backward ? e.to : e.from).name);
      out += ", \"to\": ";
      append_json_string(out, g.vertex(backward ? e.from : e.to).name);
      out += cat(", \"bound\": ",
                 backward ? -e.fixed_weight : e.fixed_weight, "}");
    }
    out += "]}";
  }
  out += cat("], \"counts\": {\"errors\": ", report.count(Severity::kError),
             ", \"warnings\": ", report.count(Severity::kWarning),
             ", \"infos\": ", report.count(Severity::kInfo), "}}");
  return out;
}

int exit_code(const Report& report, FailOn fail_on) {
  const std::optional<Severity> max = report.max_severity();
  if (!max || fail_on == FailOn::kNever) return 0;
  Severity gate = Severity::kError;
  switch (fail_on) {
    case FailOn::kError:
      gate = Severity::kError;
      break;
    case FailOn::kWarning:
      gate = Severity::kWarning;
      break;
    case FailOn::kInfo:
      gate = Severity::kInfo;
      break;
    case FailOn::kNever:
      return 0;
  }
  if (*max < gate) return 0;
  switch (*max) {
    case Severity::kError:
      return 3;
    case Severity::kWarning:
      return 4;
    case Severity::kInfo:
      return 5;
  }
  return 0;
}

}  // namespace relsched::lint
