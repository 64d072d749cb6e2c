#include "certify/certify.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "base/error.hpp"
#include "base/json.hpp"
#include "base/strings.hpp"
#include "graph/algorithms.hpp"

namespace relsched::certify {

const char* to_string(Code code) {
  switch (code) {
    case Code::kNone:
      return "none";
    case Code::kPositiveCycle:
      return "positive-cycle";
    case Code::kContainment:
      return "anchor-containment";
    case Code::kAnchorInWindow:
      return "anchor-in-window";
    case Code::kUnboundedCycle:
      return "unbounded-cycle";
    case Code::kScheduleViolation:
      return "schedule-violation";
    case Code::kVerdictMismatch:
      return "verdict-mismatch";
    case Code::kTimeout:
      return "timeout";
    case Code::kIrredundantSet:
      return "irredundant-set";
  }
  return "?";
}

namespace {

bool valid_edge(const cg::ConstraintGraph& g, EdgeId e) {
  return e.is_valid() && e.index() < static_cast<std::size_t>(g.edge_count());
}

bool valid_vertex(const cg::ConstraintGraph& g, VertexId v) {
  return v.is_valid() && v.index() < static_cast<std::size_t>(g.vertex_count());
}

std::string_view vname(const cg::ConstraintGraph& g, VertexId v) {
  return g.vertex(v).name;
}

/// Walks `path` checking forward-edge chaining from `from` to `to`;
/// returns a reason when the walk is broken.
std::optional<std::string> walk_forward_path(const cg::ConstraintGraph& g,
                                             const std::vector<EdgeId>& path,
                                             VertexId from, VertexId to) {
  if (path.empty()) return "witness path is empty";
  VertexId at = from;
  for (EdgeId eid : path) {
    if (!valid_edge(g, eid)) return "witness path edge id out of range";
    const cg::Edge& e = g.edge(eid);
    if (!cg::is_forward(e.kind)) return "witness path uses a backward edge";
    if (e.from != at) return "witness path is not a connected walk";
    at = e.to;
  }
  if (at != to) return "witness path does not end at the claimed vertex";
  return std::nullopt;
}

/// Breadth-first forward path `from` -> `to`; when `unbounded_first` the
/// first edge must carry the tail's unbounded delay (a defining-path
/// prefix). Empty result when no such path exists.
std::vector<EdgeId> forward_path(const cg::ConstraintGraph& g, VertexId from,
                                 VertexId to, bool unbounded_first) {
  const std::size_t n = static_cast<std::size_t>(g.vertex_count());
  std::vector<EdgeId> parent(n, EdgeId::invalid());
  std::vector<bool> seen(n, false);
  std::vector<VertexId> queue;
  if (unbounded_first) {
    for (EdgeId eid : g.out_edges(from)) {
      const cg::Edge& e = g.edge(eid);
      if (!cg::is_forward(e.kind) || !g.weight(eid).unbounded) continue;
      if (seen[e.to.index()]) continue;
      seen[e.to.index()] = true;
      parent[e.to.index()] = eid;
      queue.push_back(e.to);
    }
  } else {
    seen[from.index()] = true;
    queue.push_back(from);
  }
  std::size_t head = 0;
  while (head < queue.size() && !seen[to.index()]) {
    const VertexId v = queue[head++];
    for (EdgeId eid : g.out_edges(v)) {
      const cg::Edge& e = g.edge(eid);
      if (!cg::is_forward(e.kind) || seen[e.to.index()]) continue;
      seen[e.to.index()] = true;
      parent[e.to.index()] = eid;
      queue.push_back(e.to);
    }
  }
  std::vector<EdgeId> path;
  if (!seen[to.index()]) return path;
  // Walk parents back to `from` (the only vertex on the tree with no
  // parent edge; Gf is acyclic, so the walk terminates).
  VertexId v = to;
  while (parent[v.index()].is_valid()) {
    const EdgeId eid = parent[v.index()];
    path.push_back(eid);
    v = g.edge(eid).from;
    if (v == from) break;
  }
  if (v != from) return {};
  std::reverse(path.begin(), path.end());
  return path;
}

std::string offset_name(const cg::ConstraintGraph& g, VertexId a, VertexId v) {
  return cat("sigma_", vname(g, a), "(", vname(g, v), ")");
}

Diag schedule_violation(const cg::ConstraintGraph& g, EdgeId edge,
                        VertexId anchor, graph::Weight lhs, graph::Weight rhs,
                        std::string detail, std::string message) {
  Diag d;
  d.code = Code::kScheduleViolation;
  ScheduleViolationWitness w;
  w.edge = edge;
  w.anchor = anchor;
  w.lhs = lhs;
  w.rhs = rhs;
  w.detail = std::move(detail);
  d.witness = std::move(w);
  d.message = std::move(message);
  (void)g;
  return d;
}

/// sigma_a(v) looked up through the inline entries() accessor (keeps
/// this library link-independent of relsched_sched).
std::optional<graph::Weight> offset_of(const sched::OffsetMap& offsets,
                                       VertexId anchor) {
  const auto& entries = offsets.entries();
  auto it = std::lower_bound(entries.begin(), entries.end(), anchor,
                             [](const sched::OffsetMap::Entry& e, VertexId a) {
                               return e.first < a;
                             });
  if (it == entries.end() || it->first != anchor) return std::nullopt;
  return it->second;
}

/// Zero-profile delay contribution of `v` (mirrors
/// sched::DelayProfile::delay_of with an empty profile).
graph::Weight zero_profile_delay(const cg::ConstraintGraph& g, VertexId v) {
  if (g.vertex(v).delay.is_bounded() && v != g.source()) {
    return g.vertex(v).delay.cycles();
  }
  return 0;
}

}  // namespace

Diag find_positive_cycle(const cg::ConstraintGraph& g) {
  const std::size_t n = static_cast<std::size_t>(g.vertex_count());
  std::vector<graph::Weight> dist(n, graph::kNegInf);
  std::vector<EdgeId> parent(n, EdgeId::invalid());
  dist[g.source().index()] = 0;

  // Bellman-Ford longest paths with parent tracking over G0. After
  // |V| - 1 full passes every finite longest *path* is settled; a
  // further improvable edge proves a positive cycle (Theorem 1), and
  // following parents |V| steps from its head lands inside the cycle.
  auto relax_pass = [&]() {
    bool changed = false;
    for (const cg::Edge& e : g.edges()) {
      const graph::Weight cand =
          graph::saturating_add(dist[e.from.index()], g.weight(e.id).value);
      if (cand > dist[e.to.index()]) {
        dist[e.to.index()] = cand;
        parent[e.to.index()] = e.id;
        changed = true;
      }
    }
    return changed;
  };
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (!relax_pass()) return Diag{};
  }
  if (!relax_pass()) return Diag{};

  // Some vertex was still improvable: find one and walk into the cycle.
  VertexId probe = VertexId::invalid();
  for (const cg::Edge& e : g.edges()) {
    const graph::Weight cand =
        graph::saturating_add(dist[e.from.index()], g.weight(e.id).value);
    if (cand > dist[e.to.index()]) {
      dist[e.to.index()] = cand;
      parent[e.to.index()] = e.id;
      probe = e.to;
      break;
    }
  }
  RELSCHED_CHECK(probe.is_valid(), "relaxation pass must expose the cycle");
  for (std::size_t i = 0; i < n; ++i) {
    probe = g.edge(parent[probe.index()]).from;
  }

  CycleWitness witness;
  VertexId v = probe;
  do {
    const EdgeId eid = parent[v.index()];
    witness.edges.push_back(eid);
    witness.total =
        graph::saturating_add(witness.total, g.weight(eid).value);
    v = g.edge(eid).from;
  } while (v != probe);
  std::reverse(witness.edges.begin(), witness.edges.end());
  RELSCHED_CHECK(witness.total > 0,
                 "extracted cycle must have positive weight");

  Diag d;
  d.code = Code::kPositiveCycle;
  d.message = cat("positive cycle with unbounded delays set to 0 (weight +",
                  witness.total, " through '", vname(g, probe), "')");
  d.witness = std::move(witness);
  return d;
}

Diag make_containment_diag(const cg::ConstraintGraph& g, EdgeId e,
                           VertexId anchor) {
  RELSCHED_CHECK(valid_edge(g, e) && !cg::is_forward(g.edge(e).kind),
                 "containment witness needs a backward edge");
  const VertexId tail = g.edge(e).from;
  const VertexId head = g.edge(e).to;
  ContainmentWitness witness;
  witness.backward_edge = e;
  witness.anchor = anchor;
  // No path means the caller's a-in-A(tail) claim was wrong (e.g. a
  // corrupted incremental anchor analysis); the empty path survives
  // into the witness so verify_witness rejects it rather than this
  // builder throwing mid-pipeline.
  witness.path = forward_path(g, anchor, tail, /*unbounded_first=*/true);

  Diag d;
  if (anchor == head) {
    // Fig 3(a): the anchor is the constrained head itself -- its
    // unbounded delay sits inside the maximum-timing window, which no
    // serialization can bound.
    d.code = Code::kAnchorInWindow;
    d.message = cat("anchor '", vname(g, anchor),
                    "' lies on a path inside a maximum timing constraint");
  } else {
    d.code = Code::kContainment;
    d.message = cat("max constraint between '", vname(g, head), "' and '",
                    vname(g, tail), "': A(", vname(g, tail),
                    ") not contained in A(", vname(g, head), ") (anchor '",
                    vname(g, anchor), "')");
  }
  d.witness = std::move(witness);
  return d;
}

Diag make_unbounded_cycle_diag(const cg::ConstraintGraph& g, EdgeId e,
                               VertexId anchor) {
  RELSCHED_CHECK(valid_edge(g, e) && !cg::is_forward(g.edge(e).kind),
                 "unbounded-cycle witness needs a backward edge");
  const VertexId head = g.edge(e).to;
  UnboundedCycleWitness witness;
  witness.backward_edge = e;
  witness.anchor = anchor;
  // Empty when the head does not actually reach the anchor (wrong
  // claim); verify_witness rejects the resulting witness.
  witness.path = forward_path(g, head, anchor, /*unbounded_first=*/false);

  Diag d;
  d.code = Code::kUnboundedCycle;
  d.message = cat("serializing '", vname(g, anchor), "' -> '", vname(g, head),
                  "' would create an unbounded-length cycle");
  d.witness = std::move(witness);
  return d;
}

std::optional<std::string> verify_witness(const cg::ConstraintGraph& g,
                                          const Diag& diag) {
  switch (diag.code) {
    case Code::kNone:
      return "diag carries no failure to verify";

    case Code::kPositiveCycle: {
      const auto* w = std::get_if<CycleWitness>(&diag.witness);
      if (w == nullptr) return "positive-cycle diag without a cycle witness";
      if (w->edges.empty()) return "cycle witness is empty";
      graph::Weight total = 0;
      for (std::size_t i = 0; i < w->edges.size(); ++i) {
        if (!valid_edge(g, w->edges[i])) return "cycle edge id out of range";
        const cg::Edge& e = g.edge(w->edges[i]);
        const cg::Edge& next =
            g.edge(w->edges[(i + 1) % w->edges.size()]);
        if (e.to != next.from) return "cycle witness is not a closed walk";
        total = graph::saturating_add(total, g.weight(e.id).value);
      }
      if (total != w->total) return "cycle witness total does not re-sum";
      if (total <= 0) return "cycle witness weight is not positive";
      return std::nullopt;
    }

    case Code::kContainment:
    case Code::kAnchorInWindow: {
      const auto* w = std::get_if<ContainmentWitness>(&diag.witness);
      if (w == nullptr) return "containment diag without a witness";
      if (!valid_edge(g, w->backward_edge)) {
        return "backward edge id out of range";
      }
      const cg::Edge& e = g.edge(w->backward_edge);
      if (cg::is_forward(e.kind)) {
        return "claimed backward edge is a forward edge";
      }
      if (!valid_vertex(g, w->anchor) || !g.is_anchor(w->anchor)) {
        return "witness anchor is not an anchor";
      }
      if (diag.code == Code::kAnchorInWindow && w->anchor != e.to) {
        return "anchor-in-window witness anchor is not the head";
      }
      if (diag.code == Code::kContainment && w->anchor == e.to) {
        return "containment witness anchor is the head (anchor-in-window)";
      }
      if (w->path.empty()) return "witness path is empty";
      if (g.edge(w->path.front()).from != w->anchor) {
        return "witness path does not start at the anchor";
      }
      if (!g.weight(w->path.front()).unbounded) {
        return "witness path's first edge does not carry the anchor's "
               "unbounded delay";
      }
      // The walk proves anchor in A(tail); the negative half (anchor
      // not in A(head)) is not O(|witness|)-checkable and is
      // cross-checked by callers against find_anchor_sets.
      return walk_forward_path(g, w->path, w->anchor, e.from);
    }

    case Code::kUnboundedCycle: {
      const auto* w = std::get_if<UnboundedCycleWitness>(&diag.witness);
      if (w == nullptr) return "unbounded-cycle diag without a witness";
      if (!valid_edge(g, w->backward_edge)) {
        return "backward edge id out of range";
      }
      const cg::Edge& e = g.edge(w->backward_edge);
      if (cg::is_forward(e.kind)) {
        return "claimed backward edge is a forward edge";
      }
      if (!valid_vertex(g, w->anchor) || !g.is_anchor(w->anchor)) {
        return "witness anchor is not an anchor";
      }
      // head -> ... -> anchor: the serializing edge anchor -> head
      // (weight delta(anchor), unbounded) would close this walk into a
      // cycle of unbounded length (Lemma 3).
      return walk_forward_path(g, w->path, e.to, w->anchor);
    }

    case Code::kScheduleViolation: {
      const auto* w = std::get_if<ScheduleViolationWitness>(&diag.witness);
      if (w == nullptr) return "schedule diag without a witness";
      if (!valid_edge(g, w->edge)) return "violated edge id out of range";
      if (w->lhs >= w->rhs) {
        return "claimed violation is not a violation (lhs >= rhs)";
      }
      // The inequality itself is re-derived by check_schedule, which
      // owns the schedule; only the structural claims are checked here.
      return std::nullopt;
    }

    case Code::kVerdictMismatch:
      return "verdict-mismatch diags carry no witness";

    case Code::kTimeout:
      return "timeout diags carry no witness";

    case Code::kIrredundantSet:
      return "irredundant-set diags carry no witness";
  }
  return "unknown diag code";
}

namespace {

/// Kahn's algorithm over the forward subgraph, straight off the
/// ConstraintGraph adjacency (no Digraph projection: the certifier runs
/// after every warm resolve, so a handful of per-node allocations here
/// would dominate its cost on small graphs). Empty result = cycle.
std::vector<int> forward_topo_order(const cg::ConstraintGraph& g) {
  const int n = g.vertex_count();
  std::vector<int> indegree(static_cast<std::size_t>(n), 0);
  for (const cg::Edge& e : g.edges()) {
    if (cg::is_forward(e.kind)) ++indegree[e.to.index()];
  }
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    if (indegree[static_cast<std::size_t>(v)] == 0) order.push_back(v);
  }
  // The order doubles as the work queue.
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (EdgeId eid : g.out_edges(VertexId(order[head]))) {
      const cg::Edge& e = g.edge(eid);
      if (!cg::is_forward(e.kind)) continue;
      if (--indegree[e.to.index()] == 0) order.push_back(e.to.value());
    }
  }
  if (static_cast<int>(order.size()) != n) order.clear();
  return order;
}

/// Shared malformed-input prechecks for check_schedule/check_products;
/// fills `topo` with the forward topological order on success.
std::optional<Diag> schedule_prechecks(const cg::ConstraintGraph& g,
                                       const sched::RelativeSchedule& schedule,
                                       std::vector<int>& topo) {
  if (schedule.vertex_count() != g.vertex_count()) {
    return schedule_violation(
        g, EdgeId::invalid(), VertexId::invalid(), 0, 1, "malformed",
        cat("schedule covers ", schedule.vertex_count(), " vertices, graph has ",
            g.vertex_count()));
  }
  topo = forward_topo_order(g);
  if (topo.empty() && g.vertex_count() > 0) {
    return schedule_violation(g, EdgeId::invalid(), VertexId::invalid(), 0, 1,
                              "malformed", "forward constraint graph is cyclic");
  }
  return std::nullopt;
}

/// check_schedule body with the topological order already computed, so
/// check_products can share one forward projection across all of its
/// passes (the certifier runs after every warm resolve; its constant
/// factors are part of the engine's latency budget).
Diag check_schedule_against(const cg::ConstraintGraph& g,
                            const sched::RelativeSchedule& schedule,
                            const std::vector<int>& topo) {
  // Zero-profile start times, evaluated independently of the scheduler
  // (and of RelativeSchedule::start_times): T0(v) = max(0, max over
  // tracked anchors of T0(a) + d0(a) + sigma_a(v)).
  std::vector<graph::Weight> t0(static_cast<std::size_t>(g.vertex_count()), 0);
  for (int node : topo) {
    const VertexId v(node);
    if (v == g.source()) continue;
    graph::Weight t = 0;
    for (const auto& [anchor, offset] : schedule.offsets(v).entries()) {
      t = std::max(t, t0[anchor.index()] + zero_profile_delay(g, anchor) +
                          offset);
    }
    t0[v.index()] = t;
  }

  for (const cg::Edge& e : g.edges()) {
    const cg::EdgeWeight w = g.weight(e.id);
    const VertexId t = e.from;
    const VertexId h = e.to;

    // Zero-profile numeric check. This covers the max(0, ...) floor of
    // the start-time recursion; the per-anchor inequalities below then
    // extend satisfaction to every other delay profile (start times are
    // monotone in every anchor delay).
    if (t0[h.index()] < t0[t.index()] + w.value) {
      return schedule_violation(
          g, e.id, VertexId::invalid(), t0[h.index()], t0[t.index()] + w.value,
          "zero-profile",
          cat("schedule violates edge '", vname(g, t), "' -> '", vname(g, h),
              "' at zero profile: T0(", vname(g, h), ")=", t0[h.index()],
              " < ", t0[t.index()] + w.value));
    }

    if (w.unbounded) {
      // Sequencing edge out of an anchor: T(h) >= T(t) + d(t) for every
      // d(t) iff h tracks t with a nonnegative offset.
      const auto sigma = offset_of(schedule.offsets(h), t);
      if (!sigma.has_value() || *sigma < 0) {
        return schedule_violation(
            g, e.id, t, sigma.value_or(graph::kNegInf), 0, "missing-anchor",
            cat("schedule drops the unbounded dependency '", vname(g, t),
                "' -> '", vname(g, h), "': ", offset_name(g, t, h),
                sigma.has_value() ? cat("=", *sigma, " < 0") : " is untracked"));
      }
      continue;
    }

    // Fixed-weight edge: every anchor term of T(t) must be dominated by
    // the corresponding term of T(h).
    for (const auto& [a, sigma_t] : schedule.offsets(t).entries()) {
      if (a == h) {
        // T(h) >= T(h) + d(h) + sigma_h(t) + w cannot hold for every
        // d(h): the anchor sits inside its own constraint window.
        return schedule_violation(
            g, e.id, a, 0, 1, "anchor-in-window",
            cat("edge '", vname(g, t), "' -> '", vname(g, h),
                "' constrains its own anchor '", vname(g, a),
                "': unsatisfiable for unbounded delays"));
      }
      const auto sigma_h = offset_of(schedule.offsets(h), a);
      if (!sigma_h.has_value()) {
        return schedule_violation(
            g, e.id, a, graph::kNegInf, sigma_t + w.value, "missing-anchor",
            cat("schedule violates edge '", vname(g, t), "' -> '", vname(g, h),
                "': ", offset_name(g, a, h), " is untracked but ",
                offset_name(g, a, t), "=", sigma_t));
      }
      if (*sigma_h < sigma_t + w.value) {
        return schedule_violation(
            g, e.id, a, *sigma_h, sigma_t + w.value, "offset",
            cat("schedule violates edge '", vname(g, t), "' -> '", vname(g, h),
                "' for anchor '", vname(g, a), "': ", offset_name(g, a, h),
                "=", *sigma_h, " < ", offset_name(g, a, t), "+w=",
                sigma_t + w.value));
      }
    }
  }
  return Diag{};
}

}  // namespace

Diag check_schedule(const cg::ConstraintGraph& g,
                    const sched::RelativeSchedule& schedule) {
  std::vector<int> topo;
  if (auto malformed = schedule_prechecks(g, schedule, topo)) {
    return *malformed;
  }
  return check_schedule_against(g, schedule, topo);
}

Diag check_products(const cg::ConstraintGraph& g,
                    const anchors::AnchorAnalysis& analysis,
                    const sched::RelativeSchedule& schedule) {
  std::vector<int> topo;
  if (auto malformed = schedule_prechecks(g, schedule, topo)) {
    return *malformed;
  }
  if (Diag d = check_schedule_against(g, schedule, topo); !d.ok()) return d;

  // Theorem 3 cross-check: a kFull-mode minimum schedule tracks exactly
  // A(v) at every vertex, with sigma_a(v) equal to the cone-restricted
  // longest path length(a, v). Checking the two independently derived
  // artifacts against each other catches corruption of either side
  // (stale offsets that stay feasible, truncated analysis rows).
  for (int vi = 0; vi < g.vertex_count(); ++vi) {
    const VertexId v(vi);
    const auto tracked = analysis.anchor_set(v);
    const auto& entries = schedule.offsets(v).entries();
    if (static_cast<int>(entries.size()) != tracked.size()) {
      return schedule_violation(
          g, EdgeId::invalid(), v, static_cast<graph::Weight>(entries.size()),
          static_cast<graph::Weight>(tracked.size()), "anchor-set",
          cat("vertex '", vname(g, v), "' tracks ", entries.size(),
              " anchors, analysis says |A(v)|=", tracked.size()));
    }
    for (const auto& [a, sigma] : entries) {
      if (!tracked.contains(a)) {
        return schedule_violation(
            g, EdgeId::invalid(), a, 0, 1, "anchor-set",
            cat("vertex '", vname(g, v), "' tracks '", vname(g, a),
                "' which is not in A(v)"));
      }
      const graph::Weight len = analysis.length(a, v);
      if (sigma != len) {
        return schedule_violation(
            g, EdgeId::invalid(), a, sigma, len, "theorem-3",
            cat("vertex '", vname(g, v), "': ", offset_name(g, a, v), "=",
                sigma, " but length(", vname(g, a), ", ", vname(g, v),
                ")=", len, " (Theorem 3)"));
      }
    }
  }

  // The Theorem-3 cross-check above only ties the two artifacts to each
  // other; a *consistently stale* (analysis, schedule) pair -- e.g. one
  // that missed a loosened max constraint -- satisfies every edge and
  // still matches. Pin the length cells to the graph itself with a
  // longest-path certificate: re-derive the anchor sets, then require
  // every cone cell to be finite, to dominate every cone edge into it
  // (len(h) >= len(t) + w) and, off the anchor, to be supported by a
  // tight in-edge. Dominance bounds the values from below and tightness
  // from above, so together with len(a, a) = 0 each anchor's cells are
  // the cone longest-path fixpoint the scheduler claims they are.
  // Cells exist only inside cones (a in A(v), or v == a), so once the
  // sets match the re-derived ones, nothing outside a cone can hold a
  // value, and the sweep costs O(cells + sum over edges of the cells at
  // both ends) instead of |A| passes over V and E.
  // Anchor-set dataflow over the shared topological order (same
  // recurrence as anchors::find_anchor_sets, re-derived here so the
  // certificate does not trust the analysis's own sets). Flat bitmask
  // rows, one bit per anchor: A(v) = union over forward in-edges (u, v)
  // of A(u), plus {u} when the edge weight is unbounded.
  const std::vector<VertexId>& anchor_list = analysis.anchors();
  if (anchor_list != g.anchors()) {
    return schedule_violation(
        g, EdgeId::invalid(), VertexId::invalid(), 0, 1, "anchor-set",
        "analysis anchor list disagrees with the graph's anchors");
  }
  const std::size_t n = static_cast<std::size_t>(g.vertex_count());
  const std::size_t words = (anchor_list.size() + 63) / 64;
  std::vector<int> anchor_pos(n, -1);
  for (std::size_t ai = 0; ai < anchor_list.size(); ++ai) {
    anchor_pos[anchor_list[ai].index()] = static_cast<int>(ai);
  }
  std::vector<std::uint64_t> masks(n * words, 0);
  const auto mask_of = [&](VertexId v) { return &masks[v.index() * words]; };
  for (int node : topo) {
    const VertexId v(node);
    std::uint64_t* row = mask_of(v);
    for (EdgeId eid : g.in_edges(v)) {
      const cg::Edge& e = g.edge(eid);
      if (!cg::is_forward(e.kind)) continue;
      const std::uint64_t* from = mask_of(e.from);
      for (std::size_t w = 0; w < words; ++w) row[w] |= from[w];
      if (g.weight(eid).unbounded) {
        const int pos = anchor_pos[e.from.index()];
        if (pos >= 0) {
          row[static_cast<std::size_t>(pos) / 64] |=
              std::uint64_t{1} << (static_cast<std::size_t>(pos) % 64);
        }
      }
    }
  }
  for (std::size_t vi = 0; vi < n; ++vi) {
    const VertexId v(static_cast<int>(vi));
    const std::uint64_t* row = mask_of(v);
    int popcount = 0;
    for (std::size_t w = 0; w < words; ++w) {
      popcount += std::popcount(row[w]);
    }
    const auto claimed = analysis.anchor_set(v);
    bool match = popcount == claimed.size();
    for (VertexId a : claimed) {
      const int pos = anchor_pos[a.index()];
      match = match && pos >= 0 &&
              (row[static_cast<std::size_t>(pos) / 64] >>
                   (static_cast<std::size_t>(pos) % 64) &
               1) != 0;
    }
    if (!match) {
      return schedule_violation(
          g, EdgeId::invalid(), v, 0, 1, "anchor-set",
          cat("analysis anchor set of '", vname(g, v),
              "' disagrees with the sets derived from the graph"));
    }
  }
  for (const VertexId a : anchor_list) {
    const graph::Weight self = analysis.length(a, a);
    if (self != 0) {
      return schedule_violation(
          g, EdgeId::invalid(), a, self, 0, "length-row",
          cat("length(", vname(g, a), ", ", vname(g, a), ")=", self,
              ", expected 0"));
    }
  }
  // Dominance of one cone edge e = (t, h) in anchor a's cells.
  const auto dominance_violation = [&](EdgeId eid, VertexId a,
                                       graph::Weight len, graph::Weight bound) {
    const cg::Edge& e = g.edge(eid);
    return schedule_violation(
        g, eid, a, len, bound, "length-row",
        cat("length(", vname(g, a), ", ", vname(g, e.to), ")=", len,
            " < length(", vname(g, a), ", ", vname(g, e.from), ")+w=", bound,
            " (row misses cone edge '", vname(g, e.from), "' -> '",
            vname(g, e.to), "')"));
  };
  std::vector<char> supported;
  for (std::size_t vi = 0; vi < n; ++vi) {
    const VertexId v(static_cast<int>(vi));
    const anchors::AnchorCells cells = analysis.lengths_at(v);
    for (const auto [a, len] : cells) {
      if (len == graph::kNegInf) {
        return schedule_violation(
            g, EdgeId::invalid(), v, graph::kNegInf, 0, "length-row",
            cat("cone vertex '", vname(g, v), "' is unreachable in the "
                "length row of '", vname(g, a), "'"));
      }
    }
    // Each in-edge (u, v): v's cells in step, u's through a cursor. An
    // anchor outside A(u) reads kNegInf there, so its bound never binds
    // (the edge is not in that anchor's cone); a == u is the edge out
    // of the anchor itself, whose own cell is 0.
    supported.assign(static_cast<std::size_t>(cells.set().size()), 0);
    for (EdgeId eid : g.in_edges(v)) {
      const VertexId u = g.edge(eid).from;
      const graph::Weight w = g.weight(eid).value;
      anchors::AnchorCellCursor tail(analysis.lengths_at(u));
      std::size_t k = 0;
      for (const auto [a, len] : cells) {
        const graph::Weight bound =
            graph::saturating_add(a == u ? 0 : tail.value(a), w);
        if (len < bound) return dominance_violation(eid, a, len, bound);
        if (len == bound) supported[k] = 1;
        ++k;
      }
      // An edge from v's own cone back into the anchor v.
      if (anchor_pos[v.index()] >= 0 && u != v) {
        const graph::Weight bound =
            graph::saturating_add(analysis.length(v, u), w);
        if (0 < bound) return dominance_violation(eid, v, 0, bound);
      }
    }
    std::size_t k = 0;
    for (const auto [a, len] : cells) {
      if (supported[k++] == 0) {
        return schedule_violation(
            g, EdgeId::invalid(), v, len, graph::kNegInf, "length-row",
            cat("length(", vname(g, a), ", ", vname(g, v), ")=", len,
                " is not realized by any cone in-edge (stale row?)"));
      }
    }
  }
  return check_irredundant(g, analysis);
}

Diag check_irredundant(const cg::ConstraintGraph& g,
                       const anchors::AnchorAnalysis& analysis) {
  const auto irredundant_diag = [&](std::string message) {
    Diag d;
    d.code = Code::kIrredundantSet;
    d.message = std::move(message);
    return d;
  };
  for (int vi = 0; vi < g.vertex_count(); ++vi) {
    const VertexId v(vi);
    const auto full = analysis.anchor_set(v);
    const auto kept = analysis.irredundant_set(v);
    if (const VertexId stray = kept.first_missing_in(full); stray.is_valid()) {
      return irredundant_diag(cat("IR(", vname(g, v), ") holds '",
                                  vname(g, stray), "', which is not in A(",
                                  vname(g, v), ")"));
    }
    const auto relevant = analysis.relevant_set(v);
    anchors::AnchorCellCursor defining(analysis.defining_at(v));
    for (const auto [a, direct] : analysis.lengths_at(v)) {
      // A witness that `a` can be dropped: no defining path reaches v
      // (a is irrelevant), or a relevant anchor r that a reaches at
      // least as late through r as directly (a is redundant).
      const bool irrelevant = defining.value(a) == graph::kNegInf;
      VertexId via = VertexId::invalid();
      if (!irrelevant) {
        for (VertexId r : relevant) {
          if (r == a || !analysis.anchor_set(r).contains(a)) continue;
          const graph::Weight to_r = analysis.length(a, r);
          const graph::Weight from_r = analysis.length(r, v);
          if (to_r != graph::kNegInf && from_r != graph::kNegInf &&
              to_r + from_r >= direct) {
            via = r;
            break;
          }
        }
      }
      const bool droppable = irrelevant || via.is_valid();
      if (kept.contains(a) && droppable) {
        return irredundant_diag(
            irrelevant
                ? cat("IR(", vname(g, v), ") keeps '", vname(g, a),
                      "', which has no defining path to '", vname(g, v), "'")
                : cat("IR(", vname(g, v), ") keeps '", vname(g, a),
                      "', which is redundant through '", vname(g, via),
                      "' (length(", vname(g, a), ", ", vname(g, via),
                      ") + length(", vname(g, via), ", ", vname(g, v),
                      ") >= length(", vname(g, a), ", ", vname(g, v), "))"));
      }
      if (!kept.contains(a) && !droppable) {
        return irredundant_diag(cat("IR(", vname(g, v), ") drops '",
                                    vname(g, a),
                                    "', which is neither irrelevant nor "
                                    "redundant through any relevant anchor"));
      }
    }
  }
  return Diag{};
}

namespace {

void append_json_field(std::string& out, const char* key,
                       std::string_view value, bool quote = true) {
  out += '"';
  out += key;
  out += "\":";
  if (quote) {
    base::append_json_string(out, value);
  } else {
    out += value;
  }
}

std::string edge_json(const cg::ConstraintGraph& g, EdgeId eid) {
  const cg::Edge& e = g.edge(eid);
  const cg::EdgeWeight w = g.weight(eid);
  std::string out = "{";
  append_json_field(out, "id", cat(e.id.value()), false);
  out += ',';
  append_json_field(out, "from", g.vertex(e.from).name);
  out += ',';
  append_json_field(out, "to", g.vertex(e.to).name);
  out += ',';
  append_json_field(out, "weight", cat(w.value), false);
  out += ',';
  append_json_field(out, "unbounded", w.unbounded ? "true" : "false", false);
  out += '}';
  return out;
}

std::string path_json(const cg::ConstraintGraph& g,
                      const std::vector<EdgeId>& path) {
  std::string out = "[";
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out += ',';
    out += edge_json(g, path[i]);
  }
  out += ']';
  return out;
}

std::string path_text(const cg::ConstraintGraph& g,
                      const std::vector<EdgeId>& path, VertexId start) {
  std::string out(g.vertex(start).name);
  for (EdgeId eid : path) {
    const cg::EdgeWeight w = g.weight(eid);
    out += cat(" -(", w.unbounded ? std::string("delta") : cat(w.value),
               ")-> ", g.vertex(g.edge(eid).to).name);
  }
  return out;
}

}  // namespace

std::string render(const Diag& diag, const cg::ConstraintGraph& g) {
  std::string out = cat("[", to_string(diag.code), "] ", diag.message);
  if (const auto* w = std::get_if<CycleWitness>(&diag.witness)) {
    if (!w->edges.empty()) {
      out += cat("\n  cycle (weight +", w->total,
                 "): ", path_text(g, w->edges, g.edge(w->edges.front()).from));
    }
  } else if (const auto* cw = std::get_if<ContainmentWitness>(&diag.witness)) {
    if (valid_edge(g, cw->backward_edge)) {
      const cg::Edge& e = g.edge(cw->backward_edge);
      out += cat("\n  backward edge: '", vname(g, e.from), "' -> '",
                 vname(g, e.to), "' (weight ", e.fixed_weight, ")");
      out += cat("\n  defining path of anchor '", vname(g, cw->anchor),
                 "': ", path_text(g, cw->path, cw->anchor));
    }
  } else if (const auto* uw =
                 std::get_if<UnboundedCycleWitness>(&diag.witness)) {
    if (valid_edge(g, uw->backward_edge)) {
      const cg::Edge& e = g.edge(uw->backward_edge);
      out += cat("\n  blocked serialization: '", vname(g, uw->anchor),
                 "' -> '", vname(g, e.to), "'");
      out += cat("\n  existing forward path: ",
                 path_text(g, uw->path, e.to));
    }
  } else if (const auto* sw =
                 std::get_if<ScheduleViolationWitness>(&diag.witness)) {
    out += cat("\n  violated inequality: ", sw->lhs, " >= ", sw->rhs,
               " (", sw->detail, ")");
  }
  return out;
}

std::string to_json(const Diag& diag, const cg::ConstraintGraph& g) {
  std::string out = "{";
  append_json_field(out, "code", to_string(diag.code));
  out += ',';
  append_json_field(out, "message", diag.message);
  if (const auto* w = std::get_if<CycleWitness>(&diag.witness)) {
    out += ',';
    append_json_field(out, "witness", "", false);
    out += cat("{\"kind\":\"cycle\",\"total\":", w->total,
               ",\"edges\":", path_json(g, w->edges), "}");
  } else if (const auto* cw = std::get_if<ContainmentWitness>(&diag.witness)) {
    out += ',';
    append_json_field(out, "witness", "", false);
    out += "{\"kind\":\"containment\",";
    append_json_field(out, "anchor", g.vertex(cw->anchor).name);
    out += cat(",\"backward_edge\":", edge_json(g, cw->backward_edge),
               ",\"defining_path\":", path_json(g, cw->path), "}");
  } else if (const auto* uw =
                 std::get_if<UnboundedCycleWitness>(&diag.witness)) {
    out += ',';
    append_json_field(out, "witness", "", false);
    out += "{\"kind\":\"unbounded-cycle\",";
    append_json_field(out, "anchor", g.vertex(uw->anchor).name);
    out += cat(",\"backward_edge\":", edge_json(g, uw->backward_edge),
               ",\"path\":", path_json(g, uw->path), "}");
  } else if (const auto* sw =
                 std::get_if<ScheduleViolationWitness>(&diag.witness)) {
    out += ',';
    append_json_field(out, "witness", "", false);
    out += "{\"kind\":\"schedule-violation\",";
    append_json_field(out, "detail", sw->detail);
    out += cat(",\"lhs\":", sw->lhs, ",\"rhs\":", sw->rhs);
    if (sw->edge.is_valid() && valid_edge(g, sw->edge)) {
      out += cat(",\"edge\":", edge_json(g, sw->edge));
    }
    if (sw->anchor.is_valid() &&
        sw->anchor.index() < static_cast<std::size_t>(g.vertex_count())) {
      out += ',';
      append_json_field(out, "anchor", g.vertex(sw->anchor).name);
    }
    out += '}';
  }
  out += '}';
  return out;
}

}  // namespace relsched::certify
