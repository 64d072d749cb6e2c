#include "wellposed/wellposed.hpp"

#include <vector>

#include "base/error.hpp"
#include "base/strings.hpp"
#include "graph/algorithms.hpp"

namespace relsched::wellposed {

const char* to_string(Status status) {
  switch (status) {
    case Status::kWellPosed:
      return "well-posed";
    case Status::kIllPosed:
      return "ill-posed";
    case Status::kInfeasible:
      return "infeasible";
  }
  return "?";
}

bool is_feasible(const cg::ConstraintGraph& g, base::Watchdog* watchdog) {
  const graph::Digraph full = g.project_full();
  const graph::LongestPaths lp =
      graph::longest_paths_from(full, g.source().value(), watchdog);
  return !lp.aborted && !lp.positive_cycle;
}

bool is_feasible_incremental(const cg::ConstraintGraph& g,
                             std::vector<graph::Weight>& potentials,
                             std::span<const VertexId> dirty,
                             SpfaWorkspace& ws, base::Watchdog* watchdog) {
  const int n = g.vertex_count();
  RELSCHED_CHECK(static_cast<int>(potentials.size()) == n,
                 "potentials out of sync with the graph");
  // Scrub only what the previous run touched: every entry it modified
  // belongs to a vertex it enqueued, and those are exactly the queue's
  // contents (the queue is never shrunk mid-run).
  if (static_cast<int>(ws.enqueued.size()) < n) {
    ws.enqueued.resize(static_cast<std::size_t>(n), 0);
    ws.in_queue.resize(static_cast<std::size_t>(n), 0);
  }
  for (const VertexId v : ws.queue) {
    ws.enqueued[v.index()] = 0;
    ws.in_queue[v.index()] = 0;
  }
  ws.queue.assign(dirty.begin(), dirty.end());
  // SPFA-style label correction with a FIFO queue. Old edges are
  // satisfied by `potentials`, so only edges out of dirty vertices can
  // be violated initially; every later violation has a tail we raised.
  // With FIFO order, a vertex enqueued more than n times lies on a
  // positive cycle (and any positive cycle keeps raising its vertices
  // forever), so the counter is an exact detector.
  for (const VertexId v : dirty) {
    ws.in_queue[v.index()] = 1;
    ws.enqueued[v.index()] = 1;
  }
  for (std::size_t head = 0; head < ws.queue.size(); ++head) {
    if (watchdog != nullptr && watchdog->charge()) return false;
    const VertexId v = ws.queue[head];
    ws.in_queue[v.index()] = 0;
    for (EdgeId eid : g.out_edges(v)) {
      const cg::Edge& e = g.edge(eid);
      const graph::Weight candidate =
          graph::saturating_add(potentials[v.index()], g.weight(eid).value);
      if (candidate <= potentials[e.to.index()]) continue;
      potentials[e.to.index()] = candidate;
      if (ws.in_queue[e.to.index()] != 0) continue;
      if (++ws.enqueued[e.to.index()] > n) return false;
      ws.in_queue[e.to.index()] = 1;
      ws.queue.push_back(e.to);
    }
  }
  return true;
}

bool is_feasible_incremental(const cg::ConstraintGraph& g,
                             std::vector<graph::Weight>& potentials,
                             std::span<const VertexId> dirty,
                             base::Watchdog* watchdog) {
  SpfaWorkspace ws;
  return is_feasible_incremental(g, potentials, dirty, ws, watchdog);
}

namespace {

CheckResult ill_posed_at(const cg::ConstraintGraph& g, const cg::Edge& e,
                         const anchors::AnchorSets& anchor_sets) {
  CheckResult result{
      Status::kIllPosed, e.id,
      cat("max constraint between '", g.vertex(e.to).name, "' and '",
          g.vertex(e.from).name, "': A(", g.vertex(e.from).name,
          ") not contained in A(", g.vertex(e.to).name, ")"),
      certify::Diag{}};
  // Witness: the smallest-id counterexample anchor a in A(tail) \
  // A(head) with its defining path. The anchor sets handed in may be
  // stale or corrupted (the engine feeds incrementally patched ones); a
  // wrong claim produces a witness certify::verify_witness rejects,
  // which is exactly the signal the engine's certification path needs.
  const VertexId missing =
      anchor_sets.view(e.from).first_missing_in(anchor_sets.view(e.to));
  if (missing.is_valid()) {
    result.diag = certify::make_containment_diag(g, e.id, missing);
  } else {
    result.diag.code = certify::Code::kContainment;
    result.diag.message = result.message;
  }
  return result;
}

CheckResult infeasible_result(const cg::ConstraintGraph& g) {
  CheckResult result{Status::kInfeasible, EdgeId::invalid(),
                     "positive cycle with unbounded delays set to 0",
                     certify::Diag{}};
  result.diag = certify::find_positive_cycle(g);
  return result;
}

}  // namespace

CheckResult check(const cg::ConstraintGraph& g) {
  return check(g, anchors::find_anchor_sets(g));
}

CheckResult check(const cg::ConstraintGraph& g,
                  const anchors::AnchorSets& anchor_sets) {
  if (!is_feasible(g)) return infeasible_result(g);
  // Theorem 2 requires A(tail) subset-of A(head) for every edge; forward
  // edges satisfy it by the definition of anchor sets, so only backward
  // edges need checking (paper's checkWellposed). The backward index is
  // ascending, so the first violation found matches an id-order scan of
  // all edges.
  for (EdgeId eid : g.backward_edges()) {
    const cg::Edge& e = g.edge(eid);
    if (!anchor_sets.view(e.from).is_subset_of(anchor_sets.view(e.to))) {
      return ill_posed_at(g, e, anchor_sets);
    }
  }
  return CheckResult{Status::kWellPosed, EdgeId::invalid(), "", certify::Diag{}};
}

CheckResult recheck(const cg::ConstraintGraph& g,
                    const anchors::AnchorSets& anchor_sets,
                    const base::VertexMask& affected) {
  for (EdgeId eid : g.backward_edges()) {
    const cg::Edge& e = g.edge(eid);
    // A(v) only changes for affected vertices, and the pre-edit graph
    // was well-posed, so containment can only break where an endpoint
    // is affected.
    if (!affected.contains(e.from) && !affected.contains(e.to)) continue;
    if (!anchor_sets.view(e.from).is_subset_of(anchor_sets.view(e.to))) {
      return ill_posed_at(g, e, anchor_sets);
    }
  }
  return CheckResult{Status::kWellPosed, EdgeId::invalid(), "", certify::Diag{}};
}

MakeWellposedResult make_wellposed(cg::ConstraintGraph& g) {
  MakeWellposedResult result;
  if (!is_feasible(g)) {
    result.status = Status::kInfeasible;
    result.message = "constraint graph is infeasible";
    result.diag = certify::find_positive_cycle(g);
    return result;
  }
  // Basis for the pruning pass, and for the transactional rollback on
  // failure: `g` is restored to this copy before any failing return.
  const cg::ConstraintGraph original = g;

  // Reachability in the *current* forward graph (edges added mid-pass
  // must be visible to the cycle check).
  const auto forward_reaches = [&g](VertexId from, VertexId to) {
    std::vector<bool> seen(static_cast<std::size_t>(g.vertex_count()), false);
    std::vector<VertexId> stack{from};
    seen[from.index()] = true;
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      if (v == to) return true;
      for (EdgeId eid : g.out_edges(v)) {
        const cg::Edge& e = g.edge(eid);
        if (!cg::is_forward(e.kind)) continue;
        if (!seen[e.to.index()]) {
          seen[e.to.index()] = true;
          stack.push_back(e.to);
        }
      }
    }
    return false;
  };

  // Fixed point over backward edges. Each pass either adds at least one
  // serializing edge or terminates; additions are bounded by |A|*|V|.
  for (;;) {
    const auto anchor_sets = anchors::find_anchor_sets(g);
    bool changed = false;

    for (int ei = 0; ei < g.edge_count(); ++ei) {
      const cg::Edge e = g.edge(EdgeId(ei));
      if (cg::is_forward(e.kind)) continue;
      const VertexId tail = e.from;
      const VertexId head = e.to;
      // Anchors present at the tail but missing at the head must be
      // serialized before the head (paper's addEdge).
      std::vector<VertexId> missing;
      const auto head_set = anchor_sets.view(head);
      for (VertexId a : anchor_sets.view(tail)) {
        if (!head_set.contains(a)) missing.push_back(a);
      }
      for (VertexId a : missing) {
        if (a == head) {
          // The head itself is an unbounded anchor feeding the tail
          // (Fig 3(a)): the unbounded delay sits inside the constrained
          // window; no serialization can fix it.
          result.status = Status::kIllPosed;
          result.message =
              cat("anchor '", g.vertex(a).name,
                  "' lies on a path inside a maximum timing constraint");
          // Build the witness against the mutated graph (its defining
          // path may use serializing edges added this call), THEN roll
          // back. `result.added_edges` lets callers re-apply those
          // edges -- sequencing edges append deterministically, so the
          // witness's edge ids reproduce exactly.
          result.diag = certify::make_containment_diag(g, e.id, a);
          g = original;
          return result;
        }
        // Adding a -> head must not close a cycle in Gf: if head already
        // reaches a, the graph has an unbounded-length cycle (Lemma 3).
        if (forward_reaches(head, a)) {
          result.status = Status::kIllPosed;
          result.message = cat("serializing '", g.vertex(a).name, "' -> '",
                               g.vertex(head).name,
                               "' would create an unbounded-length cycle");
          result.diag = certify::make_unbounded_cycle_diag(g, e.id, a);
          g = original;
          return result;
        }
        g.add_sequencing_edge(a, head);
        result.added_edges.emplace_back(a, head);
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Pruning pass: a batch repair works from anchor sets computed at the
  // start of its sweep, so an edge added early in a sweep can be
  // subsumed by a later one. Drop every added edge whose removal keeps
  // the graph well-posed -- each surviving serialization is then
  // genuinely necessary (strong minimality; a redundant serialization
  // would delay operations under some delay profile).
  if (result.added_edges.size() > 1) {
    std::vector<std::pair<VertexId, VertexId>> kept = result.added_edges;
    for (std::size_t i = 0; i < kept.size();) {
      cg::ConstraintGraph candidate = original;
      for (std::size_t j = 0; j < kept.size(); ++j) {
        if (j == i) continue;
        candidate.add_sequencing_edge(kept[j].first, kept[j].second);
      }
      if (check(candidate).status == Status::kWellPosed) {
        kept.erase(kept.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    if (kept.size() != result.added_edges.size()) {
      g = original;
      for (const auto& [from, to] : kept) g.add_sequencing_edge(from, to);
      result.added_edges = std::move(kept);
    }
  }

  result.status = Status::kWellPosed;
  return result;
}

}  // namespace relsched::wellposed
