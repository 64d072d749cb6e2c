// Pre-refactor reference implementations, kept as independent oracles.
//
// The anchor analysis: the SmallSet-and-vector algorithms the anchors
// library shipped before the struct-of-arrays/bitset refactor, kept
// verbatim: property_generator.cpp recomputes every analysis product
// with them and requires the production BitMatrix implementation to
// match bit for bit on generated designs. They are deliberately naive
// -- O(|A| * |V|) sets, per-anchor Bellman-Ford -- and must stay that
// way: an oracle sharing the production layout would share its bugs.
//
// The `.cg` text parser: the istringstream-per-line parser cg::from_text
// replaced, kept for fuzz_graph_text.cpp's differential check.
//
// Test-only; never linked into the library.
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "base/error.hpp"
#include "base/small_set.hpp"
#include "base/strings.hpp"
#include "cg/constraint_graph.hpp"
#include "cg/graph_io.hpp"
#include "graph/algorithms.hpp"

namespace relsched::testing::oracle {

using AnchorSet = SmallSet<VertexId>;

/// findAnchorSet (paper §IV-A): dataflow in topological order; A(v) is
/// the union over forward in-edges (u, v) of A(u), plus {u} when the
/// edge carries the unbounded weight delta(u).
inline std::vector<AnchorSet> find_anchor_sets(const cg::ConstraintGraph& g) {
  const graph::Digraph forward = g.project_forward();
  const auto topo = graph::topological_order(forward);
  RELSCHED_CHECK(topo.has_value(), "oracle requires an acyclic Gf");

  std::vector<AnchorSet> sets(static_cast<std::size_t>(g.vertex_count()));
  for (int node : *topo) {
    const VertexId v(node);
    for (EdgeId eid : g.in_edges(v)) {
      const cg::Edge& e = g.edge(eid);
      if (!cg::is_forward(e.kind)) continue;
      sets[v.index()].merge(sets[e.from.index()]);
      if (g.weight(eid).unbounded) sets[v.index()].insert(e.from);
    }
  }
  return sets;
}

/// relevantAnchor (paper §IV-D): from each anchor, follow its unbounded
/// out-edges once, then propagate along bounded-weight edges of the
/// full graph, adding the anchor to R(v) of every vertex visited.
inline std::vector<AnchorSet> relevant_sets(const cg::ConstraintGraph& g) {
  std::vector<AnchorSet> relevant(static_cast<std::size_t>(g.vertex_count()));
  for (VertexId anchor : g.anchors()) {
    std::vector<bool> traversed(static_cast<std::size_t>(g.vertex_count()),
                                false);
    std::vector<VertexId> stack;
    for (EdgeId eid : g.out_edges(anchor)) {
      if (g.weight(eid).unbounded) stack.push_back(g.edge(eid).to);
    }
    traversed[anchor.index()] = true;
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      if (traversed[v.index()]) continue;
      traversed[v.index()] = true;
      relevant[v.index()].insert(anchor);
      for (EdgeId eid : g.out_edges(v)) {
        if (g.weight(eid).unbounded) continue;
        stack.push_back(g.edge(eid).to);
      }
    }
  }
  return relevant;
}

/// Cone-restricted longest paths from `anchor` (Theorem 3): longest
/// paths within the subgraph induced by {anchor} union
/// {v : anchor in A(v)}, unbounded weights 0; kNegInf outside the cone.
inline std::vector<graph::Weight> cone_longest_paths(
    const cg::ConstraintGraph& g, VertexId anchor,
    const std::vector<AnchorSet>& anchor_sets) {
  const int n = g.vertex_count();
  std::vector<int> cone_index(static_cast<std::size_t>(n), -1);
  std::vector<VertexId> cone_vertices;
  for (int vi = 0; vi < n; ++vi) {
    const VertexId v(vi);
    if (v == anchor || anchor_sets[v.index()].contains(anchor)) {
      cone_index[v.index()] = static_cast<int>(cone_vertices.size());
      cone_vertices.push_back(v);
    }
  }
  graph::Digraph cone(static_cast<int>(cone_vertices.size()));
  for (const cg::Edge& e : g.edges()) {
    const int from = cone_index[e.from.index()];
    const int to = cone_index[e.to.index()];
    if (from < 0 || to < 0) continue;
    cone.add_arc(from, to, g.weight(e.id).value);
  }
  auto lp = graph::longest_paths_from(cone, cone_index[anchor.index()]);
  RELSCHED_CHECK(!lp.positive_cycle, "oracle requires a feasible graph");
  std::vector<graph::Weight> dist(static_cast<std::size_t>(n),
                                  graph::kNegInf);
  for (std::size_t i = 0; i < cone_vertices.size(); ++i) {
    dist[cone_vertices[i].index()] = lp.dist[i];
  }
  return dist;
}

/// Maximal defining-path lengths from `anchor` (Definition 8):
/// Bellman-Ford on the bounded-edge subgraph, seeded at the heads of
/// the anchor's unbounded out-edges with distance 0.
inline std::vector<graph::Weight> defining_path_lengths(
    const cg::ConstraintGraph& g, VertexId anchor) {
  const int n = g.vertex_count();
  std::vector<graph::Weight> dist(static_cast<std::size_t>(n),
                                  graph::kNegInf);
  for (EdgeId eid : g.out_edges(anchor)) {
    if (g.weight(eid).unbounded) {
      dist[g.edge(eid).to.index()] =
          std::max<graph::Weight>(dist[g.edge(eid).to.index()], 0);
    }
  }
  for (int pass = 0; pass < n; ++pass) {
    bool changed = false;
    for (const cg::Edge& e : g.edges()) {
      if (e.from == anchor) continue;
      const cg::EdgeWeight w = g.weight(e.id);
      if (w.unbounded) continue;
      const graph::Weight candidate =
          graph::saturating_add(dist[e.from.index()], w.value);
      if (candidate > dist[e.to.index()]) {
        dist[e.to.index()] = candidate;
        changed = true;
      }
    }
    if (!changed) break;
  }
  dist[anchor.index()] = graph::kNegInf;
  return dist;
}

/// The whole reference analysis for one graph: every product the
/// production AnchorAnalysis::compute() derives, via the pre-refactor
/// algorithms.
struct Analysis {
  std::vector<VertexId> anchors;
  std::vector<AnchorSet> anchor_sets;
  std::vector<AnchorSet> relevant;
  std::vector<AnchorSet> irredundant;
  /// Per anchor (indexed like `anchors`): cone-restricted longest
  /// paths (== length(a, v)) and maximal defining-path lengths.
  std::vector<std::vector<graph::Weight>> length_rows;
  std::vector<std::vector<graph::Weight>> defining_rows;
};

/// minimumAnchor (paper §IV-D): x in R(v) is redundant if some relevant
/// anchor r in R(v) with x in A(r) satisfies
///   length(x, v) <= length(x, r) + length(r, v).
inline Analysis compute(const cg::ConstraintGraph& g) {
  Analysis a;
  a.anchors = g.anchors();
  a.anchor_sets = find_anchor_sets(g);
  a.relevant = relevant_sets(g);
  std::vector<int> anchor_pos(static_cast<std::size_t>(g.vertex_count()), -1);
  for (std::size_t i = 0; i < a.anchors.size(); ++i) {
    anchor_pos[a.anchors[i].index()] = static_cast<int>(i);
    a.length_rows.push_back(cone_longest_paths(g, a.anchors[i], a.anchor_sets));
    a.defining_rows.push_back(defining_path_lengths(g, a.anchors[i]));
  }
  const auto length = [&](VertexId anchor, VertexId v) {
    return a.length_rows[static_cast<std::size_t>(anchor_pos[anchor.index()])]
                        [v.index()];
  };
  a.irredundant.resize(static_cast<std::size_t>(g.vertex_count()));
  for (int vi = 0; vi < g.vertex_count(); ++vi) {
    const VertexId v(vi);
    for (VertexId x : a.relevant[v.index()]) {
      bool redundant = false;
      for (VertexId r : a.relevant[v.index()]) {
        if (r == x) continue;
        if (!a.anchor_sets[r.index()].contains(x)) continue;
        if (length(x, r) == graph::kNegInf ||
            length(r, v) == graph::kNegInf) {
          continue;
        }
        if (length(x, v) <= length(x, r) + length(r, v)) {
          redundant = true;
          break;
        }
      }
      if (!redundant) a.irredundant[v.index()].insert(x);
    }
  }
  return a;
}

/// The `.cg` text parser before the single-pass rewrite: one
/// istringstream per line, `>>` tokens, a std::map name table. It reads
/// numbers leniently (`std::stoi` and `>>` parse a prefix, so `3x` is 3)
/// and lets the edit API's exception escape on a self loop; callers
/// compare it with cg::from_text only where neither matters.
inline cg::ParseResult from_text(std::string_view text) {
  cg::ParseResult result;
  std::optional<cg::ConstraintGraph> graph;
  std::map<std::string, VertexId, std::less<>> names;

  std::istringstream in{std::string(text)};
  std::string line;
  int line_no = 0;
  const auto fail = [&](const std::string& message) {
    result.graph.reset();
    result.error = cat("line ", line_no, ": ", message);
    return result;
  };

  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string keyword;
    if (!(ls >> keyword)) continue;  // blank line

    if (keyword == "graph") {
      std::string name;
      if (!(ls >> name)) return fail("expected graph name");
      if (graph.has_value()) return fail("duplicate 'graph' line");
      graph.emplace(name);
      continue;
    }
    if (!graph.has_value()) return fail("missing 'graph' header");

    if (keyword == "vertex") {
      std::string name, delay;
      if (!(ls >> name >> delay)) return fail("expected: vertex <name> <delay>");
      if (names.count(name) != 0) return fail(cat("duplicate vertex '", name, "'"));
      cg::Delay d = cg::Delay::unbounded();
      if (delay != "unbounded") {
        try {
          const int cycles = std::stoi(delay);
          if (cycles < 0) return fail("delay must be >= 0");
          d = cg::Delay::bounded(cycles);
        } catch (const std::exception&) {
          return fail(cat("bad delay '", delay, "'"));
        }
      }
      names[name] = graph->add_vertex(name, d);
      continue;
    }

    std::string from, to;
    if (!(ls >> from >> to)) return fail("expected two vertex names");
    const auto fi = names.find(from);
    const auto ti = names.find(to);
    if (fi == names.end()) return fail(cat("unknown vertex '", from, "'"));
    if (ti == names.end()) return fail(cat("unknown vertex '", to, "'"));

    if (keyword == "seq") {
      graph->add_sequencing_edge(fi->second, ti->second);
    } else if (keyword == "min" || keyword == "max") {
      int cycles = 0;
      if (!(ls >> cycles)) return fail("expected a cycle count");
      if (cycles < 0) return fail("constraint must be >= 0");
      if (keyword == "min") {
        graph->add_min_constraint(fi->second, ti->second, cycles);
      } else {
        graph->add_max_constraint(fi->second, ti->second, cycles);
      }
    } else {
      return fail(cat("unknown keyword '", keyword, "'"));
    }
  }
  if (!graph.has_value()) return fail("empty input");
  result.graph = std::move(graph);
  return result;
}

}  // namespace relsched::testing::oracle
