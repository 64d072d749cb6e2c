#include "cg/constraint_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "base/error.hpp"
#include "feasibility_cases.hpp"
#include "testutil.hpp"

namespace relsched::cg {
namespace {

using relsched::testing::Fig2Graph;

TEST(Delay, BoundedAndUnbounded) {
  EXPECT_TRUE(Delay::unbounded().is_unbounded());
  EXPECT_FALSE(Delay::bounded(3).is_unbounded());
  EXPECT_EQ(Delay::bounded(3).cycles(), 3);
  EXPECT_EQ(Delay::unbounded().cycles_or_zero(), 0);
  EXPECT_EQ(Delay::bounded(7).cycles_or_zero(), 7);
  EXPECT_THROW(Delay::bounded(-1), ApiError);
  EXPECT_THROW((void)Delay::unbounded().cycles(), ApiError);
}

TEST(ConstraintGraph, SourceIsFirstVertexAndAlwaysAnchor) {
  ConstraintGraph g;
  const VertexId v0 = g.add_vertex("v0", Delay::bounded(0));
  const VertexId v1 = g.add_vertex("v1", Delay::bounded(2));
  g.add_sequencing_edge(v0, v1);
  EXPECT_EQ(g.source(), v0);
  EXPECT_TRUE(g.is_anchor(v0));
  EXPECT_FALSE(g.is_anchor(v1));
  // Outgoing sequencing edges of the source carry unbounded weight.
  EXPECT_TRUE(g.weight(*g.out_edges(v0).begin()).unbounded);
}

TEST(ConstraintGraph, SequencingWeightIsTailDelay) {
  ConstraintGraph g;
  const VertexId v0 = g.add_vertex("v0", Delay::bounded(0));
  const VertexId v1 = g.add_vertex("v1", Delay::bounded(3));
  const VertexId v2 = g.add_vertex("v2", Delay::bounded(0));
  g.add_sequencing_edge(v0, v1);
  const EdgeId e12 = g.add_sequencing_edge(v1, v2);
  EXPECT_EQ(g.weight(e12).value, 3);
  EXPECT_FALSE(g.weight(e12).unbounded);
  // set_delay must be visible through existing edges (no stale weights).
  g.set_delay(v1, Delay::bounded(9));
  EXPECT_EQ(g.weight(e12).value, 9);
  g.set_delay(v1, Delay::unbounded());
  EXPECT_TRUE(g.weight(e12).unbounded);
  EXPECT_TRUE(g.is_anchor(v1));
}

TEST(ConstraintGraph, MaxConstraintBecomesBackwardEdge) {
  ConstraintGraph g;
  const VertexId v0 = g.add_vertex("v0", Delay::bounded(0));
  const VertexId v1 = g.add_vertex("v1", Delay::bounded(1));
  g.add_sequencing_edge(v0, v1);
  const EdgeId e = g.add_max_constraint(v0, v1, 5);
  EXPECT_EQ(g.edge(e).from, v1);  // backward: (to, from)
  EXPECT_EQ(g.edge(e).to, v0);
  EXPECT_EQ(g.weight(e).value, -5);
  EXPECT_EQ(g.backward_edge_count(), 1);
}

TEST(ConstraintGraph, MinConstraintIsForwardFixedWeight) {
  ConstraintGraph g;
  const VertexId v0 = g.add_vertex("v0", Delay::bounded(0));
  const VertexId v1 = g.add_vertex("v1", Delay::bounded(1));
  g.add_sequencing_edge(v0, v1);
  const EdgeId e = g.add_min_constraint(v0, v1, 4);
  EXPECT_EQ(g.edge(e).from, v0);
  EXPECT_EQ(g.weight(e).value, 4);
  EXPECT_TRUE(is_forward(g.edge(e).kind));
}

TEST(ConstraintGraph, RejectsNegativeConstraintsAndSelfLoops) {
  ConstraintGraph g;
  const VertexId v0 = g.add_vertex("v0", Delay::bounded(0));
  const VertexId v1 = g.add_vertex("v1", Delay::bounded(1));
  EXPECT_THROW(g.add_min_constraint(v0, v1, -1), ApiError);
  EXPECT_THROW(g.add_max_constraint(v0, v1, -1), ApiError);
  EXPECT_THROW(g.add_sequencing_edge(v0, v0), ApiError);
}

TEST(ConstraintGraph, SinkDetection) {
  Fig2Graph f;
  EXPECT_EQ(f.g.sink(), f.v4);
}

TEST(ConstraintGraph, ValidateAcceptsPaperExample) {
  Fig2Graph f;
  EXPECT_TRUE(f.g.validate().empty());
}

TEST(ConstraintGraph, ValidateRejectsForwardCycle) {
  ConstraintGraph g;
  const VertexId v0 = g.add_vertex("v0", Delay::bounded(0));
  const VertexId v1 = g.add_vertex("v1", Delay::bounded(1));
  const VertexId v2 = g.add_vertex("v2", Delay::bounded(1));
  g.add_sequencing_edge(v0, v1);
  g.add_sequencing_edge(v1, v2);
  g.add_sequencing_edge(v2, v1);
  const auto issues = g.validate();
  ASSERT_FALSE(issues.empty());
  EXPECT_EQ(issues.front().kind, ValidationIssue::Kind::kForwardCycle);
}

TEST(ConstraintGraph, ValidateRejectsDisconnectedVertex) {
  ConstraintGraph g;
  const VertexId v0 = g.add_vertex("v0", Delay::bounded(0));
  const VertexId v1 = g.add_vertex("v1", Delay::bounded(1));
  g.add_vertex("stranded", Delay::bounded(1));
  g.add_sequencing_edge(v0, v1);
  const auto issues = g.validate();
  // Two sinks (v1 and stranded) -> polarity failure.
  ASSERT_FALSE(issues.empty());
}

TEST(ConstraintGraph, AnchorsAreSourcePlusUnbounded) {
  Fig2Graph f;
  const auto anchors = f.g.anchors();
  ASSERT_EQ(anchors.size(), 2u);
  EXPECT_EQ(anchors[0], f.v0);
  EXPECT_EQ(anchors[1], f.a);
}

TEST(ConstraintGraph, ProjectionsPreserveStructure) {
  Fig2Graph f;
  const auto full = f.g.project_full();
  const auto forward = f.g.project_forward();
  EXPECT_EQ(full.node_count(), f.g.vertex_count());
  EXPECT_EQ(full.arc_count(), f.g.edge_count());
  EXPECT_EQ(forward.arc_count(), f.g.edge_count() - 1);  // one backward edge
  EXPECT_TRUE(graph::is_acyclic(forward));
  // The backward edge makes the full graph cyclic (v1 -> v2 -> v1).
  EXPECT_FALSE(graph::is_acyclic(full));
}

/// validate()'s verdict from the projection: Kahn over
/// project_forward() and graph floods, the checks the ordered passes
/// replace.
std::vector<ValidationIssue> flood_validate(const ConstraintGraph& g) {
  std::vector<ValidationIssue> issues;
  const graph::Digraph forward = g.project_forward();
  if (!graph::is_acyclic(forward)) {
    issues.push_back({ValidationIssue::Kind::kForwardCycle, VertexId::invalid(),
                      "forward constraint graph Gf has a cycle"});
    return issues;
  }
  if (!g.sink().is_valid()) {
    issues.push_back({ValidationIssue::Kind::kMultipleSinks,
                      VertexId::invalid(),
                      "graph is not polar: multiple sinks"});
    return issues;
  }
  const auto from_source = graph::reachable_from(forward, 0);
  // v0 in A(v): flooded from the heads of the source's sequencing edges.
  std::vector<bool> anchored(static_cast<std::size_t>(g.vertex_count()),
                             false);
  for (EdgeId eid : g.out_edges(g.source())) {
    if (g.edge(eid).kind != EdgeKind::kSequencing) continue;
    const auto from_head = graph::reachable_from(forward, g.edge(eid).to.value());
    for (std::size_t v = 0; v < anchored.size(); ++v) {
      anchored[v] = anchored[v] || from_head[v];
    }
  }
  const auto to_sink = graph::reaching(forward, g.sink().value());
  for (const Vertex& v : g.vertices()) {
    if (!from_source[v.id.index()]) {
      issues.push_back({ValidationIssue::Kind::kNotReachableFromSource, v.id,
                        cat("vertex '", v.name, "' unreachable from source")});
    } else if (v.id != g.source() && !anchored[v.id.index()]) {
      issues.push_back({ValidationIssue::Kind::kNotReachableFromSource, v.id,
                        cat("vertex '", v.name,
                            "' is reached from the source only through "
                            "minimum timing constraints")});
    }
    if (!to_sink[v.id.index()]) {
      issues.push_back({ValidationIssue::Kind::kDoesNotReachSink, v.id,
                        cat("vertex '", v.name, "' does not reach the sink")});
    }
  }
  return issues;
}

TEST(ConstraintGraph, OrderedValidationMatchesProjectionAndFloods) {
  std::mt19937 rng(0x0DE5);
  int cyclic = 0;
  int unreachable = 0;
  int removals = 0;
  for (int i = 0; i < 400; ++i) {
    ConstraintGraph g = relsched::testing::feasibility_case(rng);
    // Swap-pop removals reorder the intrusive out-chains against the
    // edge ids; the order must still follow edge-id order.
    for (int k = static_cast<int>(rng() % 3); k > 0; --k) {
      for (const Edge& e : g.edges()) {
        if (e.kind == EdgeKind::kSequencing) continue;
        const auto forward_count = [&g](auto match) {
          return std::count_if(g.edges().begin(), g.edges().end(),
                               [&](const Edge& f) {
                                 return is_forward(f.kind) && match(f);
                               });
        };
        const bool keeps_polarity =
            e.kind == EdgeKind::kMaxConstraint ||
            (forward_count([&](const Edge& f) { return f.from == e.from; }) >
                 1 &&
             forward_count([&](const Edge& f) { return f.to == e.to; }) > 1);
        if (keeps_polarity) {
          g.remove_constraint(e.id);
          ++removals;
          break;
        }
      }
    }
    const auto want_order = graph::topological_order(g.project_forward());
    EXPECT_EQ(g.forward_order(), want_order) << "case " << i;
    cyclic += want_order.has_value() ? 0 : 1;
    const std::vector<ValidationIssue> want = flood_validate(g);
    const std::vector<ValidationIssue> got = g.validate();
    ASSERT_EQ(got.size(), want.size()) << "case " << i;
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].kind, want[k].kind) << "case " << i;
      EXPECT_EQ(got[k].vertex, want[k].vertex) << "case " << i;
      EXPECT_EQ(got[k].message, want[k].message) << "case " << i;
      if (got[k].kind == ValidationIssue::Kind::kNotReachableFromSource) {
        ++unreachable;
      }
    }
  }
  EXPECT_GT(cyclic, 20);
  EXPECT_GT(unreachable, 50);
  EXPECT_GT(removals, 100);
}

// Removing e1 swap-pops the last edge (v0 -> v2) into id 1, ahead of
// v0 -> v1 (id 2) in id order while it stays last in v0's out-chain.
// Kahn's order releases v0's successors by edge id: v3, v2, v1.
TEST(ConstraintGraph, ForwardOrderReleasesByEdgeIdAfterSwapPop) {
  ConstraintGraph g("swap_pop");
  const VertexId v0 = g.add_vertex("v0", Delay::bounded(0));
  const VertexId v1 = g.add_vertex("v1", Delay::bounded(1));
  const VertexId v2 = g.add_vertex("v2", Delay::bounded(1));
  const VertexId v3 = g.add_vertex("v3", Delay::bounded(1));
  const VertexId v4 = g.add_vertex("v4", Delay::bounded(0));
  g.add_sequencing_edge(v0, v3);
  const EdgeId extra = g.add_min_constraint(v0, v3, 2);
  g.add_sequencing_edge(v0, v1);
  g.add_sequencing_edge(v3, v4);
  g.add_sequencing_edge(v1, v4);
  g.add_sequencing_edge(v2, v4);
  g.add_sequencing_edge(v0, v2);
  g.remove_constraint(extra);
  ASSERT_EQ(g.edge(EdgeId(1)).to, v2);
  const std::vector<int> want = {0, 3, 2, 1, 4};
  EXPECT_EQ(graph::topological_order(g.project_forward()), want);
  EXPECT_EQ(g.forward_order(), want);
}

TEST(ConstraintGraph, DotExportMentionsAllVertices) {
  Fig2Graph f;
  const std::string dot = f.g.to_dot();
  for (const auto& v : f.g.vertices()) {
    EXPECT_NE(dot.find(v.name), std::string::npos) << v.name;
  }
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // backward edge
}

}  // namespace
}  // namespace relsched::cg
