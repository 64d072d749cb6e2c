#include "wellposed/wellposed.hpp"

#include <gtest/gtest.h>

#include "certify/certify.hpp"
#include "testutil.hpp"

namespace relsched::wellposed {
namespace {

using relsched::testing::Fig2Graph;
using relsched::testing::Fig3aGraph;
using relsched::testing::Fig3bGraph;

TEST(Feasibility, PaperExampleIsFeasible) {
  Fig2Graph f;
  EXPECT_TRUE(is_feasible(f.g));
}

TEST(Feasibility, TightMaxConstraintMakesPositiveCycle) {
  // v0 -> v1 (delta 0*) -> v2 with delta(v1) = 3, max constraint u = 2
  // between v1 and v2: cycle v1 -> v2 -> v1 of weight 3 - 2 = +1.
  cg::ConstraintGraph g;
  const VertexId v0 = g.add_vertex("v0", cg::Delay::bounded(0));
  const VertexId v1 = g.add_vertex("v1", cg::Delay::bounded(3));
  const VertexId v2 = g.add_vertex("v2", cg::Delay::bounded(1));
  g.add_sequencing_edge(v0, v1);
  g.add_sequencing_edge(v1, v2);
  g.add_max_constraint(v1, v2, 2);
  EXPECT_FALSE(is_feasible(g));
  EXPECT_EQ(check(g).status, Status::kInfeasible);
}

TEST(Feasibility, UnboundedDelaysCountAsZero) {
  // Same shape but the gap vertex is unbounded: with delta = 0 the max
  // constraint is satisfiable, so the graph is *feasible* (Definition 6)
  // even though it is ill-posed.
  cg::ConstraintGraph g;
  const VertexId v0 = g.add_vertex("v0", cg::Delay::bounded(0));
  const VertexId a = g.add_vertex("a", cg::Delay::unbounded());
  const VertexId v2 = g.add_vertex("v2", cg::Delay::bounded(1));
  g.add_sequencing_edge(v0, a);
  g.add_sequencing_edge(a, v2);
  g.add_max_constraint(a, v2, 2);
  EXPECT_TRUE(is_feasible(g));
}

TEST(CheckWellposed, PaperExampleIsWellPosed) {
  Fig2Graph f;
  EXPECT_EQ(check(f.g).status, Status::kWellPosed);
}

TEST(CheckWellposed, Fig3aIsIllPosed) {
  Fig3aGraph f;
  const auto result = check(f.g);
  EXPECT_EQ(result.status, Status::kIllPosed);
  EXPECT_TRUE(result.violating_edge.is_valid());
}

TEST(CheckWellposed, Fig3bIsIllPosed) {
  Fig3bGraph f;
  EXPECT_EQ(check(f.g).status, Status::kIllPosed);
}

TEST(ColdCheck, InvalidGraphKeepsEveryIssue) {
  // v1 and v2 feed the sink but hang off nothing: two issues.
  cg::ConstraintGraph g;
  const VertexId v0 = g.add_vertex("v0", cg::Delay::bounded(0));
  const VertexId v1 = g.add_vertex("v1", cg::Delay::bounded(1));
  const VertexId v2 = g.add_vertex("v2", cg::Delay::bounded(1));
  const VertexId sink = g.add_vertex("vn", cg::Delay::bounded(0));
  g.add_sequencing_edge(v0, sink);
  g.add_sequencing_edge(v1, sink);
  g.add_sequencing_edge(v2, sink);
  const std::vector<cg::ValidationIssue> issues = g.validate();
  ASSERT_GE(issues.size(), 2u);
  const ColdCheck cold = cold_check(g);
  EXPECT_EQ(cold.verdict.status, Status::kInvalid);
  EXPECT_EQ(cold.verdict.message, issues.front().message);
  ASSERT_EQ(cold.issues.size(), issues.size());
  for (std::size_t i = 0; i < issues.size(); ++i) {
    EXPECT_EQ(cold.issues[i].message, issues[i].message);
  }
  EXPECT_FALSE(cold.analysed());
  EXPECT_EQ(check(g).status, Status::kInvalid);
}

TEST(ColdCheck, KeepsTheAnalysisOnIllPosedAndReusesTheCallers) {
  Fig3bGraph f;
  const ColdCheck cold = cold_check(f.g);
  ASSERT_EQ(cold.verdict.status, Status::kIllPosed);
  ASSERT_TRUE(cold.analysed());
  EXPECT_EQ(cold.analysis.anchors().size(), 3u);
  // The source's length cells are the feasibility pass's potentials.
  std::vector<graph::Weight> column;
  cold.analysis.length_column(f.g.source(), column);
  EXPECT_EQ(column, cold.potentials);
  // A caller's analysis answers the anchor question as it is.
  const ColdCheck reused = cold_check(f.g, {}, &cold.analysis);
  EXPECT_EQ(reused.verdict.status, Status::kIllPosed);
  EXPECT_EQ(reused.verdict.diag.message, cold.verdict.diag.message);
  EXPECT_TRUE(reused.analysis.anchors().empty());
}

// Every step budget too small for the whole check trips it, in the
// feasibility pass or in the anchor analysis (the potentials exist):
// undecided, never a verdict, and no partial analysis is handed out.
TEST(ColdCheck, WatchdogTripIsUndecided) {
  Fig2Graph f;
  int in_feasibility = 0;
  int in_analysis = 0;
  for (std::uint64_t limit = 1;; ++limit) {
    ASSERT_LT(limit, 10000u);
    base::Watchdog dog(base::CancelToken{}, base::Watchdog::kNoDeadline,
                       limit);
    const ColdCheck cold = cold_check(f.g, {}, nullptr, &dog);
    if (cold.verdict.status == Status::kWellPosed) break;
    ASSERT_EQ(cold.verdict.status, Status::kUndecided) << "limit " << limit;
    EXPECT_TRUE(cold.analysis.anchors().empty()) << "limit " << limit;
    ++(cold.potentials.empty() ? in_feasibility : in_analysis);
  }
  EXPECT_GT(in_feasibility, 0);
  EXPECT_GT(in_analysis, 0);
}

TEST(MakeWellposed, Fig3aCannotBeRepaired) {
  Fig3aGraph f;
  const auto result = make_wellposed(f.g);
  EXPECT_EQ(result.status, Status::kIllPosed);
}

TEST(MakeWellposed, Fig3bSerializesA2BeforeVi) {
  Fig3bGraph f;
  const auto result = make_wellposed(f.g);
  ASSERT_EQ(result.status, Status::kWellPosed);
  ASSERT_EQ(result.added_edges.size(), 1u);
  EXPECT_EQ(result.added_edges[0].first, f.a2);
  EXPECT_EQ(result.added_edges[0].second, f.vi);
  // The repaired graph (Fig 3(c)) must check clean.
  EXPECT_EQ(check(f.g).status, Status::kWellPosed);
}

TEST(MakeWellposed, WellPosedGraphIsUntouched) {
  Fig2Graph f;
  const int edges_before = f.g.edge_count();
  const auto result = make_wellposed(f.g);
  EXPECT_EQ(result.status, Status::kWellPosed);
  EXPECT_TRUE(result.added_edges.empty());
  EXPECT_EQ(f.g.edge_count(), edges_before);
}

TEST(MakeWellposed, FailureRollsTheGraphBack) {
  // One repairable violation (a2 missing at vi, Fig 3(b) style) plus an
  // unrepairable one (a max constraint out of the anchor a3 itself):
  // make_wellposed may serialize the first before it trips over the
  // second, but on failure the caller's graph must come back untouched
  // and the diag must replay against the restored graph with the
  // recorded serializing edges re-applied.
  cg::ConstraintGraph g;
  const VertexId v0 = g.add_vertex("v0", cg::Delay::bounded(0));
  const VertexId a1 = g.add_vertex("a1", cg::Delay::unbounded());
  const VertexId a2 = g.add_vertex("a2", cg::Delay::unbounded());
  const VertexId vi = g.add_vertex("vi", cg::Delay::bounded(1));
  const VertexId vj = g.add_vertex("vj", cg::Delay::bounded(1));
  const VertexId a3 = g.add_vertex("a3", cg::Delay::unbounded());
  const VertexId vk = g.add_vertex("vk", cg::Delay::bounded(1));
  g.add_sequencing_edge(v0, a1);
  g.add_sequencing_edge(v0, a2);
  g.add_sequencing_edge(a1, vi);
  g.add_sequencing_edge(a2, vj);
  g.add_sequencing_edge(vi, vj);
  g.add_max_constraint(vi, vj, 5);  // repairable: serialize a2 -> vi
  g.add_sequencing_edge(v0, a3);
  g.add_sequencing_edge(a3, vk);
  g.add_max_constraint(a3, vk, 5);  // unrepairable: a3 in its own window

  const cg::ConstraintGraph before = g;
  const auto result = make_wellposed(g);
  ASSERT_NE(result.status, Status::kWellPosed);
  EXPECT_EQ(g.edge_count(), before.edge_count());
  EXPECT_EQ(g.revision(), before.revision());
  EXPECT_EQ(g.to_dot(), before.to_dot());

  ASSERT_TRUE(result.diag.has_witness());
  cg::ConstraintGraph wg = g;
  for (const auto& [from, to] : result.added_edges) {
    wg.add_sequencing_edge(from, to);
  }
  EXPECT_EQ(certify::verify_witness(wg, result.diag), std::nullopt);
}

TEST(MakeWellposed, InfeasibleGraphIsRejected) {
  cg::ConstraintGraph g;
  const VertexId v0 = g.add_vertex("v0", cg::Delay::bounded(0));
  const VertexId v1 = g.add_vertex("v1", cg::Delay::bounded(3));
  const VertexId v2 = g.add_vertex("v2", cg::Delay::bounded(1));
  g.add_sequencing_edge(v0, v1);
  g.add_sequencing_edge(v1, v2);
  g.add_max_constraint(v1, v2, 2);
  EXPECT_EQ(make_wellposed(g).status, Status::kInfeasible);
}

TEST(MakeWellposed, ChainOfBackwardEdgesPropagatesAnchors) {
  // Backward-edge chain vj <- vk (two max constraints): anchors missing
  // at the head of one backward edge must propagate through the chain
  // (the paper's addEdge recursion; our fixed point).
  cg::ConstraintGraph g;
  const VertexId v0 = g.add_vertex("v0", cg::Delay::bounded(0));
  const VertexId a1 = g.add_vertex("a1", cg::Delay::unbounded());
  const VertexId a2 = g.add_vertex("a2", cg::Delay::unbounded());
  const VertexId vi = g.add_vertex("vi", cg::Delay::bounded(1));
  const VertexId vj = g.add_vertex("vj", cg::Delay::bounded(1));
  const VertexId vk = g.add_vertex("vk", cg::Delay::bounded(1));
  const VertexId vn = g.add_vertex("vn", cg::Delay::bounded(0));
  g.add_sequencing_edge(v0, a1);
  g.add_sequencing_edge(v0, a2);
  g.add_sequencing_edge(a1, vi);
  g.add_sequencing_edge(a2, vj);
  g.add_sequencing_edge(v0, vk);
  g.add_sequencing_edge(vi, vn);
  g.add_sequencing_edge(vj, vn);
  g.add_sequencing_edge(vk, vn);
  // Backward edge (vj -> vi) forces a2 into A(vi); the repaired A(vi)
  // must then propagate across backward edge (vi -> vk), forcing both
  // a1 and a2 into A(vk).
  g.add_max_constraint(vi, vj, 4);
  g.add_max_constraint(vk, vi, 4);
  const auto result = make_wellposed(g);
  ASSERT_EQ(result.status, Status::kWellPosed);
  EXPECT_EQ(check(g).status, Status::kWellPosed);
  const auto sets = anchors::find_anchor_sets(g);
  EXPECT_TRUE(sets[vi.index()].contains(a2));
  EXPECT_TRUE(sets[vk.index()].contains(a1));
  EXPECT_TRUE(sets[vk.index()].contains(a2));
}

TEST(MakeWellposed, RandomGraphsEndWellPosedOrDetectedIllPosed) {
  std::mt19937 rng(5);
  int repaired = 0;
  for (int trial = 0; trial < 60; ++trial) {
    relsched::testing::RandomGraphParams params;
    params.vertex_count = 16;
    params.unbounded_fraction = 0.3;
    params.max_constraints = 3;
    auto g = relsched::testing::random_constraint_graph(rng, params);
    if (!g.validate().empty()) continue;
    if (!is_feasible(g)) continue;
    const auto before = check(g).status;
    const auto result = make_wellposed(g);
    if (result.status == Status::kWellPosed) {
      EXPECT_EQ(check(g).status, Status::kWellPosed);
      if (before == Status::kIllPosed) ++repaired;
    } else {
      EXPECT_EQ(result.status, Status::kIllPosed);
    }
  }
  // The sweep must have exercised actual repairs.
  EXPECT_GT(repaired, 0);
}

}  // namespace
}  // namespace relsched::wellposed
