#include "anchors/anchor_analysis.hpp"

#include <gtest/gtest.h>

#include "reference_oracle.hpp"
#include "testutil.hpp"

namespace relsched::anchors {
namespace {

using relsched::testing::Fig2Graph;

/// Feasibility without pulling in the wellposed library: no positive
/// cycle reachable from the source with unbounded weights set to 0.
bool graph_is_feasible(const cg::ConstraintGraph& g) {
  return !graph::longest_paths_from(g.project_full(), g.source().value())
              .positive_cycle;
}

TEST(FindAnchorSets, MatchesTable2OfThePaper) {
  Fig2Graph f;
  const auto sets = find_anchor_sets(f.g);
  EXPECT_TRUE(sets[f.v0.index()].empty());
  EXPECT_EQ(sets[f.a.index()], (AnchorSet{f.v0}));
  EXPECT_EQ(sets[f.v1.index()], (AnchorSet{f.v0}));
  EXPECT_EQ(sets[f.v2.index()], (AnchorSet{f.v0}));
  EXPECT_EQ(sets[f.v3.index()], (AnchorSet{f.v0, f.a}));
  EXPECT_EQ(sets[f.v4.index()], (AnchorSet{f.v0, f.a}));
}

TEST(FindAnchorSets, SourceInEverySetOfPolarGraph) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const auto g = relsched::testing::random_constraint_graph(rng, {});
    if (!g.validate().empty()) continue;
    const auto sets = find_anchor_sets(g);
    for (int vi = 1; vi < g.vertex_count(); ++vi) {
      EXPECT_TRUE(sets[static_cast<std::size_t>(vi)].contains(g.source()))
          << "vertex " << vi;
    }
    EXPECT_TRUE(sets[g.source().index()].empty());
  }
}

TEST(FindAnchorSets, ForwardEdgesSatisfyContainment) {
  // By the definition of anchor sets, A(tail) subset-of A(head) union
  // {tail} holds along every forward edge.
  std::mt19937 rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const auto g = relsched::testing::random_constraint_graph(rng, {});
    const auto sets = find_anchor_sets(g);
    for (const auto& e : g.edges()) {
      if (!cg::is_forward(e.kind)) continue;
      EXPECT_TRUE(sets[e.from.index()].is_subset_of(sets[e.to.index()]));
    }
  }
}

TEST(AnchorAnalysis, RelevantSetsOfFig2) {
  Fig2Graph f;
  const auto a = AnchorAnalysis::compute(f.g);
  // v3: v0 relevant via v0->v1->v2->v3 (one unbounded edge, the first);
  //     a relevant via the single unbounded edge a->v3.
  EXPECT_EQ(a.relevant_set(f.v3), (AnchorSet{f.v0, f.a}));
  // v2 is only reachable from v0 (its anchor set is {v0}).
  EXPECT_EQ(a.relevant_set(f.v2), (AnchorSet{f.v0}));
  // a itself: only v0.
  EXPECT_EQ(a.relevant_set(f.a), (AnchorSet{f.v0}));
}

TEST(AnchorAnalysis, IrredundantSetsOfFig2) {
  Fig2Graph f;
  const auto a = AnchorAnalysis::compute(f.g);
  // length(v0,v3) = 3 > length(v0,a) + length(a,v3) = 0: v0 stays.
  EXPECT_EQ(a.irredundant_set(f.v3), (AnchorSet{f.v0, f.a}));
  EXPECT_EQ(a.irredundant_set(f.v4), (AnchorSet{f.v0, f.a}));
}

TEST(AnchorAnalysis, CascadedAnchorIsDropped) {
  // Fig 4 of the paper: a chain v0 -> a -> b -> vi of anchors makes both
  // v0 and a redundant for vi (b dominates).
  cg::ConstraintGraph g;
  const VertexId v0 = g.add_vertex("v0", cg::Delay::bounded(0));
  const VertexId a = g.add_vertex("a", cg::Delay::unbounded());
  const VertexId b = g.add_vertex("b", cg::Delay::unbounded());
  const VertexId vi = g.add_vertex("vi", cg::Delay::bounded(1));
  g.add_sequencing_edge(v0, a);
  g.add_sequencing_edge(a, b);
  g.add_sequencing_edge(b, vi);
  const auto an = AnchorAnalysis::compute(g);
  EXPECT_EQ(an.anchor_set(vi), (AnchorSet{v0, a, b}));
  // Only b has a defining path to vi; v0's and a's paths hit another
  // unbounded edge first.
  EXPECT_EQ(an.relevant_set(vi), (AnchorSet{b}));
  EXPECT_EQ(an.irredundant_set(vi), (AnchorSet{b}));
}

TEST(AnchorAnalysis, Fig8RedundantVersusIrredundant) {
  // Fig 8(a): anchor a has a side path a -> v1 -> v3 whose length (2)
  // beats the path through anchor b (0): a is irredundant for v3.
  {
    cg::ConstraintGraph g;
    const VertexId v0 = g.add_vertex("v0", cg::Delay::bounded(0));
    const VertexId a = g.add_vertex("a", cg::Delay::unbounded());
    const VertexId v1 = g.add_vertex("v1", cg::Delay::bounded(2));
    const VertexId b = g.add_vertex("b", cg::Delay::unbounded());
    const VertexId v3 = g.add_vertex("v3", cg::Delay::bounded(1));
    g.add_sequencing_edge(v0, a);
    g.add_sequencing_edge(a, v1);
    g.add_sequencing_edge(v1, v3);
    g.add_sequencing_edge(a, b);
    g.add_sequencing_edge(b, v3);
    const auto an = AnchorAnalysis::compute(g);
    EXPECT_TRUE(an.irredundant_set(v3).contains(a));
    EXPECT_TRUE(an.irredundant_set(v3).contains(b));
  }
  // Fig 8(b): the side path is shorter than the path through b
  // (which carries bounded weight 3 after b): a becomes redundant.
  {
    cg::ConstraintGraph g;
    const VertexId v0 = g.add_vertex("v0", cg::Delay::bounded(0));
    const VertexId a = g.add_vertex("a", cg::Delay::unbounded());
    const VertexId v1 = g.add_vertex("v1", cg::Delay::bounded(1));
    const VertexId b = g.add_vertex("b", cg::Delay::unbounded());
    const VertexId v2 = g.add_vertex("v2", cg::Delay::bounded(3));
    const VertexId v3 = g.add_vertex("v3", cg::Delay::bounded(1));
    g.add_sequencing_edge(v0, a);
    g.add_sequencing_edge(a, v1);
    g.add_sequencing_edge(v1, v3);  // length via side path: 1 + 1 = 2
    g.add_sequencing_edge(a, b);
    g.add_sequencing_edge(b, v2);
    g.add_sequencing_edge(v2, v3);  // length after b: 0 + 3 = 3
    const auto an = AnchorAnalysis::compute(g);
    EXPECT_TRUE(an.relevant_set(v3).contains(a));
    EXPECT_FALSE(an.irredundant_set(v3).contains(a));
    EXPECT_TRUE(an.irredundant_set(v3).contains(b));
  }
}

TEST(AnchorAnalysis, IrredundantSubsetOfRelevantSubsetOfFullOnWellPosed) {
  // Theorem 5 / Lemma 4 (requires well-posedness; generator graphs with
  // slack max constraints are usually well-posed -- skip those that are
  // not by checking containment of R in A first).
  std::mt19937 rng(23);
  int checked = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const auto g = relsched::testing::random_constraint_graph(rng, {});
    if (!g.validate().empty()) continue;
    if (!graph_is_feasible(g)) continue;
    const auto an = AnchorAnalysis::compute(g);
    bool well_posed = true;
    for (const auto& e : g.edges()) {
      if (cg::is_forward(e.kind)) continue;
      if (!an.anchor_set(e.from).is_subset_of(an.anchor_set(e.to))) {
        well_posed = false;
      }
    }
    if (!well_posed) continue;
    ++checked;
    for (int vi = 0; vi < g.vertex_count(); ++vi) {
      const VertexId v(vi);
      EXPECT_TRUE(an.irredundant_set(v).is_subset_of(an.relevant_set(v)));
      EXPECT_TRUE(an.relevant_set(v).is_subset_of(an.anchor_set(v)));
    }
  }
  EXPECT_GT(checked, 5);  // the sweep must actually exercise graphs
}

TEST(AnchorAnalysis, LengthsMatchLongestPaths) {
  Fig2Graph f;
  const auto an = AnchorAnalysis::compute(f.g);
  EXPECT_EQ(an.length(f.v0, f.v3), 3);
  EXPECT_EQ(an.length(f.a, f.v3), 0);
  EXPECT_EQ(an.length(f.v0, f.v4), 8);
  EXPECT_EQ(an.length(f.a, f.v4), 5);
  EXPECT_EQ(an.length(f.a, f.v1), graph::kNegInf);  // no path a -> v1
}

TEST(AnchorAnalysis, EveryNonSourceVertexHasARelevantAnchor) {
  std::mt19937 rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    const auto g = relsched::testing::random_constraint_graph(rng, {});
    if (!g.validate().empty()) continue;
    if (!graph_is_feasible(g)) continue;
    const auto an = AnchorAnalysis::compute(g);
    for (int vi = 1; vi < g.vertex_count(); ++vi) {
      EXPECT_FALSE(an.relevant_set(VertexId(vi)).empty()) << "vertex " << vi;
      EXPECT_FALSE(an.irredundant_set(VertexId(vi)).empty()) << "vertex " << vi;
    }
  }
}

}  // namespace
}  // namespace relsched::anchors
