// Unit tests for the static slack / criticality analyzer
// (src/analyze): exact slacks on the paper's Figure 2, hand-computed
// slack values on a chain, verdict short-circuits, certified
// extraction on all three failure-free/failing verdicts, renderers,
// exit codes, and the incremental re-analysis path.
#include <gtest/gtest.h>

#include <string>

#include "analyze/analyze.hpp"
#include "analyze/incremental.hpp"
#include "engine/session.hpp"
#include "sched/scheduler.hpp"
#include "testutil.hpp"

namespace relsched {
namespace {

using testing::Fig2Graph;
using testing::Fig3aGraph;

TEST(Analyze, Fig2SlacksAreExact) {
  const Fig2Graph fig;
  const analyze::Report report = analyze::analyze(fig.g);
  ASSERT_TRUE(report.ok()) << report.message;
  ASSERT_EQ(report.slacks.size(), 2u);
  EXPECT_EQ(report.binding_count(), 2);
  for (const analyze::ConstraintSlack& s : report.slacks) {
    EXPECT_EQ(s.slack, 0) << analyze::render_text(report, fig.g, 0);
  }
  // The max constraint v1 -> v2 <= 2 in user orientation.
  const auto max_it =
      std::find_if(report.slacks.begin(), report.slacks.end(),
                   [](const analyze::ConstraintSlack& s) {
                     return s.kind == cg::EdgeKind::kMaxConstraint;
                   });
  ASSERT_NE(max_it, report.slacks.end());
  EXPECT_EQ(max_it->from, fig.v1);
  EXPECT_EQ(max_it->to, fig.v2);
  EXPECT_EQ(max_it->bound, 2);
}

TEST(Analyze, ChainSlackMatchesHandComputation) {
  // v0 -0-> v1 -2-> v2: separation sigma(v2) - sigma(v1) = 2 in every
  // frame, so max v1 -> v2 <= 4 has slack exactly 2.
  cg::ConstraintGraph g("chain");
  const VertexId v0 = g.add_vertex("v0", cg::Delay::bounded(0));
  const VertexId v1 = g.add_vertex("v1", cg::Delay::bounded(2));
  const VertexId v2 = g.add_vertex("v2", cg::Delay::bounded(1));
  const VertexId v3 = g.add_vertex("v3", cg::Delay::bounded(0));
  g.add_sequencing_edge(v0, v1);
  g.add_sequencing_edge(v1, v2);
  g.add_sequencing_edge(v2, v3);
  const EdgeId e = g.add_max_constraint(v1, v2, 4);
  const analyze::Report report = analyze::analyze(g);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report.slacks.size(), 1u);
  EXPECT_EQ(report.slacks[0].edge, e);
  EXPECT_EQ(report.slacks[0].slack, 2);
  EXPECT_EQ(report.binding_count(), 0);

  // Empirical check of both slack directions: tightened to the slack
  // the schedule is bit-identical; one past it the graph breaks.
  const auto before = sched::schedule(g);
  ASSERT_TRUE(before.ok());
  cg::ConstraintGraph at_slack = g;
  at_slack.set_constraint_bound(e, 2);
  const auto at = sched::schedule(at_slack);
  ASSERT_TRUE(at.ok());
  for (const cg::Vertex& v : g.vertices()) {
    EXPECT_EQ(before.schedule.offsets(v.id), at.schedule.offsets(v.id));
  }
  cg::ConstraintGraph past_slack = g;
  past_slack.set_constraint_bound(e, 1);
  EXPECT_FALSE(sched::schedule(past_slack).ok());
}

TEST(Analyze, InvalidGraphShortCircuits) {
  cg::ConstraintGraph g("invalid");
  g.add_vertex("v0", cg::Delay::bounded(0));
  g.add_vertex("stranded", cg::Delay::bounded(1));  // not polar
  const analyze::Report report = analyze::analyze(g);
  EXPECT_EQ(report.status, analyze::Status::kInvalid);
  EXPECT_FALSE(report.message.empty());
  EXPECT_EQ(analyze::exit_code(report), 2);
  const analyze::Extraction ex = analyze::extract_critical(g, report);
  EXPECT_FALSE(ex.certified);
}

TEST(Analyze, InfeasibleGraphYieldsCertifiedCycleExtraction) {
  cg::ConstraintGraph g("infeasible");
  const VertexId v0 = g.add_vertex("v0", cg::Delay::bounded(0));
  const VertexId v1 = g.add_vertex("v1", cg::Delay::bounded(3));
  const VertexId v2 = g.add_vertex("v2", cg::Delay::bounded(1));
  g.add_sequencing_edge(v0, v1);
  g.add_sequencing_edge(v1, v2);
  g.add_max_constraint(v1, v2, 2);  // separation 3 > 2: positive cycle
  const analyze::Report report = analyze::analyze(g);
  ASSERT_EQ(report.status, analyze::Status::kInfeasible);
  EXPECT_EQ(report.diag.code, certify::Code::kPositiveCycle);
  EXPECT_EQ(analyze::exit_code(report), 3);
  const analyze::Extraction ex = analyze::extract_critical(g, report);
  EXPECT_TRUE(ex.certified) << ex.certification_error;
  EXPECT_EQ(analyze::exit_code(report, &ex), 3);
}

TEST(Analyze, IllPosedGraphYieldsCertifiedContainmentExtraction) {
  const Fig3aGraph fig;
  const analyze::Report report = analyze::analyze(fig.g);
  ASSERT_EQ(report.status, analyze::Status::kIllPosed);
  EXPECT_EQ(report.diag.code, certify::Code::kContainment);
  EXPECT_EQ(analyze::exit_code(report), 4);
  const analyze::Extraction ex = analyze::extract_critical(fig.g, report);
  EXPECT_TRUE(ex.certified) << ex.certification_error;
}

TEST(Analyze, Fig2ExtractionIsCertifiedAndMapsBack) {
  const Fig2Graph fig;
  const analyze::Report report = analyze::analyze(fig.g);
  ASSERT_TRUE(report.ok());
  const analyze::Extraction ex = analyze::extract_critical(fig.g, report);
  ASSERT_TRUE(ex.certified) << ex.certification_error;
  EXPECT_EQ(ex.full_vertices, fig.g.vertex_count());
  ASSERT_FALSE(ex.vertex_map.empty());
  // The subgraph source is the design source; the maps invert.
  EXPECT_EQ(ex.vertex_map[0], fig.g.source());
  for (std::size_t i = 0; i < ex.vertex_map.size(); ++i) {
    EXPECT_EQ(ex.old_to_new[ex.vertex_map[i].index()],
              static_cast<int>(i));
  }
  for (std::size_t i = 0; i < ex.edge_map.size(); ++i) {
    const cg::Edge& sub = ex.subgraph.edge(EdgeId(static_cast<int>(i)));
    const cg::Edge& full = fig.g.edge(ex.edge_map[i]);
    EXPECT_EQ(sub.kind, full.kind);
    EXPECT_EQ(sub.fixed_weight, full.fixed_weight);
    EXPECT_EQ(ex.vertex_map[sub.from.index()], full.from);
    EXPECT_EQ(ex.vertex_map[sub.to.index()], full.to);
  }
}

TEST(Analyze, RenderersAndJson) {
  const Fig2Graph fig;
  const analyze::Report report = analyze::analyze(fig.g);
  const analyze::Extraction ex = analyze::extract_critical(fig.g, report);
  const std::string text = analyze::render_text(report, fig.g, 1);
  EXPECT_NE(text.find("2 constraints, 2 binding; top 1"), std::string::npos)
      << text;
  const std::string json = analyze::to_json(report, fig.g, &ex);
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"counts\": {\"constraints\": 2, \"binding\": 2}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"certified\": true"), std::string::npos) << json;
}

TEST(Analyze, IncrementalMatchesFreshAfterBoundEdit) {
  Fig2Graph fig;
  engine::SynthesisSession session(std::move(fig.g));
  analyze::IncrementalAnalyzer analyzer;
  const analyze::Report& first = analyzer.reanalyze(session);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(analyzer.full_analyses(), 1);

  // Loosen the max constraint: a warm, bound-only edit.
  const auto max_edge = [&] {
    for (const cg::Edge& e : session.graph().edges()) {
      if (e.kind == cg::EdgeKind::kMaxConstraint) return e.id;
    }
    return EdgeId::invalid();
  }();
  ASSERT_TRUE(max_edge.is_valid());
  session.set_constraint_bound(max_edge, 3);
  const analyze::Report& second = analyzer.reanalyze(session);
  const analyze::Report fresh = analyze::analyze(session.graph());
  EXPECT_EQ(analyze::to_json(second, session.graph()),
            analyze::to_json(fresh, session.graph()));
  // Cached result reused while nothing resolves in between.
  EXPECT_EQ(analyzer.full_analyses(), 2);
  analyzer.reanalyze(session);
  EXPECT_EQ(analyzer.full_analyses(), 2);
}

}  // namespace
}  // namespace relsched
