// Unit and golden tests for the static design analyzer (src/lint):
// rule-by-rule verdicts on hand-built graphs, unsat-core extraction
// with independent witness replay, strip_redundant schedule identity,
// renderers, exit codes, the synthesis-pipeline integration, and the
// incremental re-lint path. The paper-suite golden cases pin the
// analyzer's output on the designs the paper evaluates.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "designs/designs.hpp"
#include "driver/synthesis.hpp"
#include "lint/lint.hpp"
#include "sched/scheduler.hpp"
#include "testutil.hpp"
#include "wellposed/wellposed.hpp"

namespace relsched {
namespace {

using testing::Fig2Graph;
using testing::Fig3aGraph;

std::set<std::string> rule_ids(const lint::Report& report) {
  std::set<std::string> ids;
  for (const lint::Finding& f : report.findings) ids.insert(lint::rule_id(f.rule));
  return ids;
}

// ---- Rule catalog ---------------------------------------------------------

TEST(Lint, CleanChainHasNoFindings) {
  cg::ConstraintGraph g("chain");
  const VertexId v0 = g.add_vertex("v0", cg::Delay::bounded(0));
  const VertexId v1 = g.add_vertex("v1", cg::Delay::bounded(2));
  const VertexId v2 = g.add_vertex("v2", cg::Delay::bounded(1));
  g.add_sequencing_edge(v0, v1);
  g.add_sequencing_edge(v1, v2);
  g.add_max_constraint(v1, v2, 2);  // separation is exactly 2: binding
  const lint::Report report = lint::analyze(g);
  EXPECT_TRUE(report.clean()) << lint::render_text(report, g);
}

TEST(Lint, Fig2ReportsTheRedundantMinConstraint) {
  // The Fig 2 min constraint v0 -> v3 >= 3 is implied by the sequencing
  // path v0 -> v1 -> v2 -> v3 (weight 0 + 2 + 1 = 3).
  const Fig2Graph fig;
  const lint::Report report = lint::analyze(fig.g);
  ASSERT_EQ(report.findings.size(), 1u) << lint::render_text(report, fig.g);
  const lint::Finding& f = report.findings.front();
  EXPECT_EQ(f.rule, lint::Rule::kRedundantMinConstraint);
  EXPECT_EQ(f.severity, lint::Severity::kWarning);
  EXPECT_NE(f.message.find("min v0 -> v3 >= 3"), std::string::npos);
}

TEST(Lint, InvalidGraphShortCircuits) {
  cg::ConstraintGraph g("invalid");
  g.add_vertex("v0", cg::Delay::bounded(0));
  g.add_vertex("v1", cg::Delay::bounded(1));  // disconnected: not polar
  const lint::Report report = lint::analyze(g);
  ASSERT_FALSE(report.clean());
  for (const lint::Finding& f : report.findings) {
    EXPECT_EQ(f.rule, lint::Rule::kInvalidGraph);
  }
  EXPECT_EQ(report.max_severity(), lint::Severity::kError);
}

TEST(Lint, IllPosedConstraintNamesTheCounterexampleAnchor) {
  const Fig3aGraph fig;  // anchor on the path inside the max constraint
  const lint::Report report = lint::analyze(fig.g);
  ASSERT_EQ(report.count(lint::Rule::kIllPosedConstraint), 1);
  const lint::Finding& f = report.findings.front();
  EXPECT_NE(f.message.find("'a'"), std::string::npos);
  ASSERT_EQ(f.vertices.size(), 1u);
  EXPECT_EQ(f.vertices.front(), fig.a);
  // The containment witness must replay against the graph.
  EXPECT_FALSE(f.diag.ok());
  EXPECT_EQ(certify::verify_witness(fig.g, f.diag), std::nullopt);
}

TEST(Lint, NeverBindingMaxIsReportedWithItsSeparationBound) {
  Fig2Graph fig;
  // Loosen Fig 2's max v1 -> v2 from 2 to 3: the separation of v1 and
  // v2 is exactly delta(v1) = 2 for every profile, so u = 3 can never
  // be tight (u = 2 can, and must stay silent -- see CleanChain above).
  fig.g.set_constraint_bound(EdgeId(7), 3);
  const lint::Report report = lint::analyze(fig.g);
  EXPECT_EQ(report.count(lint::Rule::kNeverBindingMax), 1);
  bool found = false;
  for (const lint::Finding& f : report.findings) {
    if (f.rule != lint::Rule::kNeverBindingMax) continue;
    found = true;
    EXPECT_EQ(f.severity, lint::Severity::kInfo);
    EXPECT_NE(f.message.find("at most 2 < 3"), std::string::npos);
  }
  EXPECT_TRUE(found);
}

TEST(Lint, DeadAnchorBehindAnotherAnchor) {
  // a's only path to the sink runs through anchor b, so no *defining*
  // path from a reaches the sink: a never appears in the sink's offset
  // set and its completion never directly delays the design's.
  cg::ConstraintGraph g("dead");
  const VertexId v0 = g.add_vertex("v0", cg::Delay::bounded(0));
  const VertexId a = g.add_vertex("a", cg::Delay::unbounded());
  const VertexId b = g.add_vertex("b", cg::Delay::unbounded());
  const VertexId sink = g.add_vertex("vn", cg::Delay::bounded(0));
  g.add_sequencing_edge(v0, a);
  g.add_sequencing_edge(a, b);
  g.add_sequencing_edge(b, sink);
  const lint::Report report = lint::analyze(g);
  ASSERT_EQ(report.count(lint::Rule::kDeadAnchor), 1);
  const lint::Finding& f = report.findings.front();
  ASSERT_EQ(f.vertices.size(), 1u);
  EXPECT_EQ(f.vertices.front(), a);
  EXPECT_NE(f.message.find("'a'"), std::string::npos);
}

TEST(Lint, OptionsDisableIndividualRules) {
  const Fig2Graph fig;
  lint::Options options;
  options.check_redundant = false;
  const lint::Report report = lint::analyze(fig.g, options);
  EXPECT_EQ(report.count(lint::Rule::kRedundantMinConstraint), 0);
}

// ---- Unsat cores ----------------------------------------------------------

cg::ConstraintGraph single_conflict_graph() {
  // min v1 -> v2 >= 4 against max v1 -> v2 <= 2: a one-edge core. The
  // loose max v0 -> v3 <= 100 must not appear in it.
  cg::ConstraintGraph g("conflict1");
  const VertexId v0 = g.add_vertex("v0", cg::Delay::bounded(0));
  const VertexId v1 = g.add_vertex("v1", cg::Delay::bounded(2));
  const VertexId v2 = g.add_vertex("v2", cg::Delay::bounded(3));
  const VertexId v3 = g.add_vertex("v3", cg::Delay::bounded(0));
  g.add_sequencing_edge(v0, v1);
  g.add_sequencing_edge(v1, v2);
  g.add_sequencing_edge(v2, v3);
  g.add_min_constraint(v1, v2, 4);
  g.add_max_constraint(v1, v2, 2);
  g.add_max_constraint(v0, v3, 100);
  return g;
}

TEST(LintUnsatCore, SingleEdgeCoreIsMinimalAndVerified) {
  const cg::ConstraintGraph g = single_conflict_graph();
  ASSERT_FALSE(wellposed::is_feasible(g));
  const lint::UnsatCore core = lint::unsat_core(g);
  ASSERT_EQ(core.core.size(), 1u);
  EXPECT_TRUE(core.minimal);
  EXPECT_TRUE(core.verified()) << core.verification_error;
  // The core edge is the tight max v1 -> v2 (stored backward v2 -> v1).
  const cg::Edge& e = g.edge(core.core.front());
  EXPECT_EQ(e.kind, cg::EdgeKind::kMaxConstraint);
  EXPECT_EQ(-e.fixed_weight, 2);
  // Relaxing the core edge restores feasibility.
  cg::ConstraintGraph relaxed = g;
  relaxed.remove_constraint(core.core.front());
  EXPECT_TRUE(wellposed::is_feasible(relaxed));
}

TEST(LintUnsatCore, TwoEdgeCoreNeedsBothConstraints) {
  // The positive cycle v1 ->(min 3) v3 ->(-1) v2 ->(-1) v1 crosses two
  // backward edges; removing either one breaks it.
  cg::ConstraintGraph g("conflict2");
  const VertexId v0 = g.add_vertex("v0", cg::Delay::bounded(0));
  const VertexId v1 = g.add_vertex("v1", cg::Delay::bounded(1));
  const VertexId v2 = g.add_vertex("v2", cg::Delay::bounded(1));
  const VertexId v3 = g.add_vertex("v3", cg::Delay::bounded(0));
  g.add_sequencing_edge(v0, v1);
  g.add_sequencing_edge(v1, v2);
  g.add_sequencing_edge(v2, v3);
  g.add_min_constraint(v1, v3, 3);
  g.add_max_constraint(v1, v2, 1);
  g.add_max_constraint(v2, v3, 1);
  ASSERT_FALSE(wellposed::is_feasible(g));
  const lint::UnsatCore core = lint::unsat_core(g);
  ASSERT_EQ(core.core.size(), 2u);
  EXPECT_TRUE(core.minimal);
  EXPECT_TRUE(core.verified()) << core.verification_error;
  for (const EdgeId e : core.core) {
    cg::ConstraintGraph relaxed = g;
    relaxed.remove_constraint(e);
    EXPECT_TRUE(wellposed::is_feasible(relaxed));
  }
  // The reduced core graph replays the infeasibility witness.
  const cg::ConstraintGraph reduced = lint::core_graph(g, core.core);
  EXPECT_FALSE(wellposed::is_feasible(reduced));
  EXPECT_EQ(certify::verify_witness(reduced, core.witness), std::nullopt);
}

TEST(LintUnsatCore, FeasibleGraphYieldsEmptyUnverifiedCore) {
  const Fig2Graph fig;
  const lint::UnsatCore core = lint::unsat_core(fig.g);
  EXPECT_TRUE(core.core.empty());
  EXPECT_FALSE(core.verified());
}

TEST(LintUnsatCore, AnalyzeSurfacesTheCoreFinding) {
  const cg::ConstraintGraph g = single_conflict_graph();
  const lint::Report report = lint::analyze(g);
  ASSERT_EQ(report.findings.size(), 1u);
  const lint::Finding& f = report.findings.front();
  EXPECT_EQ(f.rule, lint::Rule::kUnsatCore);
  EXPECT_NE(f.message.find("max v1 -> v2 <= 2"), std::string::npos);
  EXPECT_EQ(f.message.find("FAILED"), std::string::npos);
  EXPECT_EQ(f.edges.size(), 1u);
  EXPECT_FALSE(f.diag.ok());  // positive-cycle witness for the full graph
}

// ---- strip_redundant ------------------------------------------------------

TEST(LintStrip, Fig2ScheduleIsBitIdenticalAfterStripping) {
  const Fig2Graph fig;
  const auto before = sched::schedule(fig.g);
  ASSERT_TRUE(before.ok());

  cg::ConstraintGraph stripped = fig.g;
  const auto removed = lint::strip_redundant(stripped);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed.front().kind, cg::EdgeKind::kMinConstraint);
  EXPECT_EQ(removed.front().bound, 3);
  EXPECT_TRUE(stripped.validate().empty());

  const auto after = sched::schedule(stripped);
  ASSERT_TRUE(after.ok());
  for (const cg::Vertex& v : fig.g.vertices()) {
    EXPECT_EQ(before.schedule.offsets(v.id), after.schedule.offsets(v.id))
        << "offsets of " << v.name << " changed";
  }
}

TEST(LintStrip, MutuallyImpliedDuplicatesLoseExactlyOne) {
  // Two identical min constraints imply each other; analyze() flags
  // both, but the sequential strip must keep one (the constraint is NOT
  // implied by the remaining graph once its twin is gone).
  cg::ConstraintGraph g("twins");
  const VertexId v0 = g.add_vertex("v0", cg::Delay::bounded(0));
  const VertexId v1 = g.add_vertex("v1", cg::Delay::bounded(1));
  const VertexId v2 = g.add_vertex("v2", cg::Delay::bounded(0));
  g.add_sequencing_edge(v0, v1);
  g.add_sequencing_edge(v1, v2);
  g.add_min_constraint(v0, v1, 5);
  g.add_min_constraint(v0, v1, 5);
  const lint::Report report = lint::analyze(g);
  EXPECT_EQ(report.count(lint::Rule::kRedundantMinConstraint), 2);
  const auto removed = lint::strip_redundant(g);
  EXPECT_EQ(removed.size(), 1u);
  int remaining = 0;
  for (const cg::Edge& e : g.edges()) {
    remaining += e.kind == cg::EdgeKind::kMinConstraint ? 1 : 0;
  }
  EXPECT_EQ(remaining, 1);
}

TEST(LintStrip, NoOpOnInfeasibleGraphs) {
  cg::ConstraintGraph g = single_conflict_graph();
  const int edges_before = g.edge_count();
  EXPECT_TRUE(lint::strip_redundant(g).empty());
  EXPECT_EQ(g.edge_count(), edges_before);
}

// ---- Renderers / exit codes -----------------------------------------------

TEST(LintRender, TextAndJson) {
  const Fig2Graph fig;
  const lint::Report report = lint::analyze(fig.g);
  const std::string text = lint::render_text(report, fig.g);
  EXPECT_NE(text.find("redundant-min-constraint"), std::string::npos);
  EXPECT_NE(text.find("suggestion:"), std::string::npos);
  const std::string json = lint::to_json(report, fig.g);
  EXPECT_NE(json.find("\"graph\": \"fig2\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"redundant-min-constraint\""),
            std::string::npos);
  EXPECT_NE(json.find("\"warnings\": 1"), std::string::npos);
  // Max edges render in user orientation even though stored backward.
  const lint::Report bad = lint::analyze(single_conflict_graph());
  const std::string bad_json =
      lint::to_json(bad, single_conflict_graph());
  EXPECT_NE(bad_json.find("\"from\": \"v1\", \"to\": \"v2\", \"bound\": 2"),
            std::string::npos);
}

TEST(LintExitCodes, SeverityGate) {
  const Fig2Graph fig;
  const lint::Report warn = lint::analyze(fig.g);  // one warning
  EXPECT_EQ(lint::exit_code(warn, lint::FailOn::kError), 0);
  EXPECT_EQ(lint::exit_code(warn, lint::FailOn::kWarning), 4);
  EXPECT_EQ(lint::exit_code(warn, lint::FailOn::kInfo), 4);
  EXPECT_EQ(lint::exit_code(warn, lint::FailOn::kNever), 0);
  const lint::Report err = lint::analyze(single_conflict_graph());
  EXPECT_EQ(lint::exit_code(err, lint::FailOn::kError), 3);
  const lint::Report clean;
  EXPECT_EQ(lint::exit_code(clean, lint::FailOn::kInfo), 0);
}

// ---- Synthesis-pipeline integration ---------------------------------------

TEST(LintDriver, SynthesisPopulatesLintReports) {
  seq::Design design = designs::build("gcd");
  driver::SynthesisOptions options;
  options.lint = true;
  const auto result = driver::synthesize(design, options);
  ASSERT_TRUE(result.ok()) << result.message;
  ASSERT_FALSE(result.graphs.empty());
  for (const auto& gs : result.graphs) {
    // Advisory only: reports exist and carry no errors on a design that
    // synthesized cleanly.
    EXPECT_EQ(gs.lint_report.count(lint::Severity::kError), 0)
        << lint::render_text(gs.lint_report, gs.constraint_graph);
  }
}

TEST(LintDriver, LintOffByDefault) {
  seq::Design design = designs::build("gcd");
  const auto result = driver::synthesize(design);
  ASSERT_TRUE(result.ok());
  for (const auto& gs : result.graphs) {
    EXPECT_TRUE(gs.lint_report.clean());
  }
}

// ---- Paper-suite golden cases ---------------------------------------------

TEST(LintGolden, PaperSuiteHasNoErrorFindings) {
  // Every design the paper evaluates must lint without errors; the
  // only findings on record are advisory (the pulse detector's
  // internal-only synchronization anchor).
  for (const auto& bd : designs::benchmark_suite()) {
    seq::Design design = designs::build(bd.name);
    driver::SynthesisOptions options;
    options.lint = true;
    const auto result = driver::synthesize(design, options);
    ASSERT_TRUE(result.ok()) << bd.name << ": " << result.message;
    for (const auto& gs : result.graphs) {
      EXPECT_EQ(gs.lint_report.count(lint::Severity::kError), 0)
          << bd.name << ": "
          << lint::render_text(gs.lint_report, gs.constraint_graph);
      EXPECT_EQ(gs.lint_report.count(lint::Rule::kRedundantMaxConstraint), 0)
          << bd.name;
    }
  }
}

TEST(LintGolden, SeededRedundancyIsDetectedInSuiteGraphs) {
  // Duplicate an existing min/sequencing-implied constraint in a real
  // synthesized graph: exactly that rule must fire, nothing else new.
  seq::Design design = designs::build("traffic");
  driver::SynthesisOptions options;
  options.lint = true;
  const auto result = driver::synthesize(design, options);
  ASSERT_TRUE(result.ok());
  cg::ConstraintGraph g = result.graphs.front().constraint_graph;
  const auto baseline = rule_ids(lint::analyze(g));
  // Seed: a min constraint parallel to an existing sequencing edge,
  // with a bound no larger than that edge's fixed weight floor (0).
  const cg::Edge* seq_edge = nullptr;
  for (const cg::Edge& e : g.edges()) {
    if (e.kind == cg::EdgeKind::kSequencing) {
      seq_edge = &e;
      break;
    }
  }
  ASSERT_NE(seq_edge, nullptr);
  g.add_min_constraint(seq_edge->from, seq_edge->to, 0);
  const lint::Report seeded = lint::analyze(g);
  EXPECT_GE(seeded.count(lint::Rule::kRedundantMinConstraint), 1);
  auto ids = rule_ids(seeded);
  ids.erase("redundant-min-constraint");
  EXPECT_EQ(ids, baseline);  // no collateral findings
}

}  // namespace
}  // namespace relsched
