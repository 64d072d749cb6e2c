// Theorem 1 feasibility, decided from the topological order of Gf.
//
// wellposed::is_feasible runs one longest-path pass over Gf in
// topological order and then the FIFO label-correcting detector seeded
// with the backward edges' tails (from the source alone without an
// order). On random graphs -- infeasible ones, ones whose Gf has a
// cycle, ones with vertices the source never reaches -- its verdict
// must equal edge-order Bellman-Ford over G0 (graph::longest_paths_from,
// kept as this oracle), with and without the order, and with any one
// max constraint dropped (lint's unsat-core probes). The same graphs'
// cold resolves and unsat cores must match the verdicts recorded in
// tests/data/feasibility_oracle.txt, and every other front door that
// decides a graph cold must agree with the cold resolve.
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/analyze.hpp"
#include "cg/graph_io.hpp"
#include "engine/session.hpp"
#include "feasibility_cases.hpp"
#include "graph/algorithms.hpp"
#include "lint/lint.hpp"
#include "sched/scheduler.hpp"
#include "wellposed/wellposed.hpp"

namespace relsched {
namespace {

/// Bellman-Ford's verdict on G0 with the max constraints flagged in
/// `dropped` (indexed by edge id) left out.
bool oracle_feasible(const cg::ConstraintGraph& g,
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

TEST(FeasibilityProperty, MatchesBellmanFordOnG0) {
  std::mt19937 rng(testing::kFeasibilitySeed);
  int infeasible = 0;
  int cyclic = 0;
  int unreachable = 0;
  int probes = 0;
  for (int i = 0; i < testing::kFeasibilityCases; ++i) {
    const cg::ConstraintGraph g = testing::feasibility_case(rng);
    ASSERT_EQ(g.project_full().arc_count(), g.edge_count());
    std::vector<bool> dropped(static_cast<std::size_t>(g.edge_count()), false);
    const bool want = oracle_feasible(g, dropped);
    EXPECT_EQ(wellposed::is_feasible(g), want) << "case " << i;
    EXPECT_EQ(wellposed::is_feasible(g, std::vector<int>{}), want)
        << "case " << i << " from the source alone";
    const std::optional<std::vector<int>> order = g.forward_order();
    if (order.has_value()) {
      EXPECT_EQ(wellposed::is_feasible(g, *order), want) << "case " << i;
      for (const EdgeId e : g.backward_edges()) {
        dropped[e.index()] = true;
        EXPECT_EQ(wellposed::is_feasible(g, *order, nullptr, &dropped),
                  oracle_feasible(g, dropped))
            << "case " << i << " without edge " << e.value();
        dropped[e.index()] = false;
        ++probes;
      }
    } else {
      ++cyclic;
    }
    infeasible += want ? 0 : 1;
    for (const cg::ValidationIssue& issue : g.validate()) {
      if (issue.kind == cg::ValidationIssue::Kind::kNotReachableFromSource) {
        ++unreachable;
        break;
      }
    }
  }
  EXPECT_GT(infeasible, 60);
  EXPECT_GT(cyclic, 30);
  EXPECT_GT(unreachable, 80);
  EXPECT_GT(probes, 500);
}

struct OracleLine {
  int index = -1;
  std::string digest;
  std::string fields;  // feasible=.. status=.. diag=.. core=..
  std::string message;
};

std::vector<OracleLine> read_oracle() {
  std::ifstream in(std::string(RELSCHED_TEST_DATA_DIR) +
                   "/feasibility_oracle.txt");
  std::vector<OracleLine> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    OracleLine o;
    const std::size_t bar = line.find(" | ");
    std::istringstream head(line.substr(0, bar));
    head >> o.index >> o.digest;
    std::getline(head >> std::ws, o.fields);
    o.message = bar == std::string::npos ? "" : line.substr(bar + 3);
    out.push_back(o);
  }
  return out;
}

TEST(FeasibilityProperty, ColdResolveMatchesRecordedOracle) {
  const std::vector<OracleLine> oracle = read_oracle();
  ASSERT_EQ(static_cast<int>(oracle.size()), testing::kFeasibilityCases);
  std::mt19937 rng(testing::kFeasibilitySeed);
  for (const OracleLine& want : oracle) {
    const cg::ConstraintGraph g = testing::feasibility_case(rng);
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(testing::text_digest(g)));
    ASSERT_EQ(digest, want.digest) << "case " << want.index
                                   << ": the generator drifted";
    const bool feasible = wellposed::is_feasible(g);
    std::string core = "-";
    if (!feasible) {
      core.clear();
      for (const EdgeId e : lint::unsat_core(g).core) {
        core += cat(e.value(), ",");
      }
      if (core.empty()) core = "-";
    }
    // Certified: every schedule these graphs yield must pass the
    // certifier (a vertex reached from the source only through a min
    // constraint is rejected by validation, not scheduled at T = 0).
    engine::SessionOptions certified;
    certified.certify = true;
    engine::SynthesisSession session(g, certified);
    const engine::Products& p = session.resolve();
    EXPECT_EQ(cat("feasible=", feasible ? 1 : 0, " status=",
                  sched::to_string(p.schedule.status),
                  " diag=", static_cast<int>(p.schedule.diag.code),
                  " core=", core),
              want.fields)
        << "case " << want.index;
    EXPECT_EQ(p.schedule.message, want.message) << "case " << want.index;
  }
}

/// One front door's cold verdict: its class ("invalid", "infeasible",
/// "ill-posed" or "ok"), message and witness.
struct FrontDoorVerdict {
  std::string verdict;
  std::string message;
  certify::Code code = certify::Code::kNone;
  std::string diag;
};

std::string describe(const FrontDoorVerdict& v) {
  return cat(v.verdict, " | ", v.message, " | ", static_cast<int>(v.code),
             " | ", v.diag);
}

FrontDoorVerdict of_schedule(const sched::ScheduleResult& r) {
  std::string verdict = sched::to_string(r.status);
  if (r.status == sched::ScheduleStatus::kScheduled) verdict = "ok";
  if (r.status == sched::ScheduleStatus::kInvalidGraph) verdict = "invalid";
  return {verdict, r.message, r.diag.code, r.diag.message};
}

FrontDoorVerdict of_wellposed(const wellposed::CheckResult& r) {
  std::string verdict = wellposed::to_string(r.status);
  if (r.status == wellposed::Status::kWellPosed) verdict = "ok";
  return {verdict, r.message, r.diag.code, r.diag.message};
}

FrontDoorVerdict of_analyze(const analyze::Report& r) {
  return {analyze::to_string(r.status), r.message, r.diag.code,
          r.diag.message};
}

/// Lint's first error finding. Lint words its infeasible and ill-posed
/// findings itself (the unsat core, the constraint in user terms), so
/// the cold verdict's message is carried for the invalid class only.
FrontDoorVerdict of_lint(const lint::Report& r, const std::string& message) {
  for (const lint::Finding& f : r.findings) {
    if (f.severity != lint::Severity::kError) continue;
    switch (f.rule) {
      case lint::Rule::kInvalidGraph:
        return {"invalid", f.message, f.diag.code, f.diag.message};
      case lint::Rule::kUnsatCore:
        return {"infeasible", message, f.diag.code, f.diag.message};
      case lint::Rule::kIllPosedConstraint:
        return {"ill-posed", message, f.diag.code, f.diag.message};
      default:
        return {cat("unexpected rule ", lint::rule_id(f.rule)), f.message,
                f.diag.code, f.diag.message};
    }
  }
  return {"ok", message, certify::Code::kNone, ""};
}

// The engine's cold resolve, sched::schedule(g), wellposed::check(g),
// analyze::analyze(g) and lint::analyze(g) all decide a graph through
// wellposed::cold_check: on every recorded case they give the same
// verdict class, message and witness.
TEST(FeasibilityProperty, FrontDoorsAgreeWithTheColdResolve) {
  std::mt19937 rng(testing::kFeasibilitySeed);
  int infeasible = 0;
  int ill_posed = 0;
  int invalid = 0;
  for (int i = 0; i < testing::kFeasibilityCases; ++i) {
    const cg::ConstraintGraph g = testing::feasibility_case(rng);
    engine::SynthesisSession session(g, {});
    const FrontDoorVerdict want = of_schedule(session.resolve().schedule);
    infeasible += want.verdict == "infeasible" ? 1 : 0;
    ill_posed += want.verdict == "ill-posed" ? 1 : 0;
    invalid += want.verdict == "invalid" ? 1 : 0;
    EXPECT_EQ(describe(of_schedule(sched::schedule(g))), describe(want))
        << "case " << i << ": sched::schedule";
    EXPECT_EQ(describe(of_wellposed(wellposed::check(g))), describe(want))
        << "case " << i << ": wellposed::check";
    EXPECT_EQ(describe(of_analyze(analyze::analyze(g))), describe(want))
        << "case " << i << ": analyze::analyze";
    EXPECT_EQ(describe(of_lint(lint::analyze(g), want.message)),
              describe(want))
        << "case " << i << ": lint::analyze";
  }
  EXPECT_GT(infeasible, 30);
  EXPECT_GT(ill_posed, 5);
  EXPECT_GT(invalid, 80);
}

// The source must be an anchor of every vertex: v6 hangs off v0 only
// through `min v0 v6 4`, so A(v6) would be empty and the schedule would
// start v6 at T = 0, below the bound. Validation rejects the graph,
// naming v6, and a certified cold resolve reports it instead of
// throwing on its own products.
TEST(FeasibilityProperty, SourceReachedOnlyThroughMinConstraintIsInvalid) {
  const cg::ParseResult parsed = cg::from_text(
      "graph min_only\n"
      "vertex v0 0\nvertex v1 2\nvertex v6 1\nvertex v7 0\n"
      "seq v0 v1\nseq v1 v7\nseq v6 v7\nmin v0 v6 4\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const cg::ConstraintGraph& g = *parsed.graph;
  const std::vector<cg::ValidationIssue> issues = g.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].kind, cg::ValidationIssue::Kind::kNotReachableFromSource);
  EXPECT_EQ(issues[0].vertex, VertexId(2));
  EXPECT_EQ(issues[0].message,
            "vertex 'v6' is reached from the source only through minimum "
            "timing constraints");

  engine::SessionOptions certified;
  certified.certify = true;
  engine::SynthesisSession session(g, certified);
  const engine::Products& p = session.resolve();
  EXPECT_EQ(p.schedule.status, sched::ScheduleStatus::kInvalidGraph);
  EXPECT_EQ(p.schedule.message, issues[0].message);

  // A sequencing edge out of the source makes v0 an anchor of v6 again,
  // and the certified schedule honours the bound.
  cg::ConstraintGraph fixed = g;
  fixed.add_sequencing_edge(VertexId(0), VertexId(2));
  EXPECT_TRUE(fixed.validate().empty());
  engine::SynthesisSession ok_session(fixed, certified);
  const engine::Products& q = ok_session.resolve();
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.schedule.schedule.offset(VertexId(2), VertexId(0)), 4);
}

}  // namespace
}  // namespace relsched
