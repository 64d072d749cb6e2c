// Randomized property tests for the slack / criticality analyzer:
//
//   1. Perturb-and-recheck: every slack interval is exact in both
//      directions -- tightening a constraint by its slack leaves the
//      minimum schedule bit-identical (every vertex's offsets equal);
//      tightening one past it changes the schedule or breaks the
//      graph. This is the analyzer's core soundness claim.
//   2. Every critical-subgraph extraction certifies, across all
//      verdicts the random population produces (ok / infeasible /
//      ill-posed), and stays within the full design's size.
//   3. IncrementalAnalyzer::reanalyze over random warm edit sequences
//      is JSON-identical to a fresh analyze() of the edited graph that
//      computes its own anchor analysis, and actually runs on warm
//      products.
//   4. Fault-injection fuzz: with the engine's FaultInjector arming
//      every fault class, reanalyze never crashes, never contradicts
//      the certified products, and never drifts from a fresh analyze.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "analyze/analyze.hpp"
#include "analyze/incremental.hpp"
#include "engine/session.hpp"
#include "sched/scheduler.hpp"
#include "testutil.hpp"
#include "wellposed/wellposed.hpp"

namespace relsched {
namespace {

using testing::random_constraint_graph;
using testing::RandomGraphParams;

void random_warm_edit(std::mt19937& rng, engine::SynthesisSession& session) {
  const cg::ConstraintGraph& g = session.graph();
  const int n = g.vertex_count();
  std::vector<EdgeId> constraints;
  for (const cg::Edge& e : g.edges()) {
    if (e.kind != cg::EdgeKind::kSequencing) constraints.push_back(e.id);
  }
  const int choice = static_cast<int>(rng() % 4);
  if (choice == 0 && !constraints.empty()) {
    session.remove_constraint(constraints[rng() % constraints.size()]);
    return;
  }
  if (choice == 1 && !constraints.empty()) {
    const EdgeId e = constraints[rng() % constraints.size()];
    session.set_constraint_bound(e, static_cast<int>(rng() % 8));
    return;
  }
  const int to = 1 + static_cast<int>(rng() % (n - 1));
  const int from = static_cast<int>(rng() % to);
  if (choice == 2) {
    session.add_min_constraint(VertexId(from), VertexId(to),
                               static_cast<int>(rng() % 5));
  } else {
    session.add_max_constraint(VertexId(from), VertexId(to),
                               3 + static_cast<int>(rng() % 10));
  }
}

bool offsets_identical(const cg::ConstraintGraph& g,
                       const sched::ScheduleResult& a,
                       const sched::ScheduleResult& b) {
  for (const cg::Vertex& v : g.vertices()) {
    if (!(a.schedule.offsets(v.id) == b.schedule.offsets(v.id))) return false;
  }
  return true;
}

TEST(PropertyAnalyzeSlack, PerturbAndRecheckBothDirections) {
  std::mt19937 rng(20260808);
  int tested_within = 0, tested_past = 0, tested = 0;
  for (int attempt = 0; attempt < 4000 && tested < 120; ++attempt) {
    RandomGraphParams params;
    params.vertex_count = 8 + static_cast<int>(rng() % 10);
    params.max_constraints = 3;
    cg::ConstraintGraph g = random_constraint_graph(rng, params);
    if (wellposed::make_wellposed(g).status != wellposed::Status::kWellPosed) {
      continue;
    }
    const auto baseline = sched::schedule(g);
    if (!baseline.ok()) continue;
    const analyze::Report report = analyze::analyze(g);
    ASSERT_TRUE(report.ok()) << report.message;
    if (report.slacks.empty()) continue;
    ++tested;

    for (const analyze::ConstraintSlack& s : report.slacks) {
      ASSERT_GE(s.slack, 0) << analyze::render_text(report, g, 0);
      const bool is_max = s.kind == cg::EdgeKind::kMaxConstraint;

      // Within the slack: the minimum schedule must not move. (Max
      // bounds cannot go below zero, so clamp the probe.)
      const graph::Weight within =
          is_max ? std::min<graph::Weight>(s.slack, s.bound) : s.slack;
      if (within > 0) {
        cg::ConstraintGraph tightened = g;
        tightened.set_constraint_bound(
            s.edge, static_cast<int>(is_max ? s.bound - within
                                            : s.bound + within));
        const auto after = sched::schedule(tightened);
        ASSERT_TRUE(after.ok())
            << "graph " << g.name() << ": tightening " << within
            << " within slack " << s.slack << " broke schedulability";
        ASSERT_TRUE(offsets_identical(g, baseline, after))
            << "graph " << g.name() << ": schedule moved within slack";
        ++tested_within;
      }

      // One past the slack: the schedule moves or the graph breaks.
      const graph::Weight past = s.slack + 1;
      if (!is_max || past <= s.bound) {
        cg::ConstraintGraph tightened = g;
        tightened.set_constraint_bound(
            s.edge,
            static_cast<int>(is_max ? s.bound - past : s.bound + past));
        const auto after = sched::schedule(tightened);
        ASSERT_TRUE(!after.ok() || !offsets_identical(g, baseline, after))
            << "graph " << g.name()
            << ": schedule bit-identical one past slack " << s.slack;
        ++tested_past;
      }
    }
  }
  // The properties must have held over a real population.
  ASSERT_GE(tested, 60);
  ASSERT_GT(tested_within, 100);
  ASSERT_GT(tested_past, 100);
}

TEST(PropertyAnalyzeExtract, EveryExtractionCertifies) {
  std::mt19937 rng(97531);
  int ok = 0, infeasible = 0, illposed = 0;
  for (int attempt = 0; attempt < 600; ++attempt) {
    RandomGraphParams params;
    params.vertex_count = 8 + static_cast<int>(rng() % 12);
    params.max_constraints = 1 + static_cast<int>(rng() % 3);
    cg::ConstraintGraph g = random_constraint_graph(rng, params);
    // Half the population goes through make_wellposed (mostly kOk
    // verdicts), half stays raw (ill-posed verdicts too); every third
    // graph gets a positive cycle forced in (the random generator
    // keeps its max constraints feasible on purpose).
    if (attempt % 2 == 0) {
      (void)wellposed::make_wellposed(g);
    }
    if (attempt % 4 == 0) {
      for (const cg::Edge& e : g.edges()) {
        if (e.kind != cg::EdgeKind::kSequencing) continue;
        const cg::Vertex& tail = g.vertex(e.from);
        if (e.from == g.source() || !tail.delay.is_bounded() ||
            tail.delay.cycles() < 1) {
          continue;
        }
        // Separation >= delta(tail) >= 1, bound 0: a positive cycle.
        g.add_max_constraint(e.from, e.to, 0);
        break;
      }
    }
    const analyze::Report report = analyze::analyze(g);
    if (report.status == analyze::Status::kInvalid) continue;
    const analyze::Extraction ex = analyze::extract_critical(g, report);
    ASSERT_TRUE(ex.certified)
        << analyze::to_string(report.status) << ": "
        << ex.certification_error;
    ASSERT_LE(ex.subgraph.vertex_count(), ex.full_vertices);
    ASSERT_LE(ex.subgraph.edge_count(), ex.full_edges);
    switch (report.status) {
      case analyze::Status::kOk:
        ++ok;
        break;
      case analyze::Status::kInfeasible:
        ++infeasible;
        break;
      case analyze::Status::kIllPosed:
        ++illposed;
        break;
      case analyze::Status::kInvalid:
        break;
    }
  }
  // All three verdicts must have been exercised for the certification
  // claim to mean anything.
  ASSERT_GT(ok, 50);
  ASSERT_GT(infeasible, 10);
  ASSERT_GT(illposed, 10);
}

TEST(PropertyAnalyzeIncremental, ReanalyzeMatchesFreshUnderRandomEdits) {
  std::mt19937 rng(6060);
  long long warm_steps = 0;
  for (int trial = 0; trial < 40; ++trial) {
    RandomGraphParams params;
    params.vertex_count = 8 + static_cast<int>(rng() % 8);
    params.max_constraints = 2;
    cg::ConstraintGraph g = random_constraint_graph(rng, params);
    if (wellposed::make_wellposed(g).status != wellposed::Status::kWellPosed) {
      continue;
    }
    engine::SynthesisSession session(std::move(g));
    analyze::IncrementalAnalyzer analyzer;
    for (int step = 0; step < 12; ++step) {
      random_warm_edit(rng, session);
      const analyze::Report& incremental = analyzer.reanalyze(session);
      const analyze::Report fresh = analyze::analyze(session.graph());
      ASSERT_EQ(analyze::to_json(incremental, session.graph()),
                analyze::to_json(fresh, session.graph()))
          << "trial " << trial << " step " << step
          << " warm=" << session.last_resolve_was_warm();
      if (session.last_resolve_was_warm()) ++warm_steps;
    }
  }
  // The equality must have covered warm products, not just cold
  // resolves.
  ASSERT_GT(warm_steps, 20);
}

TEST(PropertyAnalyzeFuzz, FaultInjectionNeverCrashesOrContradictsCertify) {
  std::mt19937 rng(24681357);
  const engine::FaultInjector::Kind kinds[] = {
      engine::FaultInjector::Kind::kCorruptPotential,
      engine::FaultInjector::Kind::kFlipDirtyBit,
      engine::FaultInjector::Kind::kDropJournalEntry,
      engine::FaultInjector::Kind::kTruncateAnchorRow,
      engine::FaultInjector::Kind::kFlipIrredundantBit,
  };
  for (int trial = 0; trial < 60; ++trial) {
    RandomGraphParams params;
    params.vertex_count = 7 + static_cast<int>(rng() % 8);
    cg::ConstraintGraph g = random_constraint_graph(rng, params);
    if (wellposed::make_wellposed(g).status != wellposed::Status::kWellPosed) {
      continue;
    }
    engine::SessionOptions options;
    options.certify = true;  // faults must be caught, not believed
    engine::SynthesisSession session(std::move(g), options);
    analyze::IncrementalAnalyzer analyzer;
    analyzer.reanalyze(session);
    for (int step = 0; step < 6; ++step) {
      session.arm_fault({kinds[rng() % std::size(kinds)], rng()});
      random_warm_edit(rng, session);
      const analyze::Report& report = analyzer.reanalyze(session);
      // The analyze verdict must agree with ground truth on the
      // graph's health, fault or no fault.
      const bool healthy =
          wellposed::is_feasible(session.graph()) &&
          wellposed::check(session.graph()).status ==
              wellposed::Status::kWellPosed;
      ASSERT_EQ(report.ok(), healthy)
          << analyze::render_text(report, session.graph(), 0);
      const analyze::Report fresh = analyze::analyze(session.graph());
      ASSERT_EQ(analyze::to_json(report, session.graph()),
                analyze::to_json(fresh, session.graph()));
    }
  }
}

}  // namespace
}  // namespace relsched
