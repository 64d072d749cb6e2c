// Randomized property tests for the static analyzer:
//
//   1. strip_redundant preserves the minimum relative schedule
//      bit-for-bit (every OffsetMap identical) on randomized
//      well-posed graphs -- the analyzer's core soundness claim.
//   2. unsat_core extracts a verified, single-deletion-minimal core on
//      randomized infeasible graphs: the core replays infeasible and
//      goes feasible on ANY single core-edge removal.
//   3. Fault-injection fuzz: with the engine's FaultInjector arming
//      every fault class, lint on the session's products never crashes
//      and never contradicts them (errors iff the graph is infeasible
//      or ill-posed), and matches a lint that computes its own anchor
//      analysis from the edited graph.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "engine/session.hpp"
#include "lint/lint.hpp"
#include "sched/scheduler.hpp"
#include "testutil.hpp"
#include "wellposed/wellposed.hpp"

namespace relsched {
namespace {

using testing::random_constraint_graph;
using testing::RandomGraphParams;

TEST(PropertyLintStrip, ScheduleIsBitIdenticalOnRandomGraphs) {
  std::mt19937 rng(20260806);
  int stripped_graphs = 0, stripped_edges = 0, tested = 0;
  // Only a fraction of random graphs survive the well-posedness +
  // schedulability filter, so run attempts until the population bar is
  // met (the cap keeps a regression from looping forever).
  for (int attempt = 0; attempt < 5000 && tested < 200; ++attempt) {
    RandomGraphParams params;
    params.vertex_count = 8 + static_cast<int>(rng() % 10);
    params.max_constraints = 3;
    cg::ConstraintGraph g = random_constraint_graph(rng, params);
    // Seed extra redundancy: duplicate a random constraint edge so the
    // strip pass has real work on most trials.
    std::vector<EdgeId> constraints;
    for (const cg::Edge& e : g.edges()) {
      if (e.kind != cg::EdgeKind::kSequencing) constraints.push_back(e.id);
    }
    if (!constraints.empty() && rng() % 2 == 0) {
      const cg::Edge& e = g.edge(constraints[rng() % constraints.size()]);
      if (e.kind == cg::EdgeKind::kMinConstraint) {
        g.add_min_constraint(e.from, e.to, e.fixed_weight);
      } else {
        g.add_max_constraint(e.to, e.from, -e.fixed_weight);
      }
    }
    if (wellposed::make_wellposed(g).status != wellposed::Status::kWellPosed) {
      continue;  // strip_redundant requires a schedulable graph
    }
    const auto before = sched::schedule(g);
    if (!before.ok()) continue;
    ++tested;

    cg::ConstraintGraph stripped = g;
    const auto removed = lint::strip_redundant(stripped);
    ASSERT_TRUE(stripped.validate().empty());
    stripped_graphs += removed.empty() ? 0 : 1;
    stripped_edges += static_cast<int>(removed.size());

    const auto after = sched::schedule(stripped);
    ASSERT_TRUE(after.ok()) << "stripping broke schedulability";
    for (const cg::Vertex& v : g.vertices()) {
      ASSERT_EQ(before.schedule.offsets(v.id), after.schedule.offsets(v.id))
          << "offsets of " << v.name << " changed after stripping "
          << removed.size() << " edge(s)";
    }
  }
  // The acceptance bar: the identity held over a real population, not
  // a vacuous one.
  ASSERT_GE(tested, 200) << "too few schedulable graphs generated";
  ASSERT_GT(stripped_edges, 50) << "stripping never found work";
}

TEST(PropertyLintUnsatCore, CoresAreMinimalAndVerifiedOnRandomGraphs) {
  std::mt19937 rng(987654);
  int tested = 0;
  for (int trial = 0; trial < 200 && tested < 60; ++trial) {
    RandomGraphParams params;
    params.vertex_count = 7 + static_cast<int>(rng() % 8);
    params.max_constraints = 3;
    cg::ConstraintGraph g = random_constraint_graph(rng, params);
    // Make it infeasible: pick a sequencing edge and clamp its span
    // with a max bound strictly below a min bound on the same pair.
    const cg::Edge* seq = nullptr;
    for (const cg::Edge& e : g.edges()) {
      if (e.kind == cg::EdgeKind::kSequencing) {
        seq = &e;
        break;
      }
    }
    ASSERT_NE(seq, nullptr);
    // Copy the endpoints first: add_min_constraint may reallocate the
    // edge vector `seq` points into.
    const VertexId cfrom = seq->from;
    const VertexId cto = seq->to;
    const int lo = 2 + static_cast<int>(rng() % 5);
    g.add_min_constraint(cfrom, cto, lo);
    g.add_max_constraint(cfrom, cto, lo - 1 - (rng() % 2 ? 1 : 0));
    if (g.validate().empty() == false) continue;
    if (wellposed::is_feasible(g)) continue;
    ++tested;

    const lint::UnsatCore core = lint::unsat_core(g);
    ASSERT_FALSE(core.core.empty());
    ASSERT_TRUE(core.minimal);
    ASSERT_TRUE(core.verified()) << core.verification_error;
    // Replay: the reduced core graph is infeasible...
    const cg::ConstraintGraph reduced = lint::core_graph(g, core.core);
    ASSERT_FALSE(wellposed::is_feasible(reduced));
    // ...and the core is irreducible: dropping ANY single core edge
    // from the REDUCED core graph restores feasibility. (The full
    // graph may hold further independent conflicts that the deletion
    // filter discarded, so minimality is relative to the core itself.)
    for (const EdgeId e : core.core) {
      std::vector<EdgeId> sub;
      for (const EdgeId k : core.core) {
        if (k != e) sub.push_back(k);
      }
      ASSERT_TRUE(wellposed::is_feasible(lint::core_graph(g, sub)))
          << "core is not irreducible: dropping one edge stayed infeasible";
    }
  }
  ASSERT_GE(tested, 40) << "too few infeasible graphs generated";
}

/// One random constraint-only edit through the session's journaled
/// API, keeping the graph structurally valid (forward edges only go
/// from lower to higher creation index, which is a topological order
/// of the generator's spine).
void random_warm_edit(std::mt19937& rng, engine::SynthesisSession& session) {
  const cg::ConstraintGraph& g = session.graph();
  const int n = g.vertex_count();
  std::vector<EdgeId> constraints;
  for (const cg::Edge& e : g.edges()) {
    if (e.kind != cg::EdgeKind::kSequencing) constraints.push_back(e.id);
  }
  const int choice = static_cast<int>(rng() % 4);
  if (choice == 0 && !constraints.empty()) {
    const EdgeId victim = constraints[rng() % constraints.size()];
    session.remove_constraint(victim);
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

TEST(PropertyLintFuzz, FaultInjectionNeverCrashesOrContradictsCertify) {
  std::mt19937 rng(13371337);
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
    session.resolve();
    for (int step = 0; step < 6; ++step) {
      session.arm_fault({kinds[rng() % std::size(kinds)], rng()});
      random_warm_edit(rng, session);
      const engine::Products& products = session.resolve();
      const lint::Report report = lint::analyze(
          session.graph(), products.ok() ? &products.analysis : nullptr, {});
      // Certified products and the lint verdict must agree on the
      // graph's health: error findings iff the graph cannot schedule.
      const bool lint_errors = report.count(lint::Severity::kError) > 0;
      const bool feasible_and_posed =
          wellposed::is_feasible(session.graph()) &&
          wellposed::check(session.graph()).status ==
              wellposed::Status::kWellPosed;
      ASSERT_EQ(lint_errors, !feasible_and_posed)
          << lint::render_text(report, session.graph());
      // And the products' analysis answers like a freshly computed one.
      const lint::Report fresh = lint::analyze(session.graph());
      ASSERT_EQ(lint::render_text(report, session.graph()),
                lint::render_text(fresh, session.graph()));
    }
  }
}

}  // namespace
}  // namespace relsched
