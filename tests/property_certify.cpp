// Property tests for the certificate layer (src/certify):
//
//   - every kInfeasible / kIllPosed verdict on seeded random graphs
//     carries a witness that verify_witness accepts;
//   - mutating any element of a witness makes verify_witness reject it;
//   - check_schedule / check_products accept every schedule the
//     pipeline produces and reject any single-offset corruption.
#include "certify/certify.hpp"

#include <gtest/gtest.h>

#include <random>

#include "anchors/anchor_analysis.hpp"
#include "sched/scheduler.hpp"
#include "testutil.hpp"
#include "wellposed/wellposed.hpp"

namespace relsched::certify {
namespace {

using relsched::testing::Fig2Graph;
using relsched::testing::Fig3aGraph;
using relsched::testing::Fig3bGraph;
using relsched::testing::random_constraint_graph;
using relsched::testing::RandomGraphParams;

cg::ConstraintGraph infeasible_graph() {
  // v1 (delay 3) between the ends of a 2-cycle max constraint: positive
  // cycle v1 -> v2 -> v1 of weight 3 - 2 = +1.
  cg::ConstraintGraph g;
  const VertexId v0 = g.add_vertex("v0", cg::Delay::bounded(0));
  const VertexId v1 = g.add_vertex("v1", cg::Delay::bounded(3));
  const VertexId v2 = g.add_vertex("v2", cg::Delay::bounded(1));
  g.add_sequencing_edge(v0, v1);
  g.add_sequencing_edge(v1, v2);
  g.add_max_constraint(v1, v2, 2);
  return g;
}

TEST(PositiveCycleWitness, FoundAndReplayable) {
  const cg::ConstraintGraph g = infeasible_graph();
  const Diag diag = find_positive_cycle(g);
  ASSERT_EQ(diag.code, Code::kPositiveCycle);
  ASSERT_TRUE(diag.has_witness());
  EXPECT_EQ(verify_witness(g, diag), std::nullopt) << *verify_witness(g, diag);
}

TEST(PositiveCycleWitness, FeasibleGraphHasNone) {
  Fig2Graph f;
  EXPECT_EQ(find_positive_cycle(f.g).code, Code::kNone);
}

TEST(PositiveCycleWitness, EveryMutationRejected) {
  const cg::ConstraintGraph g = infeasible_graph();
  const Diag diag = find_positive_cycle(g);
  const auto& w = std::get<CycleWitness>(diag.witness);

  {  // wrong total
    Diag m = diag;
    std::get<CycleWitness>(m.witness).total += 1;
    EXPECT_NE(verify_witness(g, m), std::nullopt);
  }
  {  // dropped edge: walk no longer closed (or empty)
    Diag m = diag;
    std::get<CycleWitness>(m.witness).edges.pop_back();
    EXPECT_NE(verify_witness(g, m), std::nullopt);
  }
  {  // out-of-range edge id
    Diag m = diag;
    std::get<CycleWitness>(m.witness).edges.front() = EdgeId(g.edge_count());
    EXPECT_NE(verify_witness(g, m), std::nullopt);
  }
  {  // duplicated edge: breaks the closed walk
    Diag m = diag;
    auto& edges = std::get<CycleWitness>(m.witness).edges;
    edges.push_back(edges.front());
    EXPECT_NE(verify_witness(g, m), std::nullopt);
  }
  {  // witness stolen for a different (feasible) graph
    Fig2Graph f;
    Diag m = diag;
    (void)w;
    EXPECT_NE(verify_witness(f.g, m), std::nullopt);
  }
}

TEST(ContainmentWitness, Fig3bCheckCarriesDefiningPath) {
  Fig3bGraph f;
  const auto r = wellposed::check(f.g);
  ASSERT_EQ(r.status, wellposed::Status::kIllPosed);
  ASSERT_EQ(r.diag.code, Code::kContainment);
  ASSERT_TRUE(r.diag.has_witness());
  EXPECT_EQ(verify_witness(f.g, r.diag), std::nullopt)
      << *verify_witness(f.g, r.diag);
  const auto& w = std::get<ContainmentWitness>(r.diag.witness);
  EXPECT_EQ(w.backward_edge, r.violating_edge);
  EXPECT_TRUE(f.g.is_anchor(w.anchor));
}

TEST(ContainmentWitness, EveryMutationRejected) {
  Fig3bGraph f;
  const Diag diag = wellposed::check(f.g).diag;
  ASSERT_EQ(diag.code, Code::kContainment);

  {  // anchor swapped for a non-anchor
    Diag m = diag;
    std::get<ContainmentWitness>(m.witness).anchor = f.vi;
    EXPECT_NE(verify_witness(f.g, m), std::nullopt);
  }
  {  // backward edge swapped for a forward edge
    Diag m = diag;
    std::get<ContainmentWitness>(m.witness).backward_edge = EdgeId(0);
    EXPECT_NE(verify_witness(f.g, m), std::nullopt);
  }
  {  // truncated path no longer reaches the tail
    Diag m = diag;
    std::get<ContainmentWitness>(m.witness).path.pop_back();
    EXPECT_NE(verify_witness(f.g, m), std::nullopt);
  }
  {  // code flipped: containment witness claiming anchor-in-window
    Diag m = diag;
    m.code = Code::kAnchorInWindow;
    EXPECT_NE(verify_witness(f.g, m), std::nullopt);
  }
}

TEST(UnboundedCycleWitness, Fig3aMakeWellposedCarriesPath) {
  // Fig 3(a): the missing anchor 'a' sits downstream of the head vi, so
  // serializing a -> vi would close the forward cycle vi -> a -> vi.
  Fig3aGraph f;
  const cg::ConstraintGraph before = f.g;
  auto r = wellposed::make_wellposed(f.g);
  ASSERT_EQ(r.status, wellposed::Status::kIllPosed);
  ASSERT_EQ(r.diag.code, Code::kUnboundedCycle);
  // The witness verifies against the rolled-back graph with the
  // pre-failure serializing edges re-applied (none here).
  cg::ConstraintGraph wg = f.g;
  for (const auto& [a, v] : r.added_edges) wg.add_sequencing_edge(a, v);
  EXPECT_EQ(verify_witness(wg, r.diag), std::nullopt)
      << *verify_witness(wg, r.diag);

  {  // mutation: path rerouted through a missing edge list
    Diag m = r.diag;
    std::get<UnboundedCycleWitness>(m.witness).path.clear();
    EXPECT_NE(verify_witness(wg, m), std::nullopt);
  }
  {  // mutation: anchor swapped for a bounded vertex
    Diag m = r.diag;
    std::get<UnboundedCycleWitness>(m.witness).anchor = f.vj;
    EXPECT_NE(verify_witness(wg, m), std::nullopt);
  }
}

TEST(AnchorInWindowWitness, MaxConstraintFromAnchorItself) {
  // max constraint whose own head is the unbounded anchor: the anchor's
  // delay sits inside its window (Fig 3(a) variant, a == head).
  cg::ConstraintGraph g;
  const VertexId v0 = g.add_vertex("v0", cg::Delay::bounded(0));
  const VertexId a = g.add_vertex("a", cg::Delay::unbounded());
  const VertexId vj = g.add_vertex("vj", cg::Delay::bounded(1));
  g.add_sequencing_edge(v0, a);
  g.add_sequencing_edge(a, vj);
  g.add_max_constraint(a, vj, 4);

  auto r = wellposed::make_wellposed(g);
  ASSERT_EQ(r.status, wellposed::Status::kIllPosed);
  ASSERT_EQ(r.diag.code, Code::kAnchorInWindow);
  cg::ConstraintGraph wg = g;
  for (const auto& [x, v] : r.added_edges) wg.add_sequencing_edge(x, v);
  EXPECT_EQ(verify_witness(wg, r.diag), std::nullopt)
      << *verify_witness(wg, r.diag);

  // Mutation: claiming a kContainment code for an in-window anchor.
  Diag m = r.diag;
  m.code = Code::kContainment;
  EXPECT_NE(verify_witness(wg, m), std::nullopt);
}

TEST(CheckSchedule, AcceptsPaperSchedule) {
  Fig2Graph f;
  const auto analysis = anchors::AnchorAnalysis::compute(f.g);
  const auto result = sched::schedule(f.g, analysis);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(check_schedule(f.g, result.schedule).code, Code::kNone);
  EXPECT_EQ(check_products(f.g, analysis, result.schedule).code, Code::kNone);
}

TEST(CheckSchedule, CatchesLoweredOffset) {
  Fig2Graph f;
  const auto analysis = anchors::AnchorAnalysis::compute(f.g);
  auto result = sched::schedule(f.g, analysis);
  ASSERT_TRUE(result.ok());
  // v4 tracks sigma_v0 = 8 (Table II); lowering it violates the
  // sequencing edge v3 -> v4.
  result.schedule.offsets(f.v4).set(f.g.source(), 0);
  const Diag diag = check_schedule(f.g, result.schedule);
  ASSERT_EQ(diag.code, Code::kScheduleViolation);
  ASSERT_TRUE(diag.has_witness());
  EXPECT_EQ(verify_witness(f.g, diag), std::nullopt)
      << *verify_witness(f.g, diag);
}

TEST(CheckProducts, CatchesForeignAnchorEntry) {
  Fig2Graph f;
  const auto analysis = anchors::AnchorAnalysis::compute(f.g);
  auto result = sched::schedule(f.g, analysis);
  ASSERT_TRUE(result.ok());
  // v1 does not track 'a' (no path a -> v1); a spurious huge entry
  // keeps the schedule numerically valid but breaks A(v) tracking.
  result.schedule.offsets(f.v1).set(f.a, 50);
  EXPECT_NE(check_products(f.g, analysis, result.schedule).code, Code::kNone);
}

TEST(Rendering, HumanAndJsonCarryCodeAndWitness) {
  const cg::ConstraintGraph g = infeasible_graph();
  const Diag diag = find_positive_cycle(g);
  const std::string text = render(diag, g);
  EXPECT_NE(text.find("positive-cycle"), std::string::npos);
  EXPECT_NE(text.find("cycle"), std::string::npos);
  const std::string json = to_json(diag, g);
  EXPECT_NE(json.find("\"code\":\"positive-cycle\""), std::string::npos);
  EXPECT_NE(json.find("\"witness\""), std::string::npos);

  // Vertex names are arbitrary bytes (.cgb): control bytes in a name on
  // the cycle must come out escaped, never raw.
  cg::ConstraintGraph hairy;
  const VertexId h0 = hairy.add_vertex("v0", cg::Delay::bounded(0));
  const VertexId h1 = hairy.add_vertex("v\t1\x01", cg::Delay::bounded(3));
  const VertexId h2 = hairy.add_vertex("v2", cg::Delay::bounded(1));
  hairy.add_sequencing_edge(h0, h1);
  hairy.add_sequencing_edge(h1, h2);
  hairy.add_max_constraint(h1, h2, 2);
  const Diag hairy_diag = find_positive_cycle(hairy);
  ASSERT_EQ(hairy_diag.code, Code::kPositiveCycle);
  const std::string hairy_json = to_json(hairy_diag, hairy);
  for (const char c : hairy_json) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << hairy_json;
  }
  EXPECT_NE(hairy_json.find("v\\t1\\u0001"), std::string::npos)
      << hairy_json;
}

// The headline property (seeded, deterministic): every failing verdict
// the pipeline can produce on random graphs carries a witness that
// replays cleanly, and a stock mutation of that witness is rejected.
TEST(WitnessProperty, RandomGraphVerdictsAreWitnessed) {
  std::mt19937 rng(20260806);
  RandomGraphParams params;
  params.vertex_count = 14;
  params.max_constraints = 3;
  int failures_seen = 0;
  for (int iter = 0; iter < 400; ++iter) {
    cg::ConstraintGraph g = random_constraint_graph(rng, params);
    const auto r = wellposed::check(g);
    if (r.status == wellposed::Status::kWellPosed) continue;
    ++failures_seen;
    ASSERT_FALSE(r.diag.ok()) << "failed verdict without a diag";
    ASSERT_TRUE(r.diag.has_witness())
        << "verdict '" << wellposed::to_string(r.status)
        << "' without a witness: " << r.message;
    ASSERT_EQ(verify_witness(g, r.diag), std::nullopt)
        << *verify_witness(g, r.diag) << "\n" << render(r.diag, g);

    // One type-directed mutation per witness; each must be rejected.
    Diag m = r.diag;
    if (auto* cw = std::get_if<CycleWitness>(&m.witness)) {
      cw->total += 1;
    } else if (auto* xw = std::get_if<ContainmentWitness>(&m.witness)) {
      xw->path.clear();
    } else if (auto* uw = std::get_if<UnboundedCycleWitness>(&m.witness)) {
      uw->anchor = VertexId::invalid();
    }
    EXPECT_NE(verify_witness(g, m), std::nullopt);

    // make_wellposed on the same graph: either repairs it or fails
    // with its own replayable witness (against restored + re-applied).
    cg::ConstraintGraph h = g;
    const auto fix = wellposed::make_wellposed(h);
    if (fix.status != wellposed::Status::kWellPosed) {
      ASSERT_TRUE(fix.diag.has_witness()) << fix.message;
      cg::ConstraintGraph wg = h;
      for (const auto& [a, v] : fix.added_edges) wg.add_sequencing_edge(a, v);
      EXPECT_EQ(verify_witness(wg, fix.diag), std::nullopt)
          << *verify_witness(wg, fix.diag);
    }
  }
  // The generator must actually exercise the failure paths.
  EXPECT_GT(failures_seen, 10);
}

// Schedules of random repaired graphs certify cleanly, and any single
// +-1 corruption of any tracked offset is caught by check_products.
TEST(CertifierProperty, RandomSchedulesCertifyAndRejectCorruption) {
  std::mt19937 rng(987654);
  RandomGraphParams params;
  params.vertex_count = 12;
  int schedules_checked = 0;
  for (int iter = 0; iter < 600; ++iter) {
    cg::ConstraintGraph g = random_constraint_graph(rng, params);
    if (wellposed::make_wellposed(g).status != wellposed::Status::kWellPosed) {
      continue;
    }
    const auto analysis = anchors::AnchorAnalysis::compute(g);
    auto result = sched::schedule(g, analysis);
    if (!result.ok()) continue;
    ++schedules_checked;
    ASSERT_EQ(check_products(g, analysis, result.schedule).code, Code::kNone)
        << render(check_products(g, analysis, result.schedule), g);

    // Corrupt one random tracked entry by +-1.
    std::vector<VertexId> tracked;
    for (int v = 0; v < g.vertex_count(); ++v) {
      if (!result.schedule.offsets(VertexId(v)).empty()) {
        tracked.push_back(VertexId(v));
      }
    }
    if (tracked.empty()) continue;
    const VertexId victim =
        tracked[rng() % tracked.size()];
    const auto& entries = result.schedule.offsets(victim).entries();
    const auto entry = entries[rng() % entries.size()];
    const graph::Weight delta = (rng() % 2 == 0) ? 1 : -1;
    result.schedule.offsets(victim).set(entry.first, entry.second + delta);
    EXPECT_NE(check_products(g, analysis, result.schedule).code, Code::kNone)
        << "offset corruption not caught at '" << g.vertex(victim).name << "'";
  }
  EXPECT_GT(schedules_checked, 50);
}

// The IR(v) sets of every well-posed random graph certify cleanly, and
// flipping any single IR bit -- each (vertex, anchor) pair in turn, so
// both dropping a kept anchor and keeping a dropped or foreign one --
// is caught by check_irredundant with its own code.
TEST(CertifierProperty, EveryIrredundantBitFlipIsCaught) {
  std::mt19937 rng(424242);
  RandomGraphParams params;
  params.vertex_count = 12;
  int graphs = 0;
  long long flips = 0;
  int redundant_seen = 0;
  for (int iter = 0; iter < 600; ++iter) {
    cg::ConstraintGraph g = random_constraint_graph(rng, params);
    if (wellposed::make_wellposed(g).status != wellposed::Status::kWellPosed) {
      continue;
    }
    auto analysis = anchors::AnchorAnalysis::compute(g);
    ASSERT_EQ(check_irredundant(g, analysis).code, Code::kNone)
        << check_irredundant(g, analysis).message;
    ++graphs;
    for (int vi = 0; vi < g.vertex_count(); ++vi) {
      const VertexId v(vi);
      if (analysis.relevant_set(v).size() > analysis.irredundant_set(v).size()) {
        ++redundant_seen;
      }
      for (VertexId a : analysis.anchors()) {
        analysis.flip_irredundant_bit_for_testing(v, a);
        EXPECT_EQ(check_irredundant(g, analysis).code, Code::kIrredundantSet)
            << "flip of '" << g.vertex(a).name << "' in IR('"
            << g.vertex(v).name << "') not caught";
        analysis.flip_irredundant_bit_for_testing(v, a);
        ++flips;
      }
    }
    ASSERT_EQ(check_irredundant(g, analysis).code, Code::kNone);
  }
  EXPECT_GT(graphs, 50);
  EXPECT_GT(flips, 1000);
  // Redundant anchors must occur, or the "drop" half is never tested.
  EXPECT_GT(redundant_seen, 0);
}

}  // namespace
}  // namespace relsched::certify
