// Seeded fuzz harness for the certifying pipeline (deterministic:
// fixed seeds, bounded iterations -- safe for CI under sanitizers).
//
//   1. Breadth: >= 10k random graphs; every failing verdict carries a
//      replayable witness, every schedule the pipeline accepts passes
//      the independent certifier.
//   2. Differential: warm resolves and explorer candidates produce
//      bit-identical products to a cold recompute, with certification
//      enabled and zero certificate failures on clean runs.
//   3. Fault matrix: each injected fault class is either caught by the
//      certifier (cold fallback, counter bumped) or provably harmless
//      -- in both cases the final products are bit-identical to a cold
//      reference.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "base/strings.hpp"
#include "certify/certify.hpp"
#include "engine/session.hpp"
#include "explore/explorer.hpp"
#include "sched/scheduler.hpp"
#include "testutil.hpp"
#include "wellposed/wellposed.hpp"

namespace relsched {
namespace {

using relsched::testing::Fig2Graph;
using relsched::testing::random_constraint_graph;
using relsched::testing::RandomGraphParams;

bool schedules_equal(const sched::RelativeSchedule& a,
                     const sched::RelativeSchedule& b) {
  if (a.vertex_count() != b.vertex_count()) return false;
  for (int v = 0; v < a.vertex_count(); ++v) {
    if (!(a.offsets(VertexId(v)) == b.offsets(VertexId(v)))) return false;
  }
  return true;
}

bool analyses_equal(const cg::ConstraintGraph& g,
                    const anchors::AnchorAnalysis& a,
                    const anchors::AnchorAnalysis& b) {
  if (a.anchors() != b.anchors()) return false;
  for (int v = 0; v < g.vertex_count(); ++v) {
    if (!(a.relevant_set(VertexId(v)) == b.relevant_set(VertexId(v))) ||
        !(a.irredundant_set(VertexId(v)) == b.irredundant_set(VertexId(v)))) {
      return false;
    }
  }
  for (VertexId anchor : a.anchors()) {
    for (int v = 0; v < g.vertex_count(); ++v) {
      if (a.length(anchor, VertexId(v)) != b.length(anchor, VertexId(v))) {
        return false;
      }
    }
  }
  return true;
}

/// Constraint edges whose bound set_constraint_bound may edit.
std::vector<EdgeId> constraint_edges(const cg::ConstraintGraph& g) {
  std::vector<EdgeId> out;
  for (const cg::Edge& e : g.edges()) {
    if (e.kind != cg::EdgeKind::kSequencing) out.push_back(e.id);
  }
  return out;
}

/// A warm-path-friendly (non-structural) random bound edit: loosen max
/// constraints / tighten them back within a small window.
int perturbed_bound(const cg::ConstraintGraph& g, EdgeId e, std::mt19937& rng) {
  const int bound = std::abs(g.edge(e).fixed_weight);
  const int delta = static_cast<int>(rng() % 3);  // 0..2
  return bound + delta;
}

TEST(FuzzCertify, TenThousandGraphsWitnessAndCertify) {
  std::mt19937 rng(0xC0FFEE);
  RandomGraphParams params;
  params.vertex_count = 10;
  params.max_constraints = 3;
  int witnessed = 0;
  int certified = 0;
  for (int iter = 0; iter < 10000; ++iter) {
    cg::ConstraintGraph g = random_constraint_graph(rng, params);
    const auto r = wellposed::check(g);
    if (r.status != wellposed::Status::kWellPosed) {
      ASSERT_TRUE(r.diag.has_witness())
          << "iter " << iter << ": verdict '"
          << wellposed::to_string(r.status) << "' without a witness";
      const auto reason = certify::verify_witness(g, r.diag);
      ASSERT_EQ(reason, std::nullopt) << "iter " << iter << ": " << *reason;
      ++witnessed;
      continue;
    }
    const auto analysis = anchors::AnchorAnalysis::compute(g);
    sched::ScheduleOptions sopts;
    sopts.prechecks = false;
    const auto result = sched::schedule(g, analysis, sopts);
    if (!result.ok()) continue;
    const certify::Diag diag =
        certify::check_products(g, analysis, result.schedule);
    ASSERT_EQ(diag.code, certify::Code::kNone)
        << "iter " << iter << ": " << certify::render(diag, g);
    ++certified;
  }
  // The generator must exercise both sides heavily.
  EXPECT_GT(witnessed, 500);
  EXPECT_GT(certified, 300);
}

TEST(FuzzCertify, WarmResolvesMatchColdUnderCertification) {
  std::mt19937 rng(0x5EED);
  RandomGraphParams params;
  params.vertex_count = 12;
  engine::SessionOptions copts;
  copts.certify = true;
  int edits_checked = 0;
  for (int iter = 0; iter < 400; ++iter) {
    cg::ConstraintGraph g = random_constraint_graph(rng, params);
    if (wellposed::make_wellposed(g).status != wellposed::Status::kWellPosed) {
      continue;
    }
    engine::SynthesisSession session(g, copts);
    if (!session.resolve().ok()) continue;
    const auto edges = constraint_edges(session.graph());
    if (edges.empty()) continue;
    for (int edit = 0; edit < 8; ++edit) {
      const EdgeId e = edges[rng() % edges.size()];
      session.set_constraint_bound(e,
                                   perturbed_bound(session.graph(), e, rng));
      const engine::Products& warm = session.resolve();
      engine::SynthesisSession cold(session.graph(), copts);
      const engine::Products& ref = cold.resolve();
      ASSERT_EQ(warm.schedule.status, ref.schedule.status) << "iter " << iter;
      if (warm.ok()) {
        ASSERT_TRUE(schedules_equal(warm.schedule.schedule,
                                    ref.schedule.schedule))
            << "iter " << iter << " edit " << edit;
        ASSERT_TRUE(analyses_equal(session.graph(), warm.analysis,
                                   ref.analysis))
            << "iter " << iter << " edit " << edit;
      } else {
        // Failing verdicts must carry a witness replayable against the
        // session's graph (attached by the engine's certification).
        ASSERT_TRUE(warm.schedule.diag.has_witness())
            << warm.schedule.message;
        EXPECT_EQ(certify::verify_witness(session.graph(), warm.schedule.diag),
                  std::nullopt);
      }
      ++edits_checked;
    }
    // Clean runs must never trip the certifier.
    EXPECT_EQ(session.stats().certificate_failures, 0) << "iter " << iter;
    EXPECT_GT(session.stats().certified_resolves, 0);
  }
  EXPECT_GT(edits_checked, 200);
}

TEST(FuzzCertify, ExplorerCandidatesMatchColdUnderCertification) {
  std::mt19937 rng(0xE8A1);
  RandomGraphParams params;
  params.vertex_count = 12;
  engine::SessionOptions copts;
  copts.certify = true;
  int candidates_checked = 0;
  for (int iter = 0; iter < 25; ++iter) {
    cg::ConstraintGraph g = random_constraint_graph(rng, params);
    if (wellposed::make_wellposed(g).status != wellposed::Status::kWellPosed) {
      continue;
    }
    engine::SynthesisSession base(g, copts);
    if (!base.resolve().ok()) continue;
    const auto edges = constraint_edges(base.graph());
    if (edges.empty()) continue;

    std::vector<explore::Candidate> candidates;
    for (int c = 0; c < 6; ++c) {
      const EdgeId e = edges[rng() % edges.size()];
      explore::Candidate cand;
      cand.label = cat("c", c);
      cand.edits.push_back(explore::EditOp::set_bound(
          e, perturbed_bound(base.graph(), e, rng)));
      candidates.push_back(std::move(cand));
    }

    const cg::ConstraintGraph base_graph = base.graph();
    explore::Explorer explorer(std::move(base));
    const auto result = explorer.explore(candidates, explore::min_latency());
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const auto& slot = result.candidates[c];
      // Cold reference: replay the candidate's edit on a fresh graph.
      cg::ConstraintGraph cand_graph = base_graph;
      cand_graph.set_constraint_bound(candidates[c].edits[0].edge,
                                      candidates[c].edits[0].cycles);
      engine::SynthesisSession cold(cand_graph, copts);
      const engine::Products& ref = cold.resolve();
      ASSERT_EQ(slot.feasible, ref.ok()) << "iter " << iter << " cand " << c;
      if (slot.feasible) {
        ASSERT_TRUE(schedules_equal(slot.products.schedule.schedule,
                                    ref.schedule.schedule));
      } else {
        // Satellite: the explorer surfaces the per-candidate witness.
        EXPECT_TRUE(slot.diag.has_witness()) << slot.error;
        EXPECT_EQ(certify::verify_witness(cand_graph, slot.diag),
                  std::nullopt);
      }
      EXPECT_EQ(slot.stats.certificate_failures, 0);
      ++candidates_checked;
    }
  }
  EXPECT_GT(candidates_checked, 30);
}

// ---- Fault injection --------------------------------------------------

struct FaultScenario {
  engine::FaultInjector::Kind kind;
  const char* name;
  /// Some fault classes are architecturally harmless (the corrupted
  /// state is re-derived before anything consumes it); those only
  /// assert bit-identity, not a catch.
  bool must_be_caught;
};

constexpr FaultScenario kFaultMatrix[] = {
    // Corrupted potentials are re-derived from the schedule after
    // every successful resolve and positive cycles always pass through
    // an edited seed, so this class is harmless by construction -- the
    // harness proves it stays that way.
    {engine::FaultInjector::Kind::kCorruptPotential, "corrupt-potential",
     false},
    {engine::FaultInjector::Kind::kFlipDirtyBit, "flip-dirty-bit", true},
    {engine::FaultInjector::Kind::kDropJournalEntry, "drop-journal-entry",
     true},
    {engine::FaultInjector::Kind::kTruncateAnchorRow, "truncate-anchor-row",
     true},
    {engine::FaultInjector::Kind::kFlipIrredundantBit, "flip-irredundant-bit",
     true},
};

/// One directed injection: resolve Fig 2 warm across a bound edit with
/// `fault` armed; the result must be bit-identical to a cold resolve of
/// the edited graph. Returns true when the certifier caught the fault.
bool run_directed_fault(engine::FaultInjector fault) {
  Fig2Graph f;
  engine::SessionOptions copts;
  copts.certify = true;
  engine::SynthesisSession session(f.g, copts);
  EXPECT_TRUE(session.resolve().ok());

  // Tighten the min constraint v0 -> v3 from 3 to 6: offsets of v3 and
  // v4 must rise, so stale products are observably wrong.
  EdgeId min_edge = EdgeId::invalid();
  for (const cg::Edge& e : session.graph().edges()) {
    if (e.kind == cg::EdgeKind::kMinConstraint) min_edge = e.id;
  }
  EXPECT_TRUE(min_edge.is_valid());
  session.arm_fault(fault);
  session.set_constraint_bound(min_edge, 6);
  const engine::Products& got = session.resolve();

  engine::SynthesisSession ref(session.graph(), engine::SessionOptions{});
  const engine::Products& want = ref.resolve();
  EXPECT_EQ(got.schedule.status, want.schedule.status);
  EXPECT_TRUE(got.ok());
  EXPECT_TRUE(schedules_equal(got.schedule.schedule, want.schedule.schedule));
  EXPECT_TRUE(analyses_equal(session.graph(), got.analysis, want.analysis));
  const bool caught = session.stats().certificate_failures > 0;
  if (caught) {
    // The catch is recorded with the certifier's diagnostic.
    EXPECT_FALSE(got.certificate.ok());
  }
  return caught;
}

TEST(FaultInjection, DirectedEveryClassCaughtOrHarmless) {
  for (const FaultScenario& scenario : kFaultMatrix) {
    bool caught_any = false;
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
      caught_any = run_directed_fault({scenario.kind, seed}) || caught_any;
    }
    if (scenario.must_be_caught) {
      EXPECT_TRUE(caught_any)
          << scenario.name << ": no seed produced a certifier catch";
    }
  }
}

TEST(FaultInjection, RandomGraphsStayBitIdenticalUnderFaults) {
  std::mt19937 rng(0xFA017);
  RandomGraphParams params;
  params.vertex_count = 12;
  engine::SessionOptions copts;
  copts.certify = true;
  int runs = 0;
  long long caught_total = 0;
  for (int iter = 0; iter < 250; ++iter) {
    cg::ConstraintGraph g = random_constraint_graph(rng, params);
    if (wellposed::make_wellposed(g).status != wellposed::Status::kWellPosed) {
      continue;
    }
    for (const FaultScenario& scenario : kFaultMatrix) {
      engine::SynthesisSession session(g, copts);
      if (!session.resolve().ok()) continue;
      const auto edges = constraint_edges(session.graph());
      if (edges.empty()) continue;
      const EdgeId e = edges[rng() % edges.size()];
      session.arm_fault({scenario.kind, rng()});
      session.set_constraint_bound(e,
                                   perturbed_bound(session.graph(), e, rng));
      const engine::Products& got = session.resolve();

      engine::SynthesisSession ref(session.graph(), engine::SessionOptions{});
      const engine::Products& want = ref.resolve();
      ASSERT_EQ(got.schedule.status, want.schedule.status)
          << scenario.name << " iter " << iter;
      if (got.ok()) {
        ASSERT_TRUE(schedules_equal(got.schedule.schedule,
                                    want.schedule.schedule))
            << scenario.name << " iter " << iter;
        ASSERT_TRUE(analyses_equal(session.graph(), got.analysis,
                                   want.analysis))
            << scenario.name << " iter " << iter;
      }
      caught_total += session.stats().certificate_failures;
      ++runs;
    }
  }
  EXPECT_GT(runs, 50);
  // Across the random matrix the certifier must fire at least once
  // (the directed test already proves each class individually).
  EXPECT_GT(caught_total, 0);
}

}  // namespace
}  // namespace relsched
