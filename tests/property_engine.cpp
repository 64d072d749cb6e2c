// Equivalence property for the incremental synthesis engine: for random
// well-posed graphs and random edit sequences (constraint insertion,
// removal, re-weighting), a SynthesisSession resolved after each edit
// produces *bit-identical* products to a cold recompute of the edited
// graph -- same status and message, same A / R / IR sets, same
// anchor-to-vertex path lengths, same schedule offsets. Edits are free
// to drive the graph infeasible or ill-posed and back; the session must
// agree with the cold pipeline at every step.
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <vector>

#include "base/thread_pool.hpp"
#include "engine/session.hpp"
#include "graph/algorithms.hpp"
#include "testutil.hpp"
#include "wellposed/wellposed.hpp"

namespace relsched::engine {
namespace {

/// The cold pipeline the session must match: exactly the sequence
/// cold_resolve() runs, on an independent copy of the graph.
struct ColdProducts {
  sched::ScheduleStatus status = sched::ScheduleStatus::kInvalidGraph;
  std::string message;
  std::optional<anchors::AnchorAnalysis> analysis;
  sched::RelativeSchedule schedule;
};

ColdProducts cold_pipeline(const cg::ConstraintGraph& g) {
  ColdProducts c;
  if (const auto issues = g.validate(); !issues.empty()) {
    c.status = sched::ScheduleStatus::kInvalidGraph;
    c.message = issues.front().message;
    return c;
  }
  if (!wellposed::is_feasible(g)) {
    c.status = sched::ScheduleStatus::kInfeasible;
    c.message = "positive cycle with unbounded delays set to 0";
    return c;
  }
  c.analysis = anchors::AnchorAnalysis::compute(g);
  const auto wp = wellposed::check(g, c.analysis->anchor_sets());
  if (wp.status == wellposed::Status::kIllPosed) {
    c.status = sched::ScheduleStatus::kIllPosed;
    c.message = wp.message;
    return c;
  }
  sched::ScheduleOptions sopts;
  sopts.prechecks = false;
  auto result = sched::schedule(g, *c.analysis, sopts);
  c.status = result.status;
  c.message = result.message;
  c.schedule = std::move(result.schedule);
  return c;
}

void expect_equivalent(const Products& p, const ColdProducts& c,
                       const cg::ConstraintGraph& g, int step) {
  ASSERT_EQ(p.schedule.status, c.status) << "edit step " << step;
  EXPECT_EQ(p.schedule.message, c.message) << "edit step " << step;
  if (c.analysis.has_value() &&
      p.schedule.status != sched::ScheduleStatus::kInfeasible) {
    const anchors::AnchorAnalysis& cold = *c.analysis;
    const anchors::AnchorAnalysis& warm = p.analysis;
    ASSERT_EQ(warm.anchors(), cold.anchors()) << "edit step " << step;
    for (int vi = 0; vi < g.vertex_count(); ++vi) {
      const VertexId v(vi);
      EXPECT_EQ(warm.anchor_set(v), cold.anchor_set(v))
          << "A(v" << vi << "), edit step " << step;
      EXPECT_EQ(warm.relevant_set(v), cold.relevant_set(v))
          << "R(v" << vi << "), edit step " << step;
      EXPECT_EQ(warm.irredundant_set(v), cold.irredundant_set(v))
          << "IR(v" << vi << "), edit step " << step;
      for (VertexId a : cold.anchors()) {
        EXPECT_EQ(warm.length(a, v), cold.length(a, v))
            << "length(v" << a << ", v" << vi << "), edit step " << step;
        EXPECT_EQ(warm.maximal_defining_path_length(a, v),
                  cold.maximal_defining_path_length(a, v))
            << "|rho*(v" << a << ", v" << vi << ")|, edit step " << step;
      }
    }
  }
  if (p.ok()) {
    for (int vi = 0; vi < g.vertex_count(); ++vi) {
      const VertexId v(vi);
      EXPECT_EQ(p.schedule.schedule.offsets(v), c.schedule.offsets(v))
          << "offsets(v" << vi << "), edit step " << step;
    }
  }
}

/// One concrete edit chosen by the generator, decoupled from any
/// particular session so identical edits can be mirrored onto several
/// sessions (transaction-vs-per-edit equivalence below).
struct EditSpec {
  enum class Kind { kAddMax, kAddMin, kSetBound, kRemove };
  Kind kind = Kind::kSetBound;
  VertexId from = VertexId::invalid();
  VertexId to = VertexId::invalid();
  EdgeId edge = EdgeId::invalid();
  int cycles = 0;
};

void apply_edit(SynthesisSession& session, const EditSpec& e) {
  switch (e.kind) {
    case EditSpec::Kind::kAddMax:
      session.add_max_constraint(e.from, e.to, e.cycles);
      return;
    case EditSpec::Kind::kAddMin:
      session.add_min_constraint(e.from, e.to, e.cycles);
      return;
    case EditSpec::Kind::kSetBound:
      session.set_constraint_bound(e.edge, e.cycles);
      return;
    case EditSpec::Kind::kRemove:
      session.remove_constraint(e.edge);
      return;
  }
}

/// Picks one random journaled edit applicable to `g`; nullopt when no
/// applicable edit was found (caller skips the step).
std::optional<EditSpec> pick_random_edit(const cg::ConstraintGraph& g,
                                         std::mt19937& rng) {
  const graph::Digraph forward = g.project_forward();
  EditSpec spec;

  switch (rng() % 4) {
    case 0: {  // add a max constraint between comparable vertices
      const VertexId from(static_cast<int>(
          rng() % static_cast<unsigned>(std::max(1, g.vertex_count() - 1))));
      const auto lp = graph::longest_paths_from(forward, from.value());
      if (lp.positive_cycle) return std::nullopt;
      std::vector<VertexId> reachable;
      for (int vi = 0; vi < g.vertex_count(); ++vi) {
        if (vi != from.value() && lp.dist[static_cast<std::size_t>(vi)] !=
                                      graph::kNegInf) {
          reachable.push_back(VertexId(vi));
        }
      }
      if (reachable.empty()) return std::nullopt;
      spec.kind = EditSpec::Kind::kAddMax;
      spec.from = from;
      spec.to = reachable[rng() % reachable.size()];
      // Slack 0..5 keeps most additions feasible; tightening below
      // drives some of them infeasible.
      spec.cycles = static_cast<int>(lp.dist[spec.to.index()]) +
                    static_cast<int>(rng() % 6);
      return spec;
    }
    case 1: {  // add a min constraint along the topological order
      const auto topo = graph::topological_order(forward);
      if (!topo.has_value() || topo->size() < 2) return std::nullopt;
      const std::size_t i = rng() % (topo->size() - 1);
      const std::size_t j = i + 1 + rng() % (topo->size() - 1 - i);
      // Tail precedes head in a topological order, so the new forward
      // edge cannot close a cycle.
      spec.kind = EditSpec::Kind::kAddMin;
      spec.from = VertexId((*topo)[i]);
      spec.to = VertexId((*topo)[j]);
      spec.cycles = static_cast<int>(rng() % 5);
      return spec;
    }
    case 2: {  // re-weight a constraint edge by +-1
      std::vector<EdgeId> constraints;
      for (const cg::Edge& e : g.edges()) {
        if (e.kind != cg::EdgeKind::kSequencing) constraints.push_back(e.id);
      }
      if (constraints.empty()) return std::nullopt;
      spec.kind = EditSpec::Kind::kSetBound;
      spec.edge = constraints[rng() % constraints.size()];
      const int bound = std::abs(g.edge(spec.edge).fixed_weight);
      spec.cycles = std::max(0, bound + static_cast<int>(rng() % 3) - 1);
      return spec;
    }
    default: {  // remove a constraint edge (respecting polarity guards)
      std::vector<EdgeId> removable;
      for (const cg::Edge& e : g.edges()) {
        if (e.kind == cg::EdgeKind::kMaxConstraint) {
          removable.push_back(e.id);
        } else if (e.kind == cg::EdgeKind::kMinConstraint) {
          int tail_out = 0, head_in = 0;
          for (EdgeId oe : g.out_edges(e.from)) {
            if (cg::is_forward(g.edge(oe).kind)) ++tail_out;
          }
          for (EdgeId ie : g.in_edges(e.to)) {
            if (cg::is_forward(g.edge(ie).kind)) ++head_in;
          }
          if (tail_out > 1 && head_in > 1) removable.push_back(e.id);
        }
      }
      if (removable.empty()) return std::nullopt;
      spec.kind = EditSpec::Kind::kRemove;
      spec.edge = removable[rng() % removable.size()];
      return spec;
    }
  }
}

/// Applies one random journaled edit through the session. Returns false
/// when no applicable edit was found (caller skips the step).
bool random_edit(SynthesisSession& session, std::mt19937& rng) {
  const auto spec = pick_random_edit(session.graph(), rng);
  if (!spec.has_value()) return false;
  apply_edit(session, *spec);
  return true;
}

/// Bit-identical comparison of two sessions' products (transaction
/// commit vs. one-resolve-per-edit). Infeasible and invalid-graph
/// products carry a default-constructed analysis on both paths, so the
/// per-vertex comparisons only run when an analysis was computed.
void expect_sessions_match(const Products& a, const Products& b,
                           const cg::ConstraintGraph& g, int batch) {
  ASSERT_EQ(a.revision, b.revision) << "batch " << batch;
  ASSERT_EQ(a.schedule.status, b.schedule.status) << "batch " << batch;
  EXPECT_EQ(a.schedule.message, b.schedule.message) << "batch " << batch;
  ASSERT_EQ(a.analysis.anchors(), b.analysis.anchors()) << "batch " << batch;
  if (a.schedule.status == sched::ScheduleStatus::kInfeasible ||
      a.schedule.status == sched::ScheduleStatus::kInvalidGraph) {
    return;  // no analysis behind these statuses
  }
  for (int vi = 0; vi < g.vertex_count(); ++vi) {
    const VertexId v(vi);
    EXPECT_EQ(a.analysis.anchor_set(v), b.analysis.anchor_set(v))
        << "A(v" << vi << "), batch " << batch;
    EXPECT_EQ(a.analysis.irredundant_set(v), b.analysis.irredundant_set(v))
        << "IR(v" << vi << "), batch " << batch;
    for (VertexId anchor : a.analysis.anchors()) {
      EXPECT_EQ(a.analysis.length(anchor, v), b.analysis.length(anchor, v))
          << "length(v" << anchor << ", v" << vi << "), batch " << batch;
    }
    if (a.ok() && b.ok()) {
      EXPECT_EQ(a.schedule.schedule.offsets(v), b.schedule.schedule.offsets(v))
          << "offsets(v" << vi << "), batch " << batch;
    }
  }
}

class EngineProperties : public ::testing::TestWithParam<unsigned> {};

TEST_P(EngineProperties, IncrementalResolveMatchesColdRecompute) {
  std::mt19937 rng(GetParam());
  int corpora = 0;
  int warm_total = 0;
  for (int trial = 0; trial < 80; ++trial) {
    relsched::testing::RandomGraphParams params;
    params.vertex_count = 8 + static_cast<int>(rng() % 14);
    params.unbounded_fraction = 0.15 + 0.2 * (rng() % 3);
    params.max_constraints = 1 + static_cast<int>(rng() % 3);
    auto g = relsched::testing::random_constraint_graph(rng, params);
    if (!g.validate().empty()) continue;
    if (wellposed::make_wellposed(g).status != wellposed::Status::kWellPosed) {
      continue;
    }

    SynthesisSession session(std::move(g), {});
    if (!session.resolve().ok()) continue;
    ++corpora;

    for (int step = 0; step < 10; ++step) {
      if (!random_edit(session, rng)) continue;
      const Products& products = session.resolve();
      const ColdProducts cold = cold_pipeline(session.graph());
      expect_equivalent(products, cold, session.graph(), step);
      if (::testing::Test::HasFatalFailure()) return;
    }
    warm_total += session.stats().warm_resolves;
  }
  EXPECT_GT(corpora, 5) << "corpus too thin for seed " << GetParam();
  EXPECT_GT(warm_total, 10) << "edit sequences never exercised the warm path";
}

TEST_P(EngineProperties, ResolveIsIdempotentAndCached) {
  std::mt19937 rng(GetParam());
  relsched::testing::RandomGraphParams params;
  std::optional<cg::ConstraintGraph> graph;
  for (int trial = 0; trial < 40 && !graph.has_value(); ++trial) {
    auto g = relsched::testing::random_constraint_graph(rng, params);
    if (g.validate().empty() && wellposed::make_wellposed(g).status ==
                                    wellposed::Status::kWellPosed) {
      graph = std::move(g);
    }
  }
  ASSERT_TRUE(graph.has_value()) << "no well-posed graph in 40 trials";
  SynthesisSession session(std::move(*graph), {});
  const Products& first = session.resolve();
  const std::uint64_t revision = first.revision;
  const int colds = session.stats().cold_resolves;
  // No edits: resolve() must be a cached no-op.
  const Products& second = session.resolve();
  EXPECT_EQ(second.revision, revision);
  EXPECT_EQ(session.stats().cold_resolves, colds);
  EXPECT_EQ(session.stats().warm_resolves, 0);
}

// A session committing whole transactions must be bit-identical to a
// session resolving after every single edit, at every commit boundary
// -- even when the edits inside a batch pass through infeasible or
// ill-posed intermediate states that the per-edit session materializes
// and the transaction never does. Also checks the cone-coalescing
// accounting: the merged cone never exceeds the sum of the per-edit
// cones, with equality for single-edit (trivially disjoint) batches.
TEST_P(EngineProperties, TransactionsMatchPerEditResolves) {
  std::mt19937 rng(GetParam() * 7919u + 17u);
  int corpora = 0;
  int commits = 0;
  int overlapping = 0;
  for (int trial = 0; trial < 40; ++trial) {
    relsched::testing::RandomGraphParams params;
    params.vertex_count = 8 + static_cast<int>(rng() % 14);
    params.max_constraints = 1 + static_cast<int>(rng() % 3);
    auto g = relsched::testing::random_constraint_graph(rng, params);
    if (!g.validate().empty()) continue;
    if (wellposed::make_wellposed(g).status != wellposed::Status::kWellPosed) {
      continue;
    }
    cg::ConstraintGraph mirror = g;  // identical copy, identical edge ids
    SynthesisSession txn(std::move(g), {});
    SynthesisSession step(std::move(mirror), {});
    if (!txn.resolve().ok()) continue;
    step.resolve();
    ++corpora;

    for (int batch = 0; batch < 6; ++batch) {
      const int want = 1 + static_cast<int>(rng() % 4);
      txn.begin_txn();
      ASSERT_TRUE(txn.in_txn());
      int applied = 0;
      for (int j = 0; j < want; ++j) {
        // Both graphs are identical at every point, so a spec picked on
        // the transaction's graph applies verbatim to the mirror.
        const auto spec = pick_random_edit(txn.graph(), rng);
        if (!spec.has_value()) continue;
        apply_edit(txn, *spec);
        apply_edit(step, *spec);
        step.resolve();  // materializes every intermediate state
        ++applied;
      }
      const Products& committed = txn.commit();
      ++commits;

      const SessionStats stats = txn.stats();
      EXPECT_EQ(stats.last_txn_edits, applied);
      EXPECT_LE(stats.last_merged_cone_vertices, stats.last_cone_vertices_sum);
      if (applied == 1) {
        EXPECT_EQ(stats.last_merged_cone_vertices,
                  stats.last_cone_vertices_sum);
      }
      if (stats.last_merged_cone_vertices < stats.last_cone_vertices_sum) {
        ++overlapping;
      }

      expect_sessions_match(committed, step.products(), txn.graph(), batch);
      expect_equivalent(committed, cold_pipeline(txn.graph()),
                        txn.graph(), batch);
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_EQ(txn.stats().transactions, 6);
  }
  EXPECT_GT(corpora, 3) << "corpus too thin for seed " << GetParam();
  EXPECT_GT(commits, 18) << "too few transactions committed";
  EXPECT_GT(overlapping, 0) << "no batch ever coalesced overlapping cones";
}

// The pool-sharded cold anchor analysis, AnchorAnalysis::compute(g,
// pool), must be bit-identical to the sequential one at any pool
// width: same A / R / IR sets, same length and defining-path rows.
TEST_P(EngineProperties, PooledAnalysisMatchesSequential) {
  std::mt19937 rng(GetParam() * 2654435761u + 9u);
  base::WorkStealingPool pool2(2);
  base::WorkStealingPool pool8(8);
  int corpora = 0;
  for (int trial = 0; trial < 80; ++trial) {
    relsched::testing::RandomGraphParams params;
    params.vertex_count = 10 + static_cast<int>(rng() % 14);
    params.unbounded_fraction = 0.15 + 0.2 * (rng() % 3);
    params.max_constraints = 1 + static_cast<int>(rng() % 3);
    const auto g = relsched::testing::random_constraint_graph(rng, params);
    if (!g.validate().empty() || !wellposed::is_feasible(g)) continue;
    ++corpora;

    const auto seq = anchors::AnchorAnalysis::compute(g, nullptr);
    for (base::WorkStealingPool* pool : {&pool2, &pool8}) {
      const auto par = anchors::AnchorAnalysis::compute(g, pool);
      ASSERT_EQ(par.anchors(), seq.anchors()) << pool->thread_count();
      for (int vi = 0; vi < g.vertex_count(); ++vi) {
        const VertexId v(vi);
        EXPECT_EQ(par.anchor_set(v), seq.anchor_set(v)) << "A(v" << vi << ")";
        EXPECT_EQ(par.relevant_set(v), seq.relevant_set(v))
            << "R(v" << vi << ")";
        EXPECT_EQ(par.irredundant_set(v), seq.irredundant_set(v))
            << "IR(v" << vi << ")";
        for (VertexId a : seq.anchors()) {
          EXPECT_EQ(par.length(a, v), seq.length(a, v))
              << "length(v" << a << ", v" << vi << ")";
          EXPECT_EQ(par.maximal_defining_path_length(a, v),
                    seq.maximal_defining_path_length(a, v))
              << "|rho*(v" << a << ", v" << vi << ")|";
        }
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GT(corpora, 20) << "corpus too thin for seed " << GetParam();
}

// Deterministic excursions: a transaction may pass through an
// infeasible configuration (max bound tightened to 0) as long as the
// committed graph resolves; the intermediate state is never
// materialized.
TEST(EngineTransactions, InfeasibleExcursionInsideTxn) {
  relsched::testing::Fig2Graph fig;
  EdgeId max_edge = EdgeId::invalid();
  for (const cg::Edge& e : fig.g.edges()) {
    if (e.kind == cg::EdgeKind::kMaxConstraint) max_edge = e.id;
  }
  SynthesisSession session(std::move(fig.g), {});
  ASSERT_TRUE(session.resolve().ok());
  std::vector<sched::OffsetMap> before;
  for (int vi = 0; vi < session.graph().vertex_count(); ++vi) {
    before.push_back(session.products().schedule.schedule.offsets(VertexId(vi)));
  }

  session.begin_txn();
  session.set_constraint_bound(max_edge, 0);  // infeasible if materialized
  session.set_constraint_bound(max_edge, 2);  // restored inside the txn
  const Products& committed = session.commit();
  EXPECT_TRUE(committed.ok());
  for (int vi = 0; vi < session.graph().vertex_count(); ++vi) {
    EXPECT_EQ(committed.schedule.schedule.offsets(VertexId(vi)),
              before[static_cast<std::size_t>(vi)]);
  }
  // Two edits on the same edge flood the same cone: merged is exactly
  // half of the sum, and strictly below it (overlap, not disjoint).
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.last_txn_edits, 2);
  EXPECT_GT(stats.last_merged_cone_vertices, 0);
  EXPECT_EQ(2LL * stats.last_merged_cone_vertices,
            stats.last_cone_vertices_sum);

  // Sanity: the excursion really is infeasible when materialized.
  session.set_constraint_bound(max_edge, 0);
  EXPECT_EQ(session.resolve().schedule.status,
            sched::ScheduleStatus::kInfeasible);
  session.set_constraint_bound(max_edge, 2);
  EXPECT_TRUE(session.resolve().ok());
}

// Same shape for ill-posedness: a max constraint spanning the unbounded
// anchor `a` (the Fig. 3(a) pattern) is added and removed inside one
// transaction; the commit never sees the ill-posed configuration.
TEST(EngineTransactions, IllPosedExcursionInsideTxn) {
  relsched::testing::Fig2Graph fig;
  const VertexId v0 = fig.v0, v3 = fig.v3;
  SynthesisSession session(std::move(fig.g), {});
  ASSERT_TRUE(session.resolve().ok());
  std::vector<sched::OffsetMap> before;
  for (int vi = 0; vi < session.graph().vertex_count(); ++vi) {
    before.push_back(session.products().schedule.schedule.offsets(VertexId(vi)));
  }

  session.begin_txn();
  const EdgeId bad = session.add_max_constraint(v0, v3, 10);
  session.remove_constraint(bad);
  const Products& committed = session.commit();
  EXPECT_TRUE(committed.ok());
  for (int vi = 0; vi < session.graph().vertex_count(); ++vi) {
    EXPECT_EQ(committed.schedule.schedule.offsets(VertexId(vi)),
              before[static_cast<std::size_t>(vi)]);
  }

  // Sanity: materialized step-by-step, the excursion is ill-posed.
  const EdgeId bad2 = session.add_max_constraint(v0, v3, 10);
  EXPECT_EQ(session.resolve().schedule.status,
            sched::ScheduleStatus::kIllPosed);
  session.remove_constraint(bad2);
  EXPECT_TRUE(session.resolve().ok());
}

// Transaction API preconditions: no nesting, no resolve() or fork()
// with a transaction open, no commit() without begin_txn(). An empty
// transaction commits as a no-op.
TEST(EngineTransactions, ApiPreconditions) {
  relsched::testing::Fig2Graph fig;
  SynthesisSession session(std::move(fig.g), {});
  ASSERT_TRUE(session.resolve().ok());

  session.begin_txn();
  EXPECT_THROW(session.begin_txn(), ApiError);
  EXPECT_THROW(session.resolve(), ApiError);
  EXPECT_THROW((void)session.fork(), ApiError);
  EXPECT_TRUE(session.commit().ok());  // empty batch: cached products
  EXPECT_EQ(session.stats().last_txn_edits, 0);
  EXPECT_THROW(session.commit(), ApiError);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperties,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

}  // namespace
}  // namespace relsched::engine
