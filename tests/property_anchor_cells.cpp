// Cone-restricted anchor cells against the dense reference analysis.
//
// AnchorAnalysis stores length(a, v) only inside a's cone and
// |rho*(a, v)| only where a is in R(v), as vertex-major cells aligned
// with the A(v) / R(v) bit rows. The oracle (tests/reference_oracle.hpp)
// keeps one dense row per anchor over all of V. On random feasible
// graphs, ill-posed ones included, every (anchor, vertex) pair must
// answer the same through length() and maximal_defining_path_length():
//
//   1. after a cold compute, sequential and on pools of 1, 2 and 8
//      workers;
//   2. after warm sequences of bound edits, delay edits and
//      min-constraint insertions and removals -- the last two flip A(v)
//      and R(v) bits, so the cell layout is rebuilt mid-sequence;
//   3. after fork-then-patch, where the parent's cells stay untouched;
//   4. after a snapshot round trip of the analysis.
#include <algorithm>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "anchors/anchor_analysis.hpp"
#include "base/strings.hpp"
#include "base/thread_pool.hpp"
#include "engine/session.hpp"
#include "persist/snapshot.hpp"
#include "reference_oracle.hpp"
#include "testutil.hpp"
#include "wellposed/wellposed.hpp"

namespace relsched {
namespace {

namespace oracle = testing::oracle;

/// First disagreement between `got` and the oracle's dense rows (every
/// anchor, every vertex, both value kinds, and the three sets), or ""
/// when they agree everywhere.
std::string mismatch(const cg::ConstraintGraph& g,
                     const anchors::AnchorAnalysis& got) {
  const oracle::Analysis want = oracle::compute(g);
  if (got.anchors() != want.anchors) return "anchor lists differ";
  for (int vi = 0; vi < g.vertex_count(); ++vi) {
    const VertexId v(vi);
    if (!(got.anchor_set(v) == want.anchor_sets[v.index()])) {
      return cat("A(v", vi, ") differs");
    }
    if (!(got.relevant_set(v) == want.relevant[v.index()])) {
      return cat("R(v", vi, ") differs");
    }
    if (!(got.irredundant_set(v) == want.irredundant[v.index()])) {
      return cat("IR(v", vi, ") differs");
    }
    for (std::size_t ai = 0; ai < want.anchors.size(); ++ai) {
      const VertexId a = want.anchors[ai];
      if (got.length(a, v) != want.length_rows[ai][v.index()]) {
        return cat("length(v", a.value(), ", v", vi, ") = ", got.length(a, v),
                   ", oracle ", want.length_rows[ai][v.index()]);
      }
      if (got.maximal_defining_path_length(a, v) !=
          want.defining_rows[ai][v.index()]) {
        return cat("|rho*(v", a.value(), ", v", vi,
                   ")| = ", got.maximal_defining_path_length(a, v),
                   ", oracle ", want.defining_rows[ai][v.index()]);
      }
    }
    // The in-step views carry the same values as the point lookups.
    for (const auto [a, len] : got.lengths_at(v)) {
      if (len != got.length(a, v)) return cat("lengths_at(v", vi, ") skewed");
    }
    for (const auto [a, d] : got.defining_at(v)) {
      if (d != got.maximal_defining_path_length(a, v)) {
        return cat("defining_at(v", vi, ") skewed");
      }
    }
  }
  return "";
}

/// `g` with its vertices other than the source renumbered at random.
/// The generator numbers vertices in a topological order, so a path's
/// anchors would otherwise always ascend in id, and with them in
/// anchor column.
cg::ConstraintGraph shuffled_ids(const cg::ConstraintGraph& g,
                                 std::mt19937& rng) {
  const int n = g.vertex_count();
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin() + 1, order.end(), rng);
  cg::ConstraintGraph out(g.name());
  std::vector<VertexId> renamed(static_cast<std::size_t>(n));
  for (const int old_id : order) {
    const cg::Vertex& v = g.vertex(VertexId(old_id));
    renamed[static_cast<std::size_t>(old_id)] = out.add_vertex(v.name, v.delay);
  }
  for (const cg::Edge& e : g.edges()) {
    const VertexId from = renamed[e.from.index()];
    const VertexId to = renamed[e.to.index()];
    switch (e.kind) {
      case cg::EdgeKind::kSequencing:
        out.add_sequencing_edge(from, to);
        break;
      case cg::EdgeKind::kMinConstraint:
        out.add_min_constraint(from, to, e.fixed_weight);
        break;
      case cg::EdgeKind::kMaxConstraint:
        // Stored reversed (to -> from) with weight -u.
        out.add_max_constraint(to, from, -e.fixed_weight);
        break;
    }
  }
  return out;
}

/// Feasible, forward-acyclic random graphs. Most raw draws are
/// ill-posed; every other one is repaired by make_wellposed() so warm
/// sequences (which need a scheduled start) get their share too. Every
/// other draw also has its vertex ids shuffled.
std::optional<cg::ConstraintGraph> feasible_graph(std::mt19937& rng) {
  testing::RandomGraphParams params;
  params.vertex_count = 6 + static_cast<int>(rng() % 12);
  params.max_constraints = 1 + static_cast<int>(rng() % 4);
  cg::ConstraintGraph g = testing::random_constraint_graph(rng, params);
  if (rng() % 2 == 0) (void)wellposed::make_wellposed(g);
  if (rng() % 2 == 0) g = shuffled_ids(g, rng);
  if (!g.validate().empty() || !wellposed::is_feasible(g)) return std::nullopt;
  return g;
}

std::string analysis_bytes(const anchors::AnchorAnalysis& a) {
  persist::Writer w;
  persist::save_analysis(w, a);
  return w.buffer();
}

/// The products hold an analysis worth comparing: the graph was valid
/// and feasible (ill-posed graphs keep their analysis).
bool has_analysis(const engine::Products& p) {
  return p.schedule.status != sched::ScheduleStatus::kInvalidGraph &&
         p.schedule.status != sched::ScheduleStatus::kInfeasible &&
         p.schedule.status != sched::ScheduleStatus::kCancelled;
}

/// One random warm edit: a bound edit, a bounded-delay edit, a
/// min-constraint insertion or a constraint removal.
void random_edit(std::mt19937& rng, engine::SynthesisSession& s) {
  const cg::ConstraintGraph& g = s.graph();
  const int n = g.vertex_count();
  std::vector<EdgeId> constraints;
  for (const cg::Edge& e : g.edges()) {
    if (e.kind != cg::EdgeKind::kSequencing) constraints.push_back(e.id);
  }
  const int choice = static_cast<int>(rng() % 4);
  if (choice == 0 && !constraints.empty()) {
    const EdgeId e = constraints[rng() % constraints.size()];
    s.set_constraint_bound(e, static_cast<int>(rng() % 9));
  } else if (choice == 1) {
    const VertexId v(static_cast<int>(rng() % n));
    if (g.vertex(v).delay.is_bounded() && v != g.source()) {
      s.set_delay(v, cg::Delay::bounded(static_cast<int>(rng() % 5)));
    }
  } else if (choice == 3 && !constraints.empty()) {
    s.remove_constraint(constraints[rng() % constraints.size()]);
  } else {
    const int to = 1 + static_cast<int>(rng() % (n - 1));
    const int from = static_cast<int>(rng() % to);
    // With shuffled ids the sink need not come last; a constraint out
    // of it could never be removed again (the sink would be lost).
    if (VertexId(from) == g.sink()) return;
    s.add_min_constraint(VertexId(from), VertexId(to),
                         static_cast<int>(rng() % 5));
  }
}

/// Bit rows of every vertex, to tell when an edit flipped one.
std::string set_rows(const cg::ConstraintGraph& g,
                     const anchors::AnchorAnalysis& a) {
  std::string out;
  for (int vi = 0; vi < g.vertex_count(); ++vi) {
    const VertexId v(vi);
    for (const VertexId x : a.anchor_set(v)) out += cat("a", x.value(), " ");
    for (const VertexId x : a.relevant_set(v)) out += cat("r", x.value(), " ");
    out += '|';
  }
  return out;
}

/// A ladder of `rungs` max constraints whose rises chain: rung i's
/// backward edge y_i -> x_i lifts x_i, which feeds y_{i+1} through a
/// delay-5 vertex, whose backward edge lifts x_{i+1}, and so on. Every
/// x_i hangs directly off the anchor `a`, so it sits early in the
/// topological order and each rise lands behind the pass that caused
/// it: a sweep of whole-region passes needs one pass per rung.
cg::ConstraintGraph backward_ladder(int rungs) {
  cg::ConstraintGraph g("ladder");
  const VertexId v0 = g.add_vertex("v0", cg::Delay::bounded(0));
  const VertexId a = g.add_vertex("a", cg::Delay::unbounded());
  const VertexId t = g.add_vertex("t", cg::Delay::bounded(0));
  g.add_sequencing_edge(v0, a);
  VertexId feed = a;
  for (int i = 1; i <= rungs; ++i) {
    const VertexId x = g.add_vertex(cat("x", i), cg::Delay::bounded(1));
    const VertexId l = g.add_vertex(cat("l", i), cg::Delay::bounded(5));
    const VertexId y = g.add_vertex(cat("y", i), cg::Delay::bounded(0));
    g.add_sequencing_edge(a, x);
    g.add_sequencing_edge(feed, l);
    g.add_sequencing_edge(l, y);
    g.add_sequencing_edge(y, t);
    g.add_max_constraint(x, y, 1);
    feed = x;
  }
  g.add_sequencing_edge(feed, t);
  return g;
}

/// Whole-region passes in topological order that length(anchor, .)
/// needs before one of them changes nothing, that one included: the
/// cost of a sweep without a worklist.
int region_passes(const cg::ConstraintGraph& g, VertexId anchor) {
  const std::vector<int> topo = *g.forward_order();
  std::vector<graph::Weight> dist(static_cast<std::size_t>(g.vertex_count()),
                                  graph::kNegInf);
  dist[anchor.index()] = 0;
  for (int pass = 1;; ++pass) {
    bool changed = false;
    for (const int node : topo) {
      for (EdgeId eid : g.in_edges(VertexId(node))) {
        const graph::Weight candidate = graph::saturating_add(
            dist[g.edge(eid).from.index()], g.weight(eid).value);
        if (candidate > dist[static_cast<std::size_t>(node)]) {
          dist[static_cast<std::size_t>(node)] = candidate;
          changed = true;
        }
      }
    }
    if (!changed) return pass;
  }
}

TEST(AnchorCellsProperty, ChainedBackwardRisesSettleThroughTheWorklist) {
  cg::ConstraintGraph g = backward_ladder(6);
  const VertexId a(1);
  ASSERT_GE(region_passes(g, a), 4);
  ASSERT_EQ(wellposed::check(g).status, wellposed::Status::kWellPosed);
  ASSERT_EQ(mismatch(g, anchors::AnchorAnalysis::compute(g)), "");
  // length(a, x_6) climbs by 5 per rung: 0, 4, 9, ..., 29 (x_i is
  // vertex 3i).
  EXPECT_EQ(anchors::AnchorAnalysis::compute(g).length(a, VertexId(18)), 29);

  // Warm: loosening and tightening rungs re-settles the chain inside
  // the dirty cone, through update()'s shared worklist.
  engine::SynthesisSession session(std::move(g), {});
  ASSERT_TRUE(session.resolve().ok());
  std::vector<EdgeId> rungs;
  for (const EdgeId e : session.graph().backward_edges()) rungs.push_back(e);
  std::mt19937 rng(0x1ADD);
  int warm = 0;
  for (int step = 0; step < 24; ++step) {
    session.set_constraint_bound(rungs[rng() % rungs.size()],
                                 1 + static_cast<int>(rng() % 6));
    const engine::Products& p = session.resolve();
    ASSERT_TRUE(p.ok()) << "step " << step;
    ASSERT_EQ(mismatch(session.graph(), p.analysis), "") << "step " << step;
    warm += session.last_resolve_was_warm() ? 1 : 0;
  }
  EXPECT_GT(warm, 20);
}

TEST(AnchorCellsProperty, ColdMatchesDenseOracleAtEveryPoolWidth) {
  std::mt19937 rng(0xCE115);
  base::WorkStealingPool pool1(1), pool2(2), pool8(8);
  int checked = 0;
  int ill_posed = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const std::optional<cg::ConstraintGraph> g = feasible_graph(rng);
    if (!g.has_value()) continue;
    if (wellposed::check(*g).status == wellposed::Status::kIllPosed) {
      ++ill_posed;
    }
    const anchors::AnchorAnalysis seq = anchors::AnchorAnalysis::compute(*g);
    ASSERT_EQ(mismatch(*g, seq), "") << "iter " << iter << "\n"
                                     << cg::to_text(*g);
    for (base::WorkStealingPool* pool : {&pool1, &pool2, &pool8}) {
      const anchors::AnchorAnalysis par =
          anchors::AnchorAnalysis::compute(*g, pool);
      ASSERT_EQ(analysis_bytes(par), analysis_bytes(seq))
          << "iter " << iter << " pool width " << pool->thread_count();
    }
    ++checked;
  }
  EXPECT_GT(checked, 200);
  EXPECT_GT(ill_posed, 10);
}

TEST(AnchorCellsProperty, WarmEditsMatchDenseOracleThroughRelayouts) {
  std::mt19937 rng(0x5EED5);
  int warm_checked = 0;
  int warm_flips = 0;
  for (int trial = 0; trial < 800; ++trial) {
    std::optional<cg::ConstraintGraph> g = feasible_graph(rng);
    if (!g.has_value()) continue;
    engine::SynthesisSession session(std::move(*g), {});
    session.resolve();
    std::string rows = has_analysis(session.products())
                           ? set_rows(session.graph(),
                                      session.products().analysis)
                           : "";
    for (int step = 0; step < 12; ++step) {
      random_edit(rng, session);
      const engine::Products& p = session.resolve();
      if (!has_analysis(p)) {
        rows.clear();
        continue;
      }
      ASSERT_EQ(mismatch(session.graph(), p.analysis), "")
          << "trial " << trial << " step " << step
          << " warm=" << session.last_resolve_was_warm() << "\n"
          << cg::to_text(session.graph());
      const std::string now = set_rows(session.graph(), p.analysis);
      if (session.last_resolve_was_warm()) {
        ++warm_checked;
        if (!rows.empty() && now != rows) ++warm_flips;
      }
      rows = now;
    }
  }
  EXPECT_GT(warm_checked, 2000);
  // The warm path must have rebuilt the layout, not only patched cells.
  EXPECT_GT(warm_flips, 80);
}

TEST(AnchorCellsProperty, ForkThenPatchLeavesTheParentUntouched) {
  std::mt19937 rng(0xF0F0);
  int forks_patched = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::optional<cg::ConstraintGraph> g = feasible_graph(rng);
    if (!g.has_value()) continue;
    engine::SynthesisSession parent(std::move(*g), {});
    if (!parent.resolve().ok()) continue;
    const std::string before = analysis_bytes(parent.products().analysis);
    engine::SynthesisSession fork = parent.fork();
    for (int step = 0; step < 4; ++step) {
      random_edit(rng, fork);
      const engine::Products& p = fork.resolve();
      if (has_analysis(p)) {
        ASSERT_EQ(mismatch(fork.graph(), p.analysis), "")
            << "trial " << trial << " step " << step;
      }
      if (fork.last_resolve_was_warm()) ++forks_patched;
    }
    EXPECT_EQ(analysis_bytes(parent.products().analysis), before)
        << "trial " << trial;
    ASSERT_EQ(mismatch(parent.graph(), parent.products().analysis), "")
        << "trial " << trial;
  }
  EXPECT_GT(forks_patched, 60);
}

TEST(AnchorCellsProperty, SnapshotRoundTripKeepsEveryCell) {
  std::mt19937 rng(0x54A9);
  int round_trips = 0;
  for (int trial = 0; trial < 150; ++trial) {
    std::optional<cg::ConstraintGraph> g = feasible_graph(rng);
    if (!g.has_value()) continue;
    engine::SynthesisSession session(std::move(*g), {});
    session.resolve();
    for (int step = 0; step < 4; ++step) {
      random_edit(rng, session);
      const engine::Products& p = session.resolve();
      if (!has_analysis(p)) continue;
      const std::string bytes = analysis_bytes(p.analysis);
      persist::Reader r(bytes);
      anchors::AnchorAnalysis loaded;
      ASSERT_TRUE(persist::load_analysis(r, &loaded));
      ASSERT_TRUE(r.at_end());
      ASSERT_EQ(mismatch(session.graph(), loaded), "")
          << "trial " << trial << " step " << step;
      EXPECT_EQ(analysis_bytes(loaded), bytes);
      ++round_trips;
    }
  }
  EXPECT_GT(round_trips, 250);
}

}  // namespace
}  // namespace relsched
