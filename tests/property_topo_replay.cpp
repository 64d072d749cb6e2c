// The engine's Gf order under journal replay.
//
// graph::DynamicTopoOrder holds only the order and its inverse; a warm
// resolve replays the journal suffix's min-constraint insertions
// through Pearce-Kelly over the edited graph's own chains, skipping the
// arcs of insertions it has not reached yet and the insertions a later
// edit of the suffix removed. Random transactions with at least two
// min-constraint insertions, removals, insert-then-remove pairs and
// cycle-closing batches must leave, after every commit:
//   - an order that is a topological order of the final Gf,
//   - products equal to a fresh cold resolve of the same graph (a
//     cycle falls back to a cold resolve with the cold verdict),
// and DynamicTopoOrder::restore must reject an order that any forward
// arc violates.
#include <algorithm>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/session.hpp"
#include "graph/algorithms.hpp"
#include "graph/dynamic_topo.hpp"
#include "persist/snapshot.hpp"
#include "testutil.hpp"
#include "wellposed/wellposed.hpp"

namespace relsched::engine {
namespace {

/// True when `order` is a permutation of g's vertices under which every
/// forward edge points forward.
bool is_topological_order(const cg::ConstraintGraph& g,
                          std::span<const int> order) {
  if (static_cast<int>(order.size()) != g.vertex_count()) return false;
  std::vector<int> pos(order.size(), -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const int v = order[i];
    if (v < 0 || v >= g.vertex_count() ||
        pos[static_cast<std::size_t>(v)] >= 0) {
      return false;
    }
    pos[static_cast<std::size_t>(v)] = static_cast<int>(i);
  }
  for (const cg::Edge& e : g.edges()) {
    if (cg::is_forward(e.kind) && pos[e.from.index()] >= pos[e.to.index()]) {
      return false;
    }
  }
  return true;
}

/// Digest of the serialized analysis, past its leading rows-recomputed
/// counter (a warm patch and a cold compute count differently).
std::uint64_t analysis_digest(const Products& p) {
  persist::Writer w;
  persist::save_analysis(w, p.analysis);
  return persist::fnv1a64(w.buffer().substr(4));
}

std::uint64_t schedule_digest(const Products& p) {
  persist::Writer w;
  persist::save_schedule(w, p.schedule.schedule);
  return persist::fnv1a64(w.buffer());
}

/// The last min constraint (from, to), or invalid.
EdgeId find_min(const cg::ConstraintGraph& g, VertexId from, VertexId to) {
  EdgeId found = EdgeId::invalid();
  for (const cg::Edge& e : g.edges()) {
    if (e.kind == cg::EdgeKind::kMinConstraint && e.from == from &&
        e.to == to) {
      found = e.id;
    }
  }
  return found;
}

/// A min constraint whose removal keeps the graph polar, or invalid.
EdgeId removable_min(const cg::ConstraintGraph& g, std::mt19937& rng) {
  std::vector<EdgeId> removable;
  for (const cg::Edge& e : g.edges()) {
    if (e.kind == cg::EdgeKind::kMinConstraint &&
        g.forward_in_degree(e.to.value()) > 1) {
      int tail_out = 0;
      g.for_each_forward_out(e.from.value(), [&](int, int) { ++tail_out; });
      if (tail_out > 1) removable.push_back(e.id);
    }
  }
  if (removable.empty()) return EdgeId::invalid();
  return removable[rng() % removable.size()];
}

struct Tally {
  int commits = 0;
  int warm_with_insertions = 0;
  int reordered = 0;
  int cycles = 0;
  int cycle_reopened = 0;
  int insert_then_remove = 0;
  int removals = 0;
};

/// One transaction of random edits; returns the min constraints it
/// added that survive (so a failing batch can be undone). A
/// cycle-closing batch adds one arc against a path of Gf.
std::vector<std::pair<VertexId, VertexId>> random_batch(
    SynthesisSession& session, std::mt19937& rng, bool close_cycle,
    Tally& tally) {
  const cg::ConstraintGraph& g = session.graph();
  const int n = g.vertex_count();
  const VertexId sink = g.sink();
  // The session's order before the batch: the replay starts from it.
  std::vector<int> pos(static_cast<std::size_t>(n));
  const std::span<const int> order = session.topo_order();
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  }
  std::vector<std::pair<VertexId, VertexId>> added;
  std::optional<std::pair<VertexId, VertexId>> cycle_arc;
  enum class Mode { kAlongOrder, kAgainstOrder, kCycle };
  const auto insert = [&](Mode mode) {
    for (int tries = 0; tries < 50; ++tries) {
      const VertexId from(static_cast<int>(rng() % static_cast<unsigned>(n)));
      const VertexId to(static_cast<int>(rng() % static_cast<unsigned>(n)));
      if (from == to || from == sink || to == g.source()) continue;
      const bool closes = graph::reachable_from(g.project_forward(),
                                                to.value())[from.index()];
      const bool along = pos[from.index()] < pos[to.index()];
      // Against the order without a path back: Pearce-Kelly must move
      // the affected region.
      if (mode == Mode::kAlongOrder && (closes || !along)) continue;
      if (mode == Mode::kAgainstOrder && (closes || along)) continue;
      if (mode == Mode::kCycle && !closes) continue;
      session.add_min_constraint(from, to, static_cast<int>(rng() % 4));
      added.emplace_back(from, to);
      if (mode == Mode::kCycle) cycle_arc = added.back();
      return;
    }
  };
  const int insertions = 2 + static_cast<int>(rng() % 3);
  const int cycle_at = close_cycle ? static_cast<int>(rng() % 2) : -1;
  for (int k = 0; k < insertions; ++k) {
    insert(k == cycle_at       ? Mode::kCycle
           : rng() % 2 == 0 ? Mode::kAgainstOrder
                              : Mode::kAlongOrder);
    switch (rng() % 4) {
      case 0: {  // remove an insertion of this batch again
        if (added.empty()) break;
        const std::size_t pick = rng() % added.size();
        const EdgeId e = find_min(g, added[pick].first, added[pick].second);
        if (!e.is_valid() ||
            g.forward_in_degree(added[pick].second.value()) < 2) {
          break;
        }
        int tail_out = 0;
        g.for_each_forward_out(added[pick].first.value(),
                               [&](int, int) { ++tail_out; });
        if (tail_out < 2) break;
        session.remove_constraint(e);
        if (added[pick] == cycle_arc) ++tally.cycle_reopened;
        added.erase(added.begin() + static_cast<std::ptrdiff_t>(pick));
        ++tally.insert_then_remove;
        break;
      }
      case 1: {  // remove some min constraint
        const EdgeId e = removable_min(g, rng);
        if (!e.is_valid()) break;
        const auto pair = std::make_pair(g.edge(e).from, g.edge(e).to);
        session.remove_constraint(e);
        const auto it = std::find(added.begin(), added.end(), pair);
        if (it != added.end()) added.erase(it);
        ++tally.removals;
        break;
      }
      default:
        break;
    }
  }
  return added;
}

/// The session's schedule, a view of its length cells, equals the
/// paper's iteration (sched::schedule) cell for cell, and its
/// zero-profile start times are the source's length cells.
void expect_iteration_schedule(const cg::ConstraintGraph& g, const Products& p,
                               int trial, int batch) {
  const sched::ScheduleResult iterated = sched::schedule(g);
  ASSERT_TRUE(iterated.ok()) << "trial " << trial << " batch " << batch;
  EXPECT_TRUE(iterated.schedule == p.schedule.schedule)
      << "trial " << trial << " batch " << batch;
  const std::vector<graph::Weight> start = p.schedule.schedule.start_times(g, {});
  for (int vi = 0; vi < g.vertex_count(); ++vi) {
    EXPECT_EQ(start[static_cast<std::size_t>(vi)],
              p.analysis.length(g.source(), VertexId(vi)))
        << "trial " << trial << " batch " << batch << " v" << vi;
  }
}

void expect_matches_cold(const SynthesisSession& session, int trial,
                         int batch) {
  const Products& warm = session.products();
  SynthesisSession cold(session.graph(), {});
  const Products& want = cold.resolve();
  ASSERT_EQ(warm.schedule.status, want.schedule.status)
      << "trial " << trial << " batch " << batch << ": "
      << warm.schedule.message << " vs " << want.schedule.message;
  EXPECT_EQ(warm.schedule.message, want.schedule.message)
      << "trial " << trial << " batch " << batch;
  if (want.ok() || want.schedule.status == sched::ScheduleStatus::kIllPosed) {
    EXPECT_EQ(analysis_digest(warm), analysis_digest(want))
        << "trial " << trial << " batch " << batch;
  }
  if (want.ok()) {
    EXPECT_EQ(schedule_digest(warm), schedule_digest(want))
        << "trial " << trial << " batch " << batch;
    expect_iteration_schedule(session.graph(), warm, trial, batch);
  }
}

TEST(TopoReplayProperty, BatchedInsertionsAndRemovalsMatchCold) {
  std::mt19937 rng(0x70F0);
  Tally tally;
  for (int trial = 0; trial < 300; ++trial) {
    relsched::testing::RandomGraphParams params;
    params.vertex_count = 10 + static_cast<int>(rng() % 20);
    params.max_constraints = 1 + static_cast<int>(rng() % 3);
    cg::ConstraintGraph g =
        relsched::testing::random_constraint_graph(rng, params);
    if (!g.validate().empty()) continue;
    if (wellposed::make_wellposed(g).status != wellposed::Status::kWellPosed) {
      continue;
    }
    SynthesisSession session(std::move(g), {});
    if (!session.resolve().ok()) continue;
    expect_matches_cold(session, trial, -1);
    for (int batch = 0; batch < 12; ++batch) {
      const std::vector<int> before(session.topo_order().begin(),
                                    session.topo_order().end());
      const long long warm_before = session.stats().warm_resolves;
      const long long cold_before = session.stats().cold_resolves;
      const bool was_ok = session.products().ok();
      session.begin_txn();
      const auto added =
          random_batch(session, rng, /*close_cycle=*/batch % 4 == 3, tally);
      const Products& p = session.commit();
      ++tally.commits;
      expect_matches_cold(session, trial, batch);
      if (p.ok()) {
        EXPECT_TRUE(is_topological_order(session.graph(), session.topo_order()))
            << "trial " << trial << " batch " << batch;
      }
      const bool warm = session.stats().warm_resolves > warm_before;
      if (warm && was_ok && !added.empty()) {
        ++tally.warm_with_insertions;
        if (p.ok() && !std::ranges::equal(session.topo_order(), before)) {
          ++tally.reordered;
        }
      }
      if (!session.graph().forward_order().has_value()) {
        // The replay met the cycle and deferred to the cold path, which
        // reported it (the verdict was compared with a fresh cold
        // resolve above).
        ++tally.cycles;
        EXPECT_GT(session.stats().cold_resolves, cold_before);
        EXPECT_EQ(p.schedule.status, sched::ScheduleStatus::kInvalidGraph);
      } else if (was_ok && session.stats().last_txn_edits > 0) {
        // An acyclic final Gf never stops the replay, not even when
        // the batch closed a cycle that a later edit opened again.
        EXPECT_TRUE(warm) << "trial " << trial << " batch " << batch;
      }
      if (!p.ok()) {
        // Undo the batch's insertions so the walk goes on from a
        // schedulable graph.
        session.begin_txn();
        for (auto it = added.rbegin(); it != added.rend(); ++it) {
          const EdgeId e = find_min(session.graph(), it->first, it->second);
          if (e.is_valid()) session.remove_constraint(e);
        }
        session.commit();
        expect_matches_cold(session, trial, batch);
        if (!session.products().ok()) break;
      }
    }

    // restore() adopts the session's order and rejects it once any
    // forward arc is turned around.
    if (!session.products().ok()) continue;
    const std::vector<int> order(session.topo_order().begin(),
                                 session.topo_order().end());
    graph::DynamicTopoOrder topo;
    ASSERT_TRUE(topo.restore(session.graph(), order));
    EXPECT_EQ(topo.order(), order);
    for (const cg::Edge& e : session.graph().edges()) {
      if (!cg::is_forward(e.kind)) continue;
      std::vector<int> swapped = order;
      const auto a = std::find(swapped.begin(), swapped.end(), e.from.value());
      const auto b = std::find(swapped.begin(), swapped.end(), e.to.value());
      std::iter_swap(a, b);
      EXPECT_FALSE(topo.restore(session.graph(), swapped))
          << "trial " << trial << " arc " << e.from << "->" << e.to;
      EXPECT_FALSE(topo.valid());
    }
  }
  EXPECT_GT(tally.commits, 500);
  EXPECT_GT(tally.warm_with_insertions, 400);
  EXPECT_GT(tally.reordered, 200);
  EXPECT_GT(tally.cycles, 60);
  EXPECT_GT(tally.cycle_reopened, 10);
  EXPECT_GT(tally.insert_then_remove, 300);
  EXPECT_GT(tally.removals, 300);
}

}  // namespace
}  // namespace relsched::engine
