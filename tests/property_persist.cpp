// Crash-recovery property: a session killed at ANY byte of its
// write-ahead log recovers -- snapshot, then the surviving WAL prefix,
// torn tail dropped -- to a state from which re-applying the lost edit
// suffix converges bit-identically with the uninterrupted run. 200+
// randomized kill points over random graphs and edit scripts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "cg/constraint_graph.hpp"
#include "engine/session.hpp"
#include "graph/algorithms.hpp"
#include "persist/serialize.hpp"
#include "persist/wal.hpp"
#include "testutil.hpp"
#include "wellposed/wellposed.hpp"

namespace relsched::engine {
namespace {

/// WAL header: magic(8) | u32 version | u64 base_revision. Kill points
/// land at or after this boundary (a kill inside the header is the
/// "snapshot only" recovery, covered by offset == kWalHeaderBytes).
constexpr std::size_t kWalHeaderBytes = 20;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "relsched_prop_" + name;
  std::remove(persist::snapshot_path(dir).c_str());
  std::remove(persist::wal_path(dir).c_str());
  EXPECT_TRUE(persist::ensure_dir(dir).ok());
  return dir;
}

/// A random well-posed, schedulable graph (same recipe as the explorer
/// tests).
cg::ConstraintGraph recovery_graph(std::mt19937& rng) {
  testing::RandomGraphParams params;
  params.vertex_count = 16;
  params.max_constraints = 3;
  for (int trial = 0; trial < 200; ++trial) {
    auto g = testing::random_constraint_graph(rng, params);
    if (!g.validate().empty()) continue;
    if (wellposed::make_wellposed(g).status != wellposed::Status::kWellPosed) {
      continue;
    }
    SynthesisSession probe(g, {});
    if (probe.resolve().ok()) return g;
  }
  ADD_FAILURE() << "no schedulable random graph in 200 trials";
  return cg::ConstraintGraph("empty");
}

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

/// One random journaled edit applicable to `g` (a compact cut of the
/// generator property_engine.cpp uses); nullopt when none applies.
std::optional<EditSpec> pick_random_edit(const cg::ConstraintGraph& g,
                                         std::mt19937& rng) {
  const graph::Digraph forward = g.project_forward();
  EditSpec spec;
  switch (rng() % 4) {
    case 0: {  // max constraint between comparable vertices, with slack
      const VertexId from(static_cast<int>(
          rng() % static_cast<unsigned>(std::max(1, g.vertex_count() - 1))));
      const auto lp = graph::longest_paths_from(forward, from.value());
      if (lp.positive_cycle) return std::nullopt;
      std::vector<VertexId> reachable;
      for (int vi = 0; vi < g.vertex_count(); ++vi) {
        if (vi != from.value() &&
            lp.dist[static_cast<std::size_t>(vi)] != graph::kNegInf) {
          reachable.push_back(VertexId(vi));
        }
      }
      if (reachable.empty()) return std::nullopt;
      spec.kind = EditSpec::Kind::kAddMax;
      spec.from = from;
      spec.to = reachable[rng() % reachable.size()];
      spec.cycles = static_cast<int>(lp.dist[spec.to.index()]) +
                    static_cast<int>(rng() % 6);
      return spec;
    }
    case 1: {  // min constraint along the topological order (acyclic)
      const auto topo = graph::topological_order(forward);
      if (!topo.has_value() || topo->size() < 2) return std::nullopt;
      const std::size_t i = rng() % (topo->size() - 1);
      const std::size_t j = i + 1 + rng() % (topo->size() - 1 - i);
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
    default: {  // remove a max constraint (always polarity-safe)
      std::vector<EdgeId> removable;
      for (const cg::Edge& e : g.edges()) {
        if (e.kind == cg::EdgeKind::kMaxConstraint) removable.push_back(e.id);
      }
      if (removable.empty()) return std::nullopt;
      spec.kind = EditSpec::Kind::kRemove;
      spec.edge = removable[rng() % removable.size()];
      return spec;
    }
  }
}

/// Bit-identical product comparison. Offsets only compare on success:
/// failure products carry an empty schedule on both sides.
void expect_products_match(const Products& a, const Products& b,
                           const cg::ConstraintGraph& g,
                           const std::string& context) {
  ASSERT_EQ(a.schedule.status, b.schedule.status) << context;
  EXPECT_EQ(a.schedule.message, b.schedule.message) << context;
  EXPECT_EQ(a.revision, b.revision) << context;
  if (!a.ok() || !b.ok()) return;
  for (int vi = 0; vi < g.vertex_count(); ++vi) {
    EXPECT_EQ(a.schedule.schedule.offsets(VertexId(vi)),
              b.schedule.schedule.offsets(VertexId(vi)))
        << context << ", v" << vi;
  }
}

persist::WalOptions always_sync() {
  persist::WalOptions o;
  o.sync = persist::WalOptions::Sync::kAlways;
  return o;
}

TEST(PersistProperty, RandomizedKillPointsRecoverBitIdentical) {
  constexpr int kScripts = 25;
  constexpr int kKillsPerScript = 8;  // 25 * 8 = 200 randomized kill points
  constexpr int kOpsPerScript = 10;
  int kill_points = 0;

  for (int script = 0; script < kScripts; ++script) {
    std::mt19937 rng(7100u + static_cast<unsigned>(script));
    const cg::ConstraintGraph g = recovery_graph(rng);
    if (g.vertex_count() == 0) return;  // generator already FAILed
    const std::string dir = temp_dir("kill" + std::to_string(script));

    // Uninterrupted reference and the journaled "victim", fed the same
    // edit script with a resolve after every edit (each resolve is a
    // durable commit point under Sync::kAlways).
    SynthesisSession reference(g, {});
    reference.resolve();
    SynthesisSession victim(g, {});
    victim.resolve();
    ASSERT_TRUE(
        victim.attach_wal(persist::wal_path(dir), always_sync()).ok());
    ASSERT_TRUE(victim.checkpoint(dir).ok());

    struct Step {
      EditSpec spec;
      std::uint64_t post_revision = 0;
    };
    std::vector<Step> steps;
    for (int op = 0; op < kOpsPerScript; ++op) {
      const auto spec = pick_random_edit(victim.graph(), rng);
      if (!spec.has_value()) continue;
      apply_edit(reference, *spec);
      apply_edit(victim, *spec);
      reference.resolve();
      victim.resolve();
      steps.push_back({*spec, victim.graph().revision()});
      // An occasional mid-script snapshot: later kills then recover
      // from that snapshot plus a shorter WAL suffix.
      if (rng() % 4 == 0) {
        ASSERT_TRUE(victim.checkpoint(dir).ok());
      }
    }
    expect_products_match(reference.products(), victim.products(), g,
                          "script " + std::to_string(script) + " pre-kill");

    std::string wal_bytes;
    ASSERT_TRUE(persist::read_file(persist::wal_path(dir), &wal_bytes).ok());
    ASSERT_GE(wal_bytes.size(), kWalHeaderBytes);

    for (int kill = 0; kill < kKillsPerScript; ++kill) {
      // Kill the process at a random byte of the log: everything past
      // `offset` was still in flight when the machine died.
      const std::size_t offset =
          kWalHeaderBytes +
          rng() % (wal_bytes.size() - kWalHeaderBytes + 1);
      ASSERT_TRUE(persist::atomic_write_file(persist::wal_path(dir),
                                             wal_bytes.substr(0, offset),
                                             false)
                      .ok());
      const std::string context = "script " + std::to_string(script) +
                                  ", kill at byte " + std::to_string(offset);

      SynthesisSession::RestoreReport report;
      auto restored = SynthesisSession::restore(dir, {}, &report);
      ASSERT_TRUE(restored.has_value())
          << context << ": " << report.error.render();
      const std::uint64_t recovered = restored->graph().revision();

      // Re-drive the edits the crash lost (the client replays its
      // still-unacknowledged suffix) and resolve.
      for (const Step& step : steps) {
        if (step.post_revision > recovered) {
          apply_edit(*restored, step.spec);
        }
      }
      restored->resolve();
      expect_products_match(reference.products(), restored->products(), g,
                            context);
      ++kill_points;
    }
  }
  EXPECT_GE(kill_points, 200);
}

}  // namespace
}  // namespace relsched::engine
