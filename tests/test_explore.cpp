// Parallel design-space explorer: the winner and every per-candidate
// product must be identical for any thread count (the headline
// determinism guarantee), forked candidates must match independent
// from-scratch sessions bit for bit, and the work-stealing pool must
// run every task exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "base/error.hpp"
#include "certify/certify.hpp"
#include "explore/explorer.hpp"
#include "testutil.hpp"
#include "wellposed/wellposed.hpp"

namespace relsched::explore {
namespace {

using base::WorkStealingPool;

/// A random well-posed, schedulable graph to explore around.
cg::ConstraintGraph exploration_graph(unsigned seed) {
  std::mt19937 rng(seed);
  relsched::testing::RandomGraphParams params;
  params.vertex_count = 24;
  params.max_constraints = 3;
  for (int trial = 0; trial < 200; ++trial) {
    auto g = relsched::testing::random_constraint_graph(rng, params);
    if (!g.validate().empty()) continue;
    if (wellposed::make_wellposed(g).status != wellposed::Status::kWellPosed) {
      continue;
    }
    engine::SynthesisSession probe(g, {});
    if (probe.resolve().ok()) return g;
  }
  ADD_FAILURE() << "no schedulable random graph in 200 trials";
  return cg::ConstraintGraph("empty");
}

/// A design-space sweep: the unmodified baseline, per-constraint bound
/// perturbations, constraint removals, new constraints between the
/// source and the sink, and one multi-edit candidate tightening every
/// max constraint inside a single transaction. Some candidates are
/// deliberately aggressive enough to come back infeasible.
std::vector<Candidate> sweep_candidates(const cg::ConstraintGraph& g) {
  std::vector<Candidate> out;
  out.push_back({"baseline", {}});
  Candidate tighten_all{"tighten-all", {}};
  for (const cg::Edge& e : g.edges()) {
    if (e.kind == cg::EdgeKind::kSequencing) continue;
    const int bound = std::abs(e.fixed_weight);
    for (int delta : {-2, -1, 1, 2}) {
      Candidate c;
      c.label = "edge" + std::to_string(e.id.value()) + "/" +
                std::to_string(delta);
      c.edits.push_back(
          engine::Edit::set_bound(e.id, std::max(0, bound + delta)));
      out.push_back(std::move(c));
    }
    if (e.kind == cg::EdgeKind::kMaxConstraint) {
      out.push_back({"drop" + std::to_string(e.id.value()),
                     {engine::Edit::remove_constraint(e.id)}});
      tighten_all.edits.push_back(
          engine::Edit::set_bound(e.id, std::max(0, bound - 1)));
    }
  }
  if (!tighten_all.edits.empty()) out.push_back(std::move(tighten_all));
  const VertexId source(0);
  const VertexId sink(g.vertex_count() - 1);
  out.push_back({"min-span", {engine::Edit::add_min(source, sink, 1)}});
  out.push_back({"max-span", {engine::Edit::add_max(source, sink, 50)}});
  return out;
}

void expect_identical_results(const ExplorationResult& a,
                              const ExplorationResult& b,
                              const cg::ConstraintGraph& g) {
  EXPECT_EQ(a.winner, b.winner);
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    const CandidateResult& ca = a.candidates[i];
    const CandidateResult& cb = b.candidates[i];
    EXPECT_EQ(ca.index, cb.index);
    EXPECT_EQ(ca.feasible, cb.feasible) << ca.label;
    EXPECT_EQ(ca.score, cb.score) << ca.label;  // bit-identical, not "near"
    EXPECT_EQ(ca.error, cb.error) << ca.label;
    EXPECT_EQ(ca.products.schedule.status, cb.products.schedule.status)
        << ca.label;
    if (ca.feasible && cb.feasible) {
      for (int vi = 0; vi < g.vertex_count(); ++vi) {
        EXPECT_EQ(ca.products.schedule.schedule.offsets(VertexId(vi)),
                  cb.products.schedule.schedule.offsets(VertexId(vi)))
            << ca.label << ", v" << vi;
      }
    }
  }
}

TEST(ExplorerTest, DeterministicAcrossThreadCounts) {
  const cg::ConstraintGraph g = exploration_graph(42);
  const std::vector<Candidate> candidates = sweep_candidates(g);
  ASSERT_GT(candidates.size(), 8u);

  std::vector<ExplorationResult> results;
  for (int threads : {1, 2, 8}) {
    ExplorerOptions opts;
    opts.threads = threads;
    Explorer explorer(engine::SynthesisSession(g, {}), opts);
    EXPECT_EQ(explorer.threads(), threads);
    results.push_back(explorer.explore(candidates, min_latency()));
  }

  const ExplorationResult& ref = results.front();
  // The untouched baseline guarantees at least one feasible candidate.
  ASSERT_GE(ref.winner, 0);
  EXPECT_EQ(ref.best().index, ref.winner);
  for (std::size_t r = 1; r < results.size(); ++r) {
    expect_identical_results(ref, results[r], g);
  }
}

TEST(ExplorerTest, WinnerIsBestFeasibleScoreWithSmallestIndex) {
  const cg::ConstraintGraph g = exploration_graph(7);
  std::vector<Candidate> candidates = sweep_candidates(g);
  // Duplicate the first candidate at the end: an exact score tie that
  // must never displace the earlier index.
  candidates.push_back({"baseline-again", candidates.front().edits});

  ExplorerOptions opts;
  opts.threads = 4;
  Explorer explorer(engine::SynthesisSession(g, {}), opts);
  const ExplorationResult result = explorer.explore(candidates, min_latency());

  ASSERT_GE(result.winner, 0);
  int expected = -1;
  for (const CandidateResult& c : result.candidates) {
    if (!c.feasible) continue;
    if (expected < 0 ||
        c.score < result.candidates[static_cast<std::size_t>(expected)].score) {
      expected = c.index;
    }
  }
  EXPECT_EQ(result.winner, expected);
  const CandidateResult& front = result.candidates.front();
  const CandidateResult& dup = result.candidates.back();
  ASSERT_TRUE(front.feasible);
  ASSERT_TRUE(dup.feasible);
  EXPECT_EQ(front.score, dup.score);
  EXPECT_LT(result.winner, dup.index);  // the tie broke toward the front
}

TEST(ExplorerTest, ForkedCandidatesMatchIndependentSessions) {
  const cg::ConstraintGraph g = exploration_graph(1337);
  const std::vector<Candidate> candidates = sweep_candidates(g);
  ExplorerOptions opts;
  opts.threads = 4;
  Explorer explorer(engine::SynthesisSession(g, {}), opts);
  const ExplorationResult result = explorer.explore(candidates, min_latency());
  ASSERT_EQ(result.candidates.size(), candidates.size());

  const Objective latency = min_latency();
  for (const CandidateResult& c : result.candidates) {
    // Replay the candidate on a completely independent session (cold
    // resolve, no forking, no transaction): the explorer's warm forked
    // resolve must be bit-identical to it.
    engine::SynthesisSession fresh(g, {});
    bool api_error = false;
    try {
      for (const engine::Edit& e :
           candidates[static_cast<std::size_t>(c.index)].edits) {
        fresh.apply(e);
      }
    } catch (const ApiError&) {
      api_error = true;
    }
    if (api_error) {
      EXPECT_FALSE(c.feasible) << c.label;
      EXPECT_FALSE(c.error.empty()) << c.label;
      continue;
    }
    const engine::Products& cold = fresh.resolve();
    EXPECT_EQ(c.feasible, cold.ok()) << c.label;
    EXPECT_EQ(c.products.schedule.status, cold.schedule.status) << c.label;
    if (!c.feasible) continue;
    for (int vi = 0; vi < g.vertex_count(); ++vi) {
      EXPECT_EQ(c.products.schedule.schedule.offsets(VertexId(vi)),
                cold.schedule.schedule.offsets(VertexId(vi)))
          << c.label << ", v" << vi;
    }
    EXPECT_EQ(c.score, latency(fresh.graph(), cold)) << c.label;
    // Each candidate was one fork + one single-transaction warm resolve.
    EXPECT_EQ(c.stats.transactions, 1) << c.label;
  }
}

TEST(ExplorerTest, InfeasibleCandidatesCarryReplayableWitnesses) {
  // Tightening Fig 2's max constraint to u = 0 closes a positive cycle;
  // the candidate must come back infeasible with a witness that replays
  // against the candidate's edited graph (satellite of the certifying
  // pipeline: explorers surface per-candidate diagnostics).
  relsched::testing::Fig2Graph f;
  EdgeId max_edge = EdgeId::invalid();
  for (const cg::Edge& e : f.g.edges()) {
    if (e.kind == cg::EdgeKind::kMaxConstraint) max_edge = e.id;
  }
  ASSERT_TRUE(max_edge.is_valid());

  std::vector<Candidate> candidates;
  candidates.push_back({"baseline", {}});
  candidates.push_back({"too-tight", {engine::Edit::set_bound(max_edge, 0)}});
  Explorer explorer(engine::SynthesisSession(f.g, {}), {});
  const ExplorationResult result = explorer.explore(candidates, min_latency());

  EXPECT_TRUE(result.candidates[0].feasible);
  EXPECT_TRUE(result.candidates[0].diag.ok());
  const CandidateResult& bad = result.candidates[1];
  ASSERT_FALSE(bad.feasible);
  ASSERT_TRUE(bad.diag.has_witness()) << bad.error;
  cg::ConstraintGraph edited = f.g;
  edited.set_constraint_bound(max_edge, 0);
  EXPECT_EQ(certify::verify_witness(edited, bad.diag), std::nullopt);
}

TEST(ExplorerTest, BestThrowsWhenEverythingIsInfeasible) {
  ExplorationResult empty;
  EXPECT_THROW((void)empty.best(), ApiError);
}

TEST(ExplorerTest, EmptyCandidateListIsWellDefined) {
  relsched::testing::Fig2Graph fig;
  Explorer explorer(engine::SynthesisSession(std::move(fig.g), {}), {});
  const ExplorationResult result = explorer.explore({}, min_latency());
  EXPECT_EQ(result.winner, -1);
  EXPECT_TRUE(result.candidates.empty());
  EXPECT_FALSE(result.stopped_early);
  EXPECT_EQ(result.cancelled, 0);
}

TEST(ExplorerTest, DuplicateCandidatesTieBreakOnSmallestIndex) {
  relsched::testing::Fig2Graph fig;
  EdgeId max_edge = EdgeId::invalid();
  for (const cg::Edge& e : fig.g.edges()) {
    if (e.kind == cg::EdgeKind::kMaxConstraint) max_edge = e.id;
  }
  ASSERT_TRUE(max_edge.is_valid());
  // Three byte-identical candidates: identical scores, so the reduction
  // must pick index 0 -- and report identical products for all three.
  const Candidate dup{"dup", {engine::Edit::set_bound(max_edge, 3)}};
  Explorer explorer(engine::SynthesisSession(std::move(fig.g), {}), {});
  const ExplorationResult result =
      explorer.explore({dup, dup, dup}, min_latency());
  ASSERT_EQ(result.candidates.size(), 3u);
  EXPECT_EQ(result.winner, 0);
  for (const CandidateResult& c : result.candidates) {
    ASSERT_TRUE(c.feasible) << c.error;
    EXPECT_EQ(c.score, result.best().score);
  }
}

TEST(ExplorerTest, ExpiredDeadlineStopsBatchWithTimeoutPlaceholders) {
  const cg::ConstraintGraph g = exploration_graph(77);
  const std::vector<Candidate> candidates = sweep_candidates(g);
  ExplorerOptions opts;
  opts.threads = 2;
  opts.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  Explorer explorer(engine::SynthesisSession(g, {}), opts);
  const ExplorationResult result = explorer.explore(candidates, min_latency());
  EXPECT_TRUE(result.stopped_early);
  EXPECT_EQ(result.winner, -1);
  ASSERT_EQ(result.candidates.size(), candidates.size());
  for (const CandidateResult& c : result.candidates) {
    EXPECT_FALSE(c.feasible);
    EXPECT_EQ(c.diag.code, certify::Code::kTimeout) << c.label;
  }
}

TEST(ExplorerTest, StepLimitTripsRetryAsColdThenReportsCancelled) {
  const cg::ConstraintGraph g = exploration_graph(78);
  const std::vector<Candidate> candidates = sweep_candidates(g);
  ExplorerOptions opts;
  opts.threads = 2;
  // A one-step budget cannot resolve anything: every candidate with
  // edits trips it warm, goes through the retry-as-cold pass, trips
  // again, and is reported cancelled (never silently mis-scored). The
  // zero-edit baseline needs no computation, so it survives and wins.
  opts.candidate_step_limit = 1;
  Explorer explorer(engine::SynthesisSession(g, {}), opts);
  const ExplorationResult result = explorer.explore(candidates, min_latency());
  const int edited = static_cast<int>(candidates.size()) - 1;
  EXPECT_EQ(result.winner, 0);  // the baseline
  EXPECT_EQ(result.cancelled, edited);
  EXPECT_EQ(result.retried, edited);
  for (const CandidateResult& c : result.candidates) {
    if (c.index == 0) {
      EXPECT_TRUE(c.feasible) << c.error;
      continue;
    }
    EXPECT_TRUE(c.cancelled) << c.label;
    EXPECT_TRUE(c.retried) << c.label;
    EXPECT_EQ(c.diag.code, certify::Code::kTimeout) << c.label;
  }
}

TEST(ExplorerTest, CheckpointResumeSkipsCompletedCandidates) {
  const std::string dir = ::testing::TempDir() + "relsched_explore_resume";
  std::remove(persist::explore_path(dir).c_str());
  ASSERT_TRUE(persist::ensure_dir(dir).ok());
  const cg::ConstraintGraph g = exploration_graph(79);
  const std::vector<Candidate> candidates = sweep_candidates(g);

  ExplorerOptions opts;
  opts.threads = 2;
  opts.checkpoint_dir = dir;
  opts.checkpoint_every = 4;
  Explorer first(engine::SynthesisSession(g, {}), opts);
  const ExplorationResult full = first.explore(candidates, min_latency());
  ASSERT_TRUE(full.checkpoint_error.ok()) << full.checkpoint_error.render();
  ASSERT_GE(full.winner, 0);

  // Same config, resume: every candidate loads from the checkpoint,
  // nothing recomputes, and the results are bit-identical.
  opts.resume = true;
  Explorer second(engine::SynthesisSession(g, {}), opts);
  const ExplorationResult resumed = second.explore(candidates, min_latency());
  ASSERT_TRUE(resumed.resume_error.ok()) << resumed.resume_error.render();
  EXPECT_EQ(resumed.resumed, static_cast<int>(candidates.size()));
  expect_identical_results(full, resumed, g);

  // A different candidate list must NOT match the stored checkpoint:
  // structured rejection, then full recomputation.
  std::vector<Candidate> other = candidates;
  other.pop_back();
  Explorer third(engine::SynthesisSession(g, {}), opts);
  const ExplorationResult rejected = third.explore(other, min_latency());
  EXPECT_EQ(rejected.resume_error.code, persist::ErrorCode::kStateMismatch);
  EXPECT_EQ(rejected.resumed, 0);
  ASSERT_EQ(rejected.candidates.size(), other.size());
  EXPECT_GE(rejected.winner, 0);

  // A corrupt checkpoint is rejected with a structured error, never
  // half-loaded.
  std::string bytes;
  ASSERT_TRUE(persist::read_file(persist::explore_path(dir), &bytes).ok());
  bytes[bytes.size() / 2] ^= 0x20;
  ASSERT_TRUE(
      persist::atomic_write_file(persist::explore_path(dir), bytes, false)
          .ok());
  Explorer fourth(engine::SynthesisSession(g, {}), opts);
  const ExplorationResult corrupt = fourth.explore(candidates, min_latency());
  EXPECT_FALSE(corrupt.resume_error.ok());
  EXPECT_EQ(corrupt.resumed, 0);
  expect_identical_results(full, corrupt, g);
}

TEST(WorkStealingPoolTest, RunsEveryTaskExactlyOnceAndIsReusable) {
  WorkStealingPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  constexpr int kTasks = 500;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.run(kTasks, [&](int i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
  }
  // The pool is reusable: a second run on the same workers.
  pool.run(kTasks, [&](int i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 2) << "task " << i;
  }
  EXPECT_GE(pool.steals(), 0);
}

TEST(WorkStealingPoolTest, EmptyRunAndThreadClamping) {
  WorkStealingPool pool(0);  // clamped to one worker
  EXPECT_EQ(pool.thread_count(), 1);
  pool.run(0, [](int) { std::abort(); });  // no tasks, no calls
  std::vector<int> order;
  pool.run(5, [&](int i) { order.push_back(i); });
  // One worker, round-robin seeding, FIFO pops: strict task order.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// RELSCHED_THREADS overrides hardware_concurrency() through the strict
// base/env.hpp parsers; unparsable or out-of-range values warn and fall
// back to the hardware width.
TEST(WorkStealingPoolTest, DefaultThreadCountRespectsEnvOverride) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int hardware = hw == 0 ? 1 : static_cast<int>(hw);

  ::setenv("RELSCHED_THREADS", "3", 1);
  EXPECT_EQ(WorkStealingPool::default_thread_count(), 3);
  ::setenv("RELSCHED_THREADS", "not-a-number", 1);
  EXPECT_EQ(WorkStealingPool::default_thread_count(), hardware);
  ::setenv("RELSCHED_THREADS", "0", 1);  // below the [1, 512] range
  EXPECT_EQ(WorkStealingPool::default_thread_count(), hardware);
  ::setenv("RELSCHED_THREADS", "100000", 1);  // above it
  EXPECT_EQ(WorkStealingPool::default_thread_count(), hardware);
  ::unsetenv("RELSCHED_THREADS");
  EXPECT_EQ(WorkStealingPool::default_thread_count(), hardware);
}

}  // namespace
}  // namespace relsched::explore
