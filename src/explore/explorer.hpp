// Parallel design-space exploration over an incremental synthesis
// session (ROADMAP: serve many concurrent what-if queries).
//
// The exploration model: one resolved base SynthesisSession, a batch of
// *candidates* -- each a named list of journaled edits -- and an
// objective. For every candidate the explorer forks the base session
// (copy-on-write products, so a fork's memory cost is proportional to
// its dirty cone), applies the candidate's edits inside one transaction
// (one merged-cone resolve per candidate, however many edits it holds),
// scores the resolved products, and reduces to the best feasible
// candidate. Parallelism is at candidate level only: the batch runs on
// a work-stealing pool, and each fork resolves sequentially on the
// worker that picked it up.
//
// Determinism guarantee: candidates are resolved on independent forks
// with no shared mutable state, every fork resolve is bit-identical to
// a sequential warm resolve of the same edits, and the reduction
// tie-breaks on the candidate index. The winner and every per-candidate
// product are therefore identical for any thread count, including 1
// (tested in tests/test_explore.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/thread_pool.hpp"
#include "base/watchdog.hpp"
#include "certify/certify.hpp"
#include "cg/constraint_graph.hpp"
#include "engine/session.hpp"
#include "persist/serialize.hpp"

namespace relsched::explore {

/// One journaled edit of a candidate, replayed onto a fork. Edge ids
/// refer to the base session's graph (stable across forks; a kRemove
/// inside the list invalidates ids exactly like
/// cg::ConstraintGraph::remove_constraint documents).
struct EditOp {
  enum class Kind { kSetBound, kAddMin, kAddMax, kRemove };
  Kind kind = Kind::kSetBound;
  EdgeId edge = EdgeId::invalid();      // kSetBound / kRemove
  VertexId from = VertexId::invalid();  // kAddMin / kAddMax
  VertexId to = VertexId::invalid();
  int cycles = 0;  // bound for kSetBound / kAddMin / kAddMax

  static EditOp set_bound(EdgeId e, int cycles);
  static EditOp add_min(VertexId from, VertexId to, int min_cycles);
  static EditOp add_max(VertexId from, VertexId to, int max_cycles);
  static EditOp remove(EdgeId e);
};

/// Applies one op through the session's journaled edit API.
void apply(engine::SynthesisSession& session, const EditOp& op);

struct Candidate {
  std::string label;
  std::vector<EditOp> edits;
};

/// Score of a resolved candidate; lower is better. Called only for
/// candidates whose products are ok(). Must be a pure function of its
/// arguments: it runs concurrently on worker threads.
using Objective = std::function<double(const cg::ConstraintGraph& graph,
                                       const engine::Products& products)>;

/// Zero-profile schedule latency (the largest start time when every
/// anchor takes its minimum delay).
[[nodiscard]] Objective min_latency();

/// Control cost of the schedule: weighted flip-flops + gates of the
/// generated control unit (paper §VI). Defined in objectives.cpp;
/// pulls in the ctrl library.
[[nodiscard]] Objective min_control_cost(double flipflop_weight = 1.0,
                                         double gate_weight = 1.0);

struct CandidateResult {
  int index = -1;
  std::string label;
  /// products.ok(): the candidate resolved to a schedulable design.
  bool feasible = false;
  /// Objective value; unset (0) when infeasible.
  double score = 0;
  /// Why the candidate failed (schedule status message, or an edit API
  /// error); empty when feasible.
  std::string error;
  /// The candidate's resolve was stopped by the deadline, a cancel
  /// request, or its per-candidate budget (after the one retry);
  /// `diag.code` is certify::Code::kTimeout and `feasible` is false.
  bool cancelled = false;
  /// A per-candidate budget trip triggered the retry-as-cold pass
  /// (whatever its outcome).
  bool retried = false;
  /// Witness-carrying diagnostic for an infeasible/ill-posed candidate
  /// (copied from products.schedule.diag; kNone when feasible or when
  /// the failure was an exception with no witness). Replayable against
  /// the candidate's edited graph via certify::verify_witness.
  certify::Diag diag;
  /// The fork's resolved products (copy-on-write: rows untouched by the
  /// candidate's cone are still shared with the base session).
  engine::Products products;
  /// The fork's session stats (merged cone size, warm/cold, timings).
  engine::SessionStats stats;
};

struct ExplorationResult {
  /// Index of the best feasible candidate: smallest score, ties broken
  /// by smallest index. -1 when every candidate is infeasible (in
  /// particular, for an empty candidate list).
  int winner = -1;
  std::vector<CandidateResult> candidates;
  /// Tasks that ran on a worker other than the one they were assigned
  /// to (work-stealing effectiveness; nondeterministic, diagnostics
  /// only -- everything else in this struct is thread-count-invariant).
  long long steals = 0;
  /// Candidates whose resolve was stopped (kTimeout diags).
  int cancelled = 0;
  /// Timed-out candidates that went through the retry-as-cold pass.
  int retried = 0;
  /// Candidates loaded from a resume checkpoint instead of recomputed.
  int resumed = 0;
  /// The batch stopped before every candidate resolved (deadline or
  /// cancellation): unstarted candidates hold kTimeout placeholders.
  bool stopped_early = false;
  /// Problem encountered while loading a resume checkpoint (the batch
  /// then recomputed from scratch; corrupt state is never loaded).
  persist::Error resume_error;
  /// Problem encountered while writing a periodic checkpoint (the
  /// exploration itself continued).
  persist::Error checkpoint_error;

  [[nodiscard]] const CandidateResult& best() const;
};

struct ExplorerOptions {
  /// Worker threads; 0 shares the process-wide base::shared_pool()
  /// (sized from hardware_concurrency / RELSCHED_THREADS), > 0 spawns
  /// a dedicated pool of that many workers.
  int threads = 0;

  // ---- Cancellation and deadlines ----------------------------------------

  /// Shared cancel flag observed between candidates and inside each
  /// candidate's relaxation loops (one watchdog quantum of latency).
  base::CancelToken cancel;
  /// Absolute wall-clock deadline for the whole batch.
  std::chrono::steady_clock::time_point deadline = base::Watchdog::kNoDeadline;
  /// Wall-clock budget per candidate resolve (0 = none). A candidate
  /// that trips it is retried once as a cold resolve with a fresh
  /// budget (a warm start is not always the fastest path); a second
  /// trip reports the candidate cancelled with a kTimeout witness.
  std::chrono::milliseconds candidate_timeout{0};
  /// Iteration budget per candidate resolve (0 = none); same retry
  /// semantics as candidate_timeout.
  std::uint64_t candidate_step_limit = 0;

  // ---- Checkpoint / resume ------------------------------------------------

  /// When set, completed candidate results are checkpointed into this
  /// directory (atomically, every checkpoint_every completions and at
  /// the end), keyed by a hash of the base graph and the candidate
  /// list. Cancelled candidates are never persisted as done.
  std::string checkpoint_dir;
  int checkpoint_every = 16;
  /// Load a matching checkpoint from checkpoint_dir before exploring
  /// and skip the candidates it already covers. A checkpoint whose
  /// config hash, candidate count, or payload does not match is
  /// rejected with a structured error (ExplorationResult::resume_error)
  /// and everything is recomputed.
  bool resume = false;
};

class Explorer {
 public:
  /// Takes ownership of the base session and resolves it. The base must
  /// resolve to a schedulable design (warm forks need a valid baseline).
  explicit Explorer(engine::SynthesisSession base, ExplorerOptions options = {});

  [[nodiscard]] const engine::SynthesisSession& base() const { return base_; }
  [[nodiscard]] int threads() const { return pool_->thread_count(); }

  /// Resolves every candidate on its own fork of the base session, in
  /// parallel, and reduces to the best feasible candidate under
  /// `objective`. Deterministic for any thread count when no deadline,
  /// cancel request, or per-candidate budget intervenes (resumed
  /// results are bit-identical to recomputation, so checkpointing does
  /// not affect determinism).
  ExplorationResult explore(const std::vector<Candidate>& candidates,
                            const Objective& objective);

 private:
  /// True once the batch-level deadline or cancel token has tripped.
  [[nodiscard]] bool stop_requested() const;
  /// Identity of (base graph, candidate list) for checkpoint matching.
  [[nodiscard]] std::uint64_t config_hash(
      const std::vector<Candidate>& candidates) const;
  void run_candidate(const Candidate& candidate, int index,
                     CandidateResult& slot, const Objective& objective);
  [[nodiscard]] persist::Error load_checkpoint(
      std::uint64_t config, std::vector<CandidateResult>& slots,
      std::vector<bool>& done) const;
  [[nodiscard]] persist::Error write_checkpoint(
      std::uint64_t config, const std::vector<CandidateResult>& slots,
      const std::vector<bool>& done) const;

  engine::SynthesisSession base_;
  ExplorerOptions options_;
  /// Candidate batches run on these workers, one candidate per task;
  /// each fork resolves sequentially on the worker that picked it up.
  /// threads == 0 shares the process-wide base::shared_pool().
  std::shared_ptr<base::WorkStealingPool> pool_;
};

}  // namespace relsched::explore
