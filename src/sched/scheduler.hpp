// Iterative incremental scheduling (paper §IV-E, §V-B).
//
// The algorithm alternates two phases:
//   IncrementalOffset  - longest-path propagation over the forward
//                        constraint graph in topological order, raising
//                        offsets monotonically;
//   ReadjustOffsets    - for each violated backward edge (max constraint),
//                        delay the head vertex's offsets by the minimum
//                        amount.
//
// Theorem 8: on a well-posed graph it reaches the minimum relative
// schedule within L+1 <= |Eb|+1 iterations; Corollary 2: inconsistent
// constraints are detected after |Eb|+1 iterations.
//
// The engine does not iterate: by Theorem 3 a session's full-mode
// minimum schedule is its anchor analysis's length cells
// (RelativeSchedule::from_lengths). This iteration serves the
// restricted modes, the paper's tables and traces, the iteration counts
// the CLI and design reports print, and tests as an oracle.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "anchors/anchor_analysis.hpp"
#include "certify/certify.hpp"
#include "cg/constraint_graph.hpp"
#include "sched/relative_schedule.hpp"
#include "wellposed/wellposed.hpp"

namespace relsched::sched {

enum class ScheduleStatus {
  kScheduled,     // minimum relative schedule found
  kIllPosed,      // well-posedness precheck failed
  kInfeasible,    // positive cycle (feasibility precheck failed)
  kInconsistent,  // no convergence within |Eb|+1 iterations
  kInvalidGraph,  // structural validation failed (Gf cyclic / not polar)
  kCancelled,     // cooperative cancellation (deadline / cancel request /
                  // iteration budget) stopped the resolve before a
                  // verdict; the products are undecided, not a failure
                  // of the constraints (appended value: never reorder)
};

[[nodiscard]] const char* to_string(ScheduleStatus status);

/// Per-iteration snapshot for trace output (Fig 10 of the paper).
struct IterationTrace {
  int iteration = 0;                // 1-based
  RelativeSchedule after_compute;   // after IncrementalOffset
  RelativeSchedule after_readjust;  // after ReadjustOffsets (if any ran)
  int violated_backward_edges = 0;  // violations found this iteration
};

struct ScheduleOptions {
  /// Which anchor sets offsets are tracked against. Theorems 4 and 6
  /// guarantee identical start times for all three choices on well-posed
  /// graphs; kIrredundant gives the cheapest schedule and control.
  anchors::AnchorMode mode = anchors::AnchorMode::kFull;
  /// Run validate() + feasibility + well-posedness prechecks. Disable
  /// only when the caller already established them.
  bool prechecks = true;
  /// Record per-iteration traces (costly; for reports and tests).
  bool record_trace = false;
};

struct ScheduleResult {
  ScheduleStatus status = ScheduleStatus::kInvalidGraph;
  RelativeSchedule schedule;
  /// Number of IncrementalOffset invocations executed.
  int iterations = 0;
  std::vector<IterationTrace> trace;
  std::string message;
  /// Witness-carrying diagnostic for kInfeasible / kIllPosed precheck
  /// failures (forwarded from wellposed::cold_check); kNone otherwise.
  certify::Diag diag;

  [[nodiscard]] bool ok() const { return status == ScheduleStatus::kScheduled; }
};

/// A cold verdict (wellposed::cold_check, wellposed::check) as a
/// schedule result with its message and witness: kWellPosed maps to
/// kScheduled (no schedule yet), kInvalid to kInvalidGraph and
/// kUndecided to kCancelled.
[[nodiscard]] ScheduleResult verdict_result(
    const wellposed::CheckResult& verdict);

/// Schedules `g` against precomputed anchor analysis. The prechecks are
/// wellposed::cold_check with `analysis` as its anchor analysis.
ScheduleResult schedule(const cg::ConstraintGraph& g,
                        const anchors::AnchorAnalysis& analysis,
                        const ScheduleOptions& options = {});

/// IncrementalOffset rounds the iteration takes to reach the minimum
/// schedule of `g` (Theorem 8: at most |Eb| + 1), the count the CLI and
/// design reports print. Runs schedule() without prechecks: `analysis`
/// must be of `g`, which must be well-posed.
int iteration_count(const cg::ConstraintGraph& g,
                    const anchors::AnchorAnalysis& analysis);

/// Convenience overload: wellposed::cold_check decides the graph and
/// supplies the analysis. Without prechecks an ill-posed graph is still
/// iterated (Corollary 2); an invalid or infeasible one never is.
ScheduleResult schedule(const cg::ConstraintGraph& g,
                        const ScheduleOptions& options = {});

/// Projects a schedule computed over full anchor sets down to the
/// relevant or irredundant sets (Theorems 4 and 6 guarantee identical
/// start times on well-posed graphs). Used by control generation to
/// minimize synchronization logic.
RelativeSchedule restrict_schedule(const RelativeSchedule& schedule,
                                   const anchors::AnchorAnalysis& analysis,
                                   anchors::AnchorMode mode);

/// The paper's alternative formulation (§IV intro): decompose the
/// constraint graph into one subgraph per anchor and schedule each
/// independently by longest paths. Yields the same minimum relative
/// schedule as the iterative algorithm on well-posed graphs; serves as a
/// cross-check oracle in tests and as an ablation baseline in benches.
/// Precondition: `g` feasible with acyclic Gf.
RelativeSchedule decomposed_schedule(const cg::ConstraintGraph& g,
                                     const anchors::AnchorAnalysis& analysis,
                                     anchors::AnchorMode mode =
                                         anchors::AnchorMode::kFull);

}  // namespace relsched::sched
