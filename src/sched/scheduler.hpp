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
#pragma once

#include <span>
#include <string>
#include <vector>

#include "anchors/anchor_analysis.hpp"
#include "base/vertex_mask.hpp"
#include "certify/certify.hpp"
#include "cg/constraint_graph.hpp"
#include "sched/relative_schedule.hpp"

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
  /// failures (forwarded from wellposed::check); kNone otherwise.
  certify::Diag diag;

  [[nodiscard]] bool ok() const { return status == ScheduleStatus::kScheduled; }
};

/// Schedules `g` against precomputed anchor analysis.
ScheduleResult schedule(const cg::ConstraintGraph& g,
                        const anchors::AnchorAnalysis& analysis,
                        const ScheduleOptions& options = {});

/// The same, over `topo`, a topological order of Gf the caller already
/// holds (the engine's cold resolve passes the order it maintains
/// instead of projecting and sorting Gf again).
ScheduleResult schedule(const cg::ConstraintGraph& g,
                        const anchors::AnchorAnalysis& analysis,
                        std::span<const int> topo,
                        const ScheduleOptions& options);

/// Convenience overload running the anchor analysis internally.
ScheduleResult schedule(const cg::ConstraintGraph& g,
                        const ScheduleOptions& options = {});

/// Warm-start rescheduling after an edit (engine layer). `previous`
/// must be a valid minimum schedule of the pre-edit graph, `affected`
/// the dirty cone of the edits (closed under out-edges in the full
/// graph) and `affected_topo` the same set listed in forward
/// topological order of the edited graph. `previous` is consumed:
/// unaffected vertices keep their offsets in place (no O(V) rebuild),
/// affected ones restart from the paper's r = 0 state. Produces offsets
/// identical to a cold schedule() of `g` -- property-tested
/// bit-for-bit. Skips prechecks: callers have already re-established
/// validity, feasibility, and well-posedness.
///
/// Tracks full anchor sets only (`options.mode` must be kFull). Every
/// sweep -- forward and backward -- is restricted to the affected cone:
/// an unaffected vertex's in-neighbours are all unaffected (the cone is
/// out-closed), its tracked set A(v) is unchanged, and its previous
/// offsets are already the cold minima, so no sweep could change it.
ScheduleResult reschedule(const cg::ConstraintGraph& g,
                          const anchors::AnchorAnalysis& analysis,
                          RelativeSchedule&& previous,
                          const base::VertexMask& affected,
                          std::span<const VertexId> affected_topo,
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
