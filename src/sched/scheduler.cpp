#include "sched/scheduler.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "base/error.hpp"
#include "graph/algorithms.hpp"
#include "wellposed/wellposed.hpp"

namespace relsched::sched {

const char* to_string(ScheduleStatus status) {
  switch (status) {
    case ScheduleStatus::kScheduled:
      return "scheduled";
    case ScheduleStatus::kIllPosed:
      return "ill-posed";
    case ScheduleStatus::kInfeasible:
      return "infeasible";
    case ScheduleStatus::kInconsistent:
      return "inconsistent";
    case ScheduleStatus::kInvalidGraph:
      return "invalid-graph";
    case ScheduleStatus::kCancelled:
      return "cancelled";
  }
  return "?";
}

namespace {

/// One vertex of IncrementalOffset (the forward longest-path sweep in
/// topological order): raises v's offsets monotonically from their
/// current values over its forward in-edges.
void offset_step(const cg::ConstraintGraph& g,
                 const anchors::AnchorAnalysis& analysis,
                 anchors::AnchorMode mode, VertexId v,
                 RelativeSchedule& sched) {
  const auto tracked = analysis.set(v, mode);
  if (tracked.empty()) return;
  for (EdgeId eid : g.in_edges(v)) {
    const cg::Edge& e = g.edge(eid);
    if (!cg::is_forward(e.kind)) continue;
    const VertexId p = e.from;
    const graph::Weight w = g.weight(eid).value;
    // The tail itself may be an anchor: sigma_p(p) = 0 by
    // normalization, so v inherits sigma_p(v) >= w.
    if (g.is_anchor(p) && tracked.contains(p)) {
      sched.offsets(v).raise(p, w);
    }
    for (const auto& [a, sigma_p] : sched.offsets(p).entries()) {
      if (tracked.contains(a)) sched.offsets(v).raise(a, sigma_p + w);
    }
  }
}

/// One sweep over the backward edges, returning the number of violated
/// edges. With `repair == nullptr` it only scans (the paper's E_violate
/// set, checked before mutating anything); with `repair` (which aliases
/// `sched` at every call site) it is ReadjustOffsets: each violated
/// head offset is delayed to the minimum satisfying value. Self-anchor
/// violations (the head *is* the anchor, whose own offset is pinned at
/// 0) cannot be repaired; they count as violations and surface as
/// inconsistency after |Eb|+1 rounds (they only occur on infeasible
/// graphs, which the prechecks reject anyway).
int backward_edge_sweep(const cg::ConstraintGraph& g,
                        const RelativeSchedule& sched,
                        RelativeSchedule* repair,
                        std::span<const EdgeId> backward) {
  int violated = 0;
  for (EdgeId eid : backward) {
    const cg::Edge& e = g.edge(eid);
    const VertexId t = e.from;
    const VertexId h = e.to;
    const graph::Weight w = e.fixed_weight;  // <= 0
    bool edge_violated = false;
    for (const auto& [a, sigma_t] : sched.offsets(t).entries()) {
      if (a == h) {
        if (sigma_t + w > 0) edge_violated = true;  // sigma_h(h) == 0 fixed
      } else if (const auto sigma_h = sched.offsets(h).get(a);
                 sigma_h.has_value() && *sigma_h < sigma_t + w) {
        // .has_value() filters anchors not common to both endpoints.
        if (repair != nullptr) repair->offsets(h).set(a, sigma_t + w);
        edge_violated = true;
      }
      if (edge_violated && repair == nullptr) break;
    }
    if (edge_violated) ++violated;
  }
  return violated;
}

/// The shared iteration loop (paper Fig 8): alternate IncrementalOffset
/// (one forward sweep over `order`, a topological order of Gf or a
/// topologically sorted part of it) and ReadjustOffsets over
/// `backward` until a sweep produces no violations, at most |Eb|+1
/// rounds (Theorem 8 / Corollary 2). Cold starts pass all of V and
/// every backward edge; warm restarts pass the dirty cone and the
/// backward edges with a head inside it.
template <typename Order>
void run_rounds(const cg::ConstraintGraph& g,
                const anchors::AnchorAnalysis& analysis,
                const ScheduleOptions& options, const Order& order,
                std::span<const EdgeId> backward, RelativeSchedule sched,
                ScheduleResult& result) {
  const int max_rounds = g.backward_edge_count() + 1;
  for (int round = 1; round <= max_rounds; ++round) {
    for (const auto node : order) {
      offset_step(g, analysis, options.mode, VertexId(node), sched);
    }
    result.iterations = round;

    IterationTrace trace;
    if (options.record_trace) {
      trace.iteration = round;
      trace.after_compute = sched;
    }

    if (backward_edge_sweep(g, sched, nullptr, backward) == 0) {
      if (options.record_trace) result.trace.push_back(std::move(trace));
      result.status = ScheduleStatus::kScheduled;
      result.schedule = std::move(sched);
      return;
    }
    trace.violated_backward_edges =
        backward_edge_sweep(g, sched, &sched, backward);
    if (options.record_trace) {
      trace.after_readjust = sched;
      result.trace.push_back(std::move(trace));
    }
  }

  result.status = ScheduleStatus::kInconsistent;
  result.message = "no convergence within |Eb|+1 iterations";
}

/// The validate() + feasibility + well-posedness prechecks. False, with
/// `result` carrying the verdict, when one fails.
bool passes_prechecks(const cg::ConstraintGraph& g, ScheduleResult& result) {
  if (const auto issues = g.validate(); !issues.empty()) {
    result.status = ScheduleStatus::kInvalidGraph;
    result.message = issues.front().message;
    return false;
  }
  const auto wp = wellposed::check(g);
  if (wp.status == wellposed::Status::kInfeasible) {
    result.status = ScheduleStatus::kInfeasible;
    result.message = wp.message;
    result.diag = wp.diag;
    return false;
  }
  if (wp.status == wellposed::Status::kIllPosed) {
    result.status = ScheduleStatus::kIllPosed;
    result.message = wp.message;
    result.diag = wp.diag;
    return false;
  }
  return true;
}

/// Iterates from the paper's r = 0 state: offset 0 for every tracked
/// anchor.
void schedule_from_zero(const cg::ConstraintGraph& g,
                        const anchors::AnchorAnalysis& analysis,
                        const ScheduleOptions& options,
                        std::span<const int> topo, ScheduleResult& result) {
  RelativeSchedule sched(g.vertex_count());
  for (int vi = 0; vi < g.vertex_count(); ++vi) {
    const VertexId v(vi);
    for (VertexId a : analysis.set(v, options.mode)) {
      sched.offsets(v).set(a, 0);
    }
  }
  run_rounds(g, analysis, options, topo, g.backward_edges(), std::move(sched),
             result);
}

}  // namespace

ScheduleResult schedule(const cg::ConstraintGraph& g,
                        const anchors::AnchorAnalysis& analysis,
                        const ScheduleOptions& options) {
  ScheduleResult result;
  if (options.prechecks && !passes_prechecks(g, result)) return result;
  const auto topo = graph::topological_order(g.project_forward());
  if (!topo.has_value()) {
    result.status = ScheduleStatus::kInvalidGraph;
    result.message = "forward constraint graph has a cycle";
    return result;
  }
  schedule_from_zero(g, analysis, options, *topo, result);
  return result;
}

ScheduleResult schedule(const cg::ConstraintGraph& g,
                        const anchors::AnchorAnalysis& analysis,
                        std::span<const int> topo,
                        const ScheduleOptions& options) {
  ScheduleResult result;
  if (options.prechecks && !passes_prechecks(g, result)) return result;
  schedule_from_zero(g, analysis, options, topo, result);
  return result;
}

ScheduleResult reschedule(const cg::ConstraintGraph& g,
                          const anchors::AnchorAnalysis& analysis,
                          RelativeSchedule&& previous,
                          const base::VertexMask& affected,
                          std::span<const VertexId> affected_topo,
                          const ScheduleOptions& options) {
  RELSCHED_CHECK(options.mode == anchors::AnchorMode::kFull,
                 "reschedule() tracks full anchor sets only");
  ScheduleResult result;
  // Warm seed: a vertex outside the affected cone keeps its previous
  // offsets in place (any path whose length changed runs through an
  // edit seed, so its endpoints are affected -- unaffected minima are
  // unchanged); affected vertices restart from the paper's r = 0
  // state. Every seed is therefore <= the minimum schedule, and the
  // monotone-raise iteration converges to exactly the offsets a cold
  // schedule() of `g` would produce, in at most as many rounds.
  for (VertexId v : affected_topo) {
    OffsetMap& offsets = previous.offsets(v);
    offsets.clear();
    for (VertexId a : analysis.anchor_set(v)) offsets.set(a, 0);
  }
  // An edge with both endpoints unaffected joins two vertices whose
  // offsets never move off the previous fixpoint, and the cone is
  // out-closed (an affected tail implies an affected head): only
  // backward edges with an affected head can be violated.
  std::vector<EdgeId> candidates;
  for (EdgeId eid : g.backward_edges()) {
    if (affected.contains(g.edge(eid).to)) candidates.push_back(eid);
  }
  run_rounds(g, analysis, options, affected_topo, candidates,
             std::move(previous), result);
  return result;
}

ScheduleResult schedule(const cg::ConstraintGraph& g,
                        const ScheduleOptions& options) {
  // AnchorAnalysis::compute requires a valid, feasible graph; surface
  // those failures as statuses instead of tripping its preconditions.
  if (!g.validate().empty()) {
    ScheduleResult result;
    result.status = ScheduleStatus::kInvalidGraph;
    result.message = g.validate().front().message;
    return result;
  }
  if (!wellposed::is_feasible(g)) {
    ScheduleResult result;
    result.status = ScheduleStatus::kInfeasible;
    result.message = "positive cycle with unbounded delays set to 0";
    return result;
  }
  const auto analysis = anchors::AnchorAnalysis::compute(g);
  return schedule(g, analysis, options);
}

RelativeSchedule decomposed_schedule(const cg::ConstraintGraph& g,
                                     const anchors::AnchorAnalysis& analysis,
                                     anchors::AnchorMode mode) {
  RelativeSchedule out(g.vertex_count());
  for (int vi = 0; vi < g.vertex_count(); ++vi) {
    const VertexId v(vi);
    // The mode's set lies inside A(v), whose anchors always reach v
    // inside their own cone.
    const auto keep = analysis.set(v, mode);
    int kept = 0;
    for (const auto [a, len] : analysis.lengths_at(v)) {
      if (!keep.contains(a)) continue;
      RELSCHED_CHECK(len != graph::kNegInf, "anchor cannot reach vertex");
      out.offsets(v).set(a, len);
      ++kept;
    }
    RELSCHED_CHECK(kept == keep.size(), "anchor cannot reach vertex");
  }
  return out;
}

RelativeSchedule restrict_schedule(const RelativeSchedule& schedule,
                                   const anchors::AnchorAnalysis& analysis,
                                   anchors::AnchorMode mode) {
  RelativeSchedule out(schedule.vertex_count());
  for (int vi = 0; vi < schedule.vertex_count(); ++vi) {
    const VertexId v(vi);
    const auto keep = analysis.set(v, mode);
    for (const auto& [a, sigma] : schedule.offsets(v).entries()) {
      if (keep.contains(a)) out.offsets(v).set(a, sigma);
    }
  }
  return out;
}

}  // namespace relsched::sched
