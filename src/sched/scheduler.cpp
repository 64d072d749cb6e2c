#include "sched/scheduler.hpp"

#include <algorithm>
#include <optional>
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
/// current values over its forward in-edges. v's cells are its tracked
/// set, so each in-neighbour's cells merge into them by a two-cursor
/// walk over the ascending anchors.
void offset_step(const cg::ConstraintGraph& g, VertexId v,
                 RelativeSchedule& sched) {
  const std::span<const VertexId> tracked = sched.offsets(v).anchors();
  if (tracked.empty()) return;
  const std::span<graph::Weight> sigma = sched.values(v);
  for (EdgeId eid : g.in_edges(v)) {
    const cg::Edge& e = g.edge(eid);
    if (!cg::is_forward(e.kind)) continue;
    const VertexId p = e.from;
    const graph::Weight w = g.weight(eid).value;
    // The tail itself may be an anchor: sigma_p(p) = 0 by
    // normalization, so v inherits sigma_p(v) >= w.
    if (g.is_anchor(p)) {
      const auto it = std::lower_bound(tracked.begin(), tracked.end(), p);
      if (it != tracked.end() && *it == p) {
        graph::Weight& cell =
            sigma[static_cast<std::size_t>(it - tracked.begin())];
        cell = std::max(cell, w);
      }
    }
    const OffsetView from = sched.offsets(p);
    std::size_t i = 0;
    for (const auto& [a, sigma_p] : from.entries()) {
      while (i < tracked.size() && tracked[i] < a) ++i;
      if (i == tracked.size()) break;
      if (tracked[i] == a) sigma[i] = std::max(sigma[i], sigma_p + w);
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
/// graphs, which the prechecks reject anyway). Anchors common to both
/// endpoints are found by a two-cursor walk over their cells.
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
    const OffsetView head = sched.offsets(h);
    const std::span<const VertexId> head_anchors = head.anchors();
    std::size_t j = 0;
    bool edge_violated = false;
    for (const auto& [a, sigma_t] : sched.offsets(t).entries()) {
      if (a == h) {
        if (sigma_t + w > 0) edge_violated = true;  // sigma_h(h) == 0 fixed
      } else {
        while (j < head_anchors.size() && head_anchors[j] < a) ++j;
        if (j < head_anchors.size() && head_anchors[j] == a &&
            head.values()[j] < sigma_t + w) {
          if (repair != nullptr) repair->values(h)[j] = sigma_t + w;
          edge_violated = true;
        }
      }
      if (edge_violated && repair == nullptr) break;
    }
    if (edge_violated) ++violated;
  }
  return violated;
}

/// The paper's r = 0 state laid out once: vertex v's cells are its
/// tracked set `analysis.set(v, mode)`, every offset 0.
RelativeSchedule zero_schedule(const anchors::AnchorAnalysis& analysis,
                               anchors::AnchorMode mode, int vertex_count) {
  RelativeSchedule sched;
  sched.reserve(vertex_count, analysis.total_anchor_set_size(mode));
  for (int vi = 0; vi < vertex_count; ++vi) {
    sched.add_vertex();
    for (VertexId a : analysis.set(VertexId(vi), mode)) sched.add_cell(a, 0);
  }
  return sched;
}

/// The shared iteration loop (paper Fig 8): alternate IncrementalOffset
/// (one forward sweep over `order`, a topological order of Gf or a
/// topologically sorted part of it) and ReadjustOffsets over
/// `backward` until a sweep produces no violations, at most |Eb|+1
/// rounds (Theorem 8 / Corollary 2).
void run_rounds(const cg::ConstraintGraph& g, const ScheduleOptions& options,
                std::span<const int> order, std::span<const EdgeId> backward,
                RelativeSchedule sched, ScheduleResult& result) {
  const int max_rounds = g.backward_edge_count() + 1;
  for (int round = 1; round <= max_rounds; ++round) {
    for (const auto node : order) {
      offset_step(g, VertexId(node), sched);
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

/// Iterates from the paper's r = 0 state: offset 0 for every tracked
/// anchor.
void schedule_from_zero(const cg::ConstraintGraph& g,
                        const anchors::AnchorAnalysis& analysis,
                        const ScheduleOptions& options,
                        std::span<const int> topo, ScheduleResult& result) {
  run_rounds(g, options, topo, g.backward_edges(),
             zero_schedule(analysis, options.mode, g.vertex_count()), result);
}

}  // namespace

ScheduleResult verdict_result(const wellposed::CheckResult& verdict) {
  ScheduleResult result;
  switch (verdict.status) {
    case wellposed::Status::kWellPosed:
      result.status = ScheduleStatus::kScheduled;
      break;
    case wellposed::Status::kIllPosed:
      result.status = ScheduleStatus::kIllPosed;
      break;
    case wellposed::Status::kInfeasible:
      result.status = ScheduleStatus::kInfeasible;
      break;
    case wellposed::Status::kInvalid:
      result.status = ScheduleStatus::kInvalidGraph;
      break;
    case wellposed::Status::kUndecided:
      result.status = ScheduleStatus::kCancelled;
      break;
  }
  result.message = verdict.message;
  result.diag = verdict.diag;
  return result;
}

ScheduleResult schedule(const cg::ConstraintGraph& g,
                        const anchors::AnchorAnalysis& analysis,
                        const ScheduleOptions& options) {
  const std::optional<std::vector<int>> topo = g.forward_order();
  const std::span<const int> order =
      topo.has_value() ? std::span<const int>(*topo) : std::span<const int>();
  if (options.prechecks) {
    // The analysis in hand answers the anchor question.
    const ScheduleResult verdict =
        verdict_result(wellposed::cold_check(g, order, &analysis).verdict);
    if (!verdict.ok()) return verdict;
  }
  ScheduleResult result;
  if (!topo.has_value()) {
    result.status = ScheduleStatus::kInvalidGraph;
    result.message = "forward constraint graph has a cycle";
    return result;
  }
  schedule_from_zero(g, analysis, options, *topo, result);
  return result;
}

int iteration_count(const cg::ConstraintGraph& g,
                    const anchors::AnchorAnalysis& analysis) {
  ScheduleOptions options;
  options.prechecks = false;
  return schedule(g, analysis, options).iterations;
}

ScheduleResult schedule(const cg::ConstraintGraph& g,
                        const ScheduleOptions& options) {
  const std::optional<std::vector<int>> topo = g.forward_order();
  const wellposed::ColdCheck check = wellposed::cold_check(
      g, topo.has_value() ? std::span<const int>(*topo)
                          : std::span<const int>());
  // Without prechecks an ill-posed graph is still iterated (Corollary
  // 2); validity and feasibility, which the analysis needs, still stop.
  if (!check.analysed() ||
      (options.prechecks &&
       check.verdict.status == wellposed::Status::kIllPosed)) {
    return verdict_result(check.verdict);
  }
  ScheduleResult result;
  schedule_from_zero(g, check.analysis, options, *topo, result);
  return result;
}

RelativeSchedule decomposed_schedule(const cg::ConstraintGraph& g,
                                     const anchors::AnchorAnalysis& analysis,
                                     anchors::AnchorMode mode) {
  RelativeSchedule out;
  out.reserve(g.vertex_count(), analysis.total_anchor_set_size(mode));
  for (int vi = 0; vi < g.vertex_count(); ++vi) {
    const VertexId v(vi);
    out.add_vertex();
    // The mode's set lies inside A(v), whose anchors always reach v
    // inside their own cone.
    const auto keep = analysis.set(v, mode);
    int kept = 0;
    for (const auto [a, len] : analysis.lengths_at(v)) {
      if (!keep.contains(a)) continue;
      RELSCHED_CHECK(len != graph::kNegInf, "anchor cannot reach vertex");
      out.add_cell(a, len);
      ++kept;
    }
    RELSCHED_CHECK(kept == keep.size(), "anchor cannot reach vertex");
  }
  return out;
}

RelativeSchedule restrict_schedule(const RelativeSchedule& schedule,
                                   const anchors::AnchorAnalysis& analysis,
                                   anchors::AnchorMode mode) {
  RelativeSchedule out;
  out.reserve(schedule.vertex_count(), analysis.total_anchor_set_size(mode));
  for (int vi = 0; vi < schedule.vertex_count(); ++vi) {
    const VertexId v(vi);
    out.add_vertex();
    const auto keep = analysis.set(v, mode);
    for (const auto& [a, sigma] : schedule.offsets(v).entries()) {
      if (keep.contains(a)) out.add_cell(a, sigma);
    }
  }
  return out;
}

}  // namespace relsched::sched
