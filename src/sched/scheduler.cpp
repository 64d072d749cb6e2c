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

/// A sorted Gf as validate() takes it.
std::optional<std::span<const int>> as_order(
    const std::optional<std::vector<int>>& topo) {
  if (!topo.has_value()) return std::nullopt;
  return std::span<const int>(*topo);
}

/// Structural validation over `gf_order` (std::nullopt: Gf is cyclic).
/// False, with `result` carrying the verdict, when it fails.
bool passes_validation(const cg::ConstraintGraph& g,
                       std::optional<std::span<const int>> gf_order,
                       ScheduleResult& result) {
  const auto issues = g.validate(gf_order);
  if (issues.empty()) return true;
  result.status = ScheduleStatus::kInvalidGraph;
  result.message = issues.front().message;
  return false;
}

/// The well-posedness verdict `wp` as a schedule status. False, with
/// `result` carrying the verdict, unless `wp` is well-posed.
bool passes_wellposed(const wellposed::CheckResult& wp, ScheduleResult& result) {
  if (wp.status == wellposed::Status::kWellPosed) return true;
  result.status = wp.status == wellposed::Status::kInfeasible
                      ? ScheduleStatus::kInfeasible
                      : ScheduleStatus::kIllPosed;
  result.message = wp.message;
  result.diag = wp.diag;
  return false;
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

ScheduleResult schedule(const cg::ConstraintGraph& g,
                        const anchors::AnchorAnalysis& analysis,
                        const ScheduleOptions& options) {
  ScheduleResult result;
  const std::optional<std::vector<int>> topo = g.forward_order();
  if (options.prechecks) {
    // The analysis in hand supplies the anchor sets: only validation
    // and feasibility are computed here.
    if (!passes_validation(g, as_order(topo), result) ||
        !passes_wellposed(wellposed::check(g, analysis.anchor_sets(), *topo),
                          result)) {
      return result;
    }
  } else if (!topo.has_value()) {
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
  // AnchorAnalysis::compute requires a valid, feasible graph; surface
  // those failures as statuses instead of tripping its preconditions.
  // Each check runs once, over one topological order of Gf.
  ScheduleResult result;
  const std::optional<std::vector<int>> topo = g.forward_order();
  if (!passes_validation(g, as_order(topo), result)) return result;
  if (!wellposed::is_feasible(g, *topo)) {
    result.status = ScheduleStatus::kInfeasible;
    result.message = "positive cycle with unbounded delays set to 0";
    return result;
  }
  const auto analysis = anchors::AnchorAnalysis::compute(g, *topo);
  if (options.prechecks &&
      !passes_wellposed(
          wellposed::check_containment(g, analysis.anchor_sets()), result)) {
    return result;
  }
  schedule_from_zero(g, analysis, options, *topo, result);
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
