#include "sched/relative_schedule.hpp"

#include <algorithm>

#include "base/error.hpp"
#include "graph/algorithms.hpp"

namespace relsched::sched {

std::optional<graph::Weight> OffsetMap::get(VertexId anchor) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), anchor,
      [](const Entry& e, VertexId a) { return e.first < a; });
  if (it == entries_.end() || it->first != anchor) return std::nullopt;
  return it->second;
}

void OffsetMap::set(VertexId anchor, graph::Weight value) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), anchor,
      [](const Entry& e, VertexId a) { return e.first < a; });
  if (it != entries_.end() && it->first == anchor) {
    it->second = value;
  } else {
    entries_.insert(it, Entry{anchor, value});
  }
}

bool OffsetMap::raise(VertexId anchor, graph::Weight value) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), anchor,
      [](const Entry& e, VertexId a) { return e.first < a; });
  if (it != entries_.end() && it->first == anchor) {
    if (value > it->second) {
      it->second = value;
      return true;
    }
    return false;
  }
  entries_.insert(it, Entry{anchor, value});
  return true;
}

graph::Weight RelativeSchedule::max_offset(VertexId anchor) const {
  graph::Weight best = 0;
  for (const OffsetMap& om : offsets_) {
    if (auto v = om.get(anchor)) best = std::max(best, *v);
  }
  return best;
}

std::vector<graph::Weight> RelativeSchedule::start_times(
    const cg::ConstraintGraph& g, const DelayProfile& profile) const {
  const auto topo = g.forward_order();
  RELSCHED_CHECK(topo.has_value(), "start_times requires an acyclic Gf");
  return start_times(g, profile, *topo);
}

std::vector<graph::Weight> RelativeSchedule::start_times(
    const cg::ConstraintGraph& g, const DelayProfile& profile,
    std::span<const int> topo) const {
  std::vector<graph::Weight> start(static_cast<std::size_t>(g.vertex_count()),
                                   0);
  for (int node : topo) {
    const VertexId v(node);
    if (v == g.source()) {
      start[v.index()] = 0;
      continue;
    }
    graph::Weight t = 0;
    for (const auto& [anchor, offset] : offsets(v).entries()) {
      const graph::Weight completion =
          start[anchor.index()] + profile.delay_of(g, anchor);
      t = std::max(t, completion + offset);
    }
    start[v.index()] = t;
  }
  return start;
}

std::optional<EdgeId> find_violation(const cg::ConstraintGraph& g,
                                     const RelativeSchedule& schedule,
                                     const DelayProfile& profile) {
  const auto start = schedule.start_times(g, profile);
  for (const cg::Edge& e : g.edges()) {
    graph::Weight w;
    if (e.kind == cg::EdgeKind::kSequencing) {
      w = profile.delay_of(g, e.from);  // actual delay, not minimum
    } else {
      w = e.fixed_weight;
    }
    if (start[e.to.index()] < start[e.from.index()] + w) return e.id;
  }
  return std::nullopt;
}

}  // namespace relsched::sched
