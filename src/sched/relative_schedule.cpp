#include "sched/relative_schedule.hpp"

#include <algorithm>
#include <ostream>

#include "base/error.hpp"
#include "graph/algorithms.hpp"

namespace relsched::sched {

std::ostream& operator<<(std::ostream& os, const OffsetView& offsets) {
  os << '{';
  const char* sep = "";
  for (const auto& [anchor, sigma] : offsets.entries()) {
    os << sep << 'v' << anchor.value() << ':' << sigma;
    sep = ", ";
  }
  return os << '}';
}

void RelativeSchedule::reserve(int vertices, std::size_t cells) {
  anchors::CellTable& t = cells_.write();
  t.start.reserve(static_cast<std::size_t>(vertices) + 1);
  t.anchor.reserve(cells);
  t.value.reserve(cells);
}

void RelativeSchedule::add_vertex() {
  anchors::CellTable& t = cells_.write();
  if (t.start.empty()) t.start.push_back(0);
  t.start.push_back(t.start.back());
}

void RelativeSchedule::add_cell(VertexId anchor, graph::Weight value) {
  anchors::CellTable& t = cells_.write();
  RELSCHED_CHECK(!t.start.empty(), "add_cell() before add_vertex()");
  RELSCHED_CHECK(t.start.back() == t.start[t.start.size() - 2] ||
                     t.anchor.back() < anchor,
                 "a vertex's cells must ascend by anchor");
  RELSCHED_CHECK(t.anchor.size() < UINT32_MAX, "too many schedule cells");
  t.anchor.push_back(anchor);
  t.value.push_back(value);
  ++t.start.back();
}

void RelativeSchedule::shrink_to_fit() {
  anchors::CellTable& t = cells_.write();
  t.start.shrink_to_fit();
  t.anchor.shrink_to_fit();
  t.value.shrink_to_fit();
}

void RelativeSchedule::set(VertexId v, VertexId a, graph::Weight value) {
  anchors::CellTable& t = cells_.write();
  const auto first = t.anchor.begin() + t.start[v.index()];
  const auto last = t.anchor.begin() + t.start[v.index() + 1];
  const auto it = std::lower_bound(first, last, a);
  const auto at = it - t.anchor.begin();
  if (it != last && *it == a) {
    t.value[static_cast<std::size_t>(at)] = value;
    return;
  }
  t.anchor.insert(it, a);
  t.value.insert(t.value.begin() + at, value);
  for (std::size_t i = v.index() + 1; i < t.start.size(); ++i) ++t.start[i];
}

graph::Weight RelativeSchedule::max_offset(VertexId anchor) const {
  const anchors::CellTable& t = cells_.read();
  graph::Weight best = 0;
  for (std::size_t i = 0; i < t.anchor.size(); ++i) {
    if (t.anchor[i] == anchor) best = std::max(best, t.value[i]);
  }
  return best;
}

std::vector<graph::Weight> RelativeSchedule::start_times(
    const cg::ConstraintGraph& g, const DelayProfile& profile) const {
  const auto topo = g.forward_order();
  RELSCHED_CHECK(topo.has_value(), "start_times requires an acyclic Gf");
  std::vector<graph::Weight> start(static_cast<std::size_t>(g.vertex_count()),
                                   0);
  for (int node : *topo) {
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
