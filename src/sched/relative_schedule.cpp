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
  start_.reserve(static_cast<std::size_t>(vertices) + 1);
  anchor_.reserve(cells);
  value_.reserve(cells);
}

void RelativeSchedule::add_vertex() {
  if (start_.empty()) start_.push_back(0);
  start_.push_back(start_.back());
}

void RelativeSchedule::add_cell(VertexId anchor, graph::Weight value) {
  RELSCHED_CHECK(!start_.empty(), "add_cell() before add_vertex()");
  RELSCHED_CHECK(start_.back() == start_[start_.size() - 2] ||
                     anchor_.back() < anchor,
                 "a vertex's cells must ascend by anchor");
  RELSCHED_CHECK(anchor_.size() < UINT32_MAX, "too many schedule cells");
  anchor_.push_back(anchor);
  value_.push_back(value);
  ++start_.back();
}

void RelativeSchedule::shrink_to_fit() {
  start_.shrink_to_fit();
  anchor_.shrink_to_fit();
  value_.shrink_to_fit();
}

void RelativeSchedule::set(VertexId v, VertexId a, graph::Weight value) {
  const auto first = anchor_.begin() + start_[v.index()];
  const auto last = anchor_.begin() + start_[v.index() + 1];
  const auto it = std::lower_bound(first, last, a);
  const auto at = it - anchor_.begin();
  if (it != last && *it == a) {
    value_[static_cast<std::size_t>(at)] = value;
    return;
  }
  anchor_.insert(it, a);
  value_.insert(value_.begin() + at, value);
  for (std::size_t i = v.index() + 1; i < start_.size(); ++i) ++start_[i];
}

graph::Weight RelativeSchedule::max_offset(VertexId anchor) const {
  graph::Weight best = 0;
  for (std::size_t i = 0; i < anchor_.size(); ++i) {
    if (anchor_[i] == anchor) best = std::max(best, value_[i]);
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
