#include "cg/constraint_graph.hpp"

#include <algorithm>
#include <sstream>

#include "base/strings.hpp"
#include "graph/dynamic_topo.hpp"

namespace relsched::cg {

VertexId ConstraintGraph::add_vertex(std::string_view name, Delay delay) {
  const VertexId id(static_cast<int>(vertices_.size()));
  vertices_.push_back(Vertex{id, names_.intern(name), delay});
  delay_code_.push_back(delay.is_unbounded() ? -1 : delay.cycles());
  forward_out_count_.push_back(0);
  forward_in_count_.push_back(0);
  out_head_.push_back(EdgeId::invalid());
  out_tail_.push_back(EdgeId::invalid());
  in_head_.push_back(EdgeId::invalid());
  in_tail_.push_back(EdgeId::invalid());
  edits_.push_back(Edit{Edit::Kind::kAddVertex, /*structural=*/true,
                        /*forward=*/true, id, id});
  return id;
}

EdgeId ConstraintGraph::add_edge(VertexId from, VertexId to, EdgeKind kind,
                                 int fixed_weight) {
  RELSCHED_CHECK(from.is_valid() && from.value() < vertex_count(),
                 "edge tail out of range");
  RELSCHED_CHECK(to.is_valid() && to.value() < vertex_count(),
                 "edge head out of range");
  RELSCHED_CHECK(from != to, "self loops are not allowed");
  const EdgeId id(static_cast<int>(edges_.size()));
  edges_.push_back(Edge{id, from, to, kind, fixed_weight});
  links_.push_back(EdgeLinks{EdgeId::invalid(), EdgeId::invalid(),
                             EdgeId::invalid(), EdgeId::invalid()});
  // Tail-append keeps the chains in insertion order.
  EdgeLinks& l = links_.back();
  if (out_tail_[from.index()].is_valid()) {
    links_[out_tail_[from.index()].index()].next_out = id;
    l.prev_out = out_tail_[from.index()];
  } else {
    out_head_[from.index()] = id;
  }
  out_tail_[from.index()] = id;
  if (in_tail_[to.index()].is_valid()) {
    links_[in_tail_[to.index()].index()].next_in = id;
    l.prev_in = in_tail_[to.index()];
  } else {
    in_head_[to.index()] = id;
  }
  in_tail_[to.index()] = id;
  if (is_forward(kind)) {
    ++forward_out_count_[from.index()];
    ++forward_in_count_[to.index()];
  } else {
    // New ids are maximal, so appending keeps the index ascending.
    backward_ids_.push_back(id);
  }
  return id;
}

void ConstraintGraph::unlink_edge(EdgeId e) {
  const Edge& ed = edges_[e.index()];
  const EdgeLinks l = links_[e.index()];
  if (l.prev_out.is_valid()) {
    links_[l.prev_out.index()].next_out = l.next_out;
  } else {
    out_head_[ed.from.index()] = l.next_out;
  }
  if (l.next_out.is_valid()) {
    links_[l.next_out.index()].prev_out = l.prev_out;
  } else {
    out_tail_[ed.from.index()] = l.prev_out;
  }
  if (l.prev_in.is_valid()) {
    links_[l.prev_in.index()].next_in = l.next_in;
  } else {
    in_head_[ed.to.index()] = l.next_in;
  }
  if (l.next_in.is_valid()) {
    links_[l.next_in.index()].prev_in = l.prev_in;
  } else {
    in_tail_[ed.to.index()] = l.prev_in;
  }
}

void ConstraintGraph::relabel_edge(EdgeId from_id, EdgeId to_id) {
  const Edge& ed = edges_[from_id.index()];
  const EdgeLinks l = links_[from_id.index()];
  if (l.prev_out.is_valid()) {
    links_[l.prev_out.index()].next_out = to_id;
  } else {
    out_head_[ed.from.index()] = to_id;
  }
  if (l.next_out.is_valid()) {
    links_[l.next_out.index()].prev_out = to_id;
  } else {
    out_tail_[ed.from.index()] = to_id;
  }
  if (l.prev_in.is_valid()) {
    links_[l.prev_in.index()].next_in = to_id;
  } else {
    in_head_[ed.to.index()] = to_id;
  }
  if (l.next_in.is_valid()) {
    links_[l.next_in.index()].prev_in = to_id;
  } else {
    in_tail_[ed.to.index()] = to_id;
  }
  links_[to_id.index()] = l;
}

EdgeId ConstraintGraph::add_sequencing_edge(VertexId from, VertexId to) {
  const EdgeId id = add_edge(from, to, EdgeKind::kSequencing, 0);
  edits_.push_back(Edit{Edit::Kind::kAddSequencingEdge, /*structural=*/true,
                        /*forward=*/true, from, to});
  return id;
}

EdgeId ConstraintGraph::add_min_constraint(VertexId from, VertexId to,
                                           int min_cycles) {
  RELSCHED_CHECK(min_cycles >= 0, "minimum timing constraint must be >= 0");
  const EdgeId id = add_edge(from, to, EdgeKind::kMinConstraint, min_cycles);
  edits_.push_back(Edit{Edit::Kind::kAddMinConstraint, /*structural=*/false,
                        /*forward=*/true, from, to});
  return id;
}

EdgeId ConstraintGraph::add_max_constraint(VertexId from, VertexId to,
                                           int max_cycles) {
  RELSCHED_CHECK(max_cycles >= 0, "maximum timing constraint must be >= 0");
  // sigma(to) <= sigma(from) + u  <=>  sigma(from) >= sigma(to) - u:
  // backward edge (to, from) with weight -u (Table I).
  const EdgeId id = add_edge(to, from, EdgeKind::kMaxConstraint, -max_cycles);
  edits_.push_back(Edit{Edit::Kind::kAddMaxConstraint, /*structural=*/false,
                        /*forward=*/false, to, from});
  return id;
}

void ConstraintGraph::set_delay(VertexId v, Delay delay) {
  // A bounded<->unbounded flip changes the anchor set itself (and which
  // out-edges carry unbounded weight): structural for consumers.
  const bool flips =
      vertices_[v.index()].delay.is_bounded() != delay.is_bounded();
  vertices_[v.index()].delay = delay;
  delay_code_[v.index()] = delay.is_unbounded() ? -1 : delay.cycles();
  edits_.push_back(Edit{Edit::Kind::kSetDelay, /*structural=*/flips,
                        /*forward=*/false, v, v});
}

void ConstraintGraph::remove_constraint(EdgeId e) {
  RELSCHED_CHECK(e.is_valid() && e.value() < edge_count(),
                 "edge id out of range");
  const Edge removed = edges_[e.index()];
  RELSCHED_CHECK(removed.kind != EdgeKind::kSequencing,
                 "sequencing edges cannot be removed");
  if (removed.kind == EdgeKind::kMinConstraint) {
    // Keep the graph polar: the tail must retain a forward out-edge and
    // the head a forward in-edge.
    RELSCHED_CHECK(forward_out_count_[removed.from.index()] > 1,
                   "removal would leave the tail sinkless");
    RELSCHED_CHECK(forward_in_count_[removed.to.index()] > 1,
                   "removal would leave the head unreachable");
  }
  // Endpoint seeds suffice for the dirty cone (see Edit::seeds()).
  const Edit edit{Edit::Kind::kRemoveConstraint, /*structural=*/false,
                  removed.kind == EdgeKind::kMinConstraint, removed.from,
                  removed.to};

  unlink_edge(e);
  if (is_forward(removed.kind)) {
    --forward_out_count_[removed.from.index()];
    --forward_in_count_[removed.to.index()];
  } else {
    const auto it =
        std::lower_bound(backward_ids_.begin(), backward_ids_.end(), e);
    RELSCHED_CHECK(it != backward_ids_.end() && *it == e,
                   "backward-edge index out of sync");
    backward_ids_.erase(it);
  }
  const EdgeId last(edge_count() - 1);
  if (e != last) {
    // Swap-pop: the previously-last edge takes the freed id.
    relabel_edge(last, e);
    Edge moved = edges_.back();
    moved.id = e;
    edges_[e.index()] = moved;
    if (!is_forward(moved.kind)) {
      // `last` is the maximal id, so it sits at the back of the index;
      // re-insert it under its new, smaller id.
      RELSCHED_CHECK(!backward_ids_.empty() && backward_ids_.back() == last,
                     "backward-edge index out of sync");
      backward_ids_.pop_back();
      backward_ids_.insert(
          std::lower_bound(backward_ids_.begin(), backward_ids_.end(), e), e);
    }
  }
  edges_.pop_back();
  links_.pop_back();
  edits_.push_back(edit);
}

void ConstraintGraph::set_constraint_bound(EdgeId e, int cycles) {
  RELSCHED_CHECK(e.is_valid() && e.value() < edge_count(),
                 "edge id out of range");
  RELSCHED_CHECK(cycles >= 0, "timing constraint bound must be >= 0");
  Edge& edge = edges_[e.index()];
  RELSCHED_CHECK(edge.kind != EdgeKind::kSequencing,
                 "sequencing edges have no bound");
  edge.fixed_weight =
      edge.kind == EdgeKind::kMinConstraint ? cycles : -cycles;
  edits_.push_back(Edit{Edit::Kind::kSetConstraintBound, /*structural=*/false,
                        /*forward=*/false, edge.from, edge.to});
}

VertexId ConstraintGraph::sink() const {
  VertexId found = VertexId::invalid();
  for (const Vertex& v : vertices_) {
    if (forward_out_count_[v.id.index()] != 0) continue;
    if (found.is_valid()) return VertexId::invalid();  // not polar
    found = v.id;
  }
  return found;
}

std::vector<VertexId> ConstraintGraph::anchors() const {
  std::vector<VertexId> result;
  for (const Vertex& v : vertices_) {
    if (is_anchor(v.id)) result.push_back(v.id);
  }
  return result;
}

graph::Digraph ConstraintGraph::project_full() const {
  graph::Digraph g(vertex_count());
  for (const Edge& e : edges_) {
    g.add_arc(e.from.value(), e.to.value(), weight(e.id).value);
  }
  return g;
}

graph::Digraph ConstraintGraph::project_forward() const {
  graph::Digraph g(vertex_count());
  for (const Edge& e : edges_) {
    if (!is_forward(e.kind)) continue;
    g.add_arc(e.from.value(), e.to.value(), weight(e.id).value);
  }
  return g;
}

std::optional<std::vector<int>> ConstraintGraph::forward_order() const {
  graph::DynamicTopoOrder topo;
  if (!topo.reset(*this)) {
    return std::nullopt;
  }
  return topo.order();
}

std::vector<ValidationIssue> ConstraintGraph::validate() const {
  const std::optional<std::vector<int>> order = forward_order();
  if (!order.has_value()) return validate(std::nullopt);
  return validate(std::span<const int>(*order));
}

std::vector<ValidationIssue> ConstraintGraph::validate(
    std::optional<std::span<const int>> gf_order) const {
  std::vector<ValidationIssue> issues;
  if (vertices_.empty()) {
    issues.push_back({ValidationIssue::Kind::kNoVertices, VertexId::invalid(),
                      "graph has no vertices"});
    return issues;
  }
  if (!gf_order.has_value()) {
    issues.push_back({ValidationIssue::Kind::kForwardCycle, VertexId::invalid(),
                      "forward constraint graph Gf has a cycle"});
    return issues;  // polarity checks are meaningless on a cyclic Gf
  }
  const VertexId snk = sink();
  if (!snk.is_valid()) {
    issues.push_back({ValidationIssue::Kind::kMultipleSinks, VertexId::invalid(),
                      "graph is not polar: multiple sinks"});
    return issues;
  }
  // Every forward edge points forward in the order, so one pass front
  // to back settles reachability from the source, and one back to front
  // settles reaching the sink. The source must be an anchor of every
  // other vertex (v0 in A(v)): reached through one of the source's
  // sequencing edges, whose weight is the unbounded delta(v0). Bit 1
  // marks any forward path from the source, bit 2 one that leaves it
  // through a sequencing edge.
  constexpr std::uint8_t kReached = 1;
  constexpr std::uint8_t kAnchored = 2;
  const std::span<const int> order = *gf_order;
  std::vector<std::uint8_t> from_source(vertices_.size(), 0);
  std::vector<std::uint8_t> to_sink(vertices_.size(), 0);
  from_source[source().index()] = kReached;
  for (const int node : order) {
    const std::uint8_t reached = from_source[static_cast<std::size_t>(node)];
    if (reached == 0) continue;
    const bool at_source = node == source().value();
    for (EdgeId eid : out_edges(VertexId(node))) {
      const Edge& e = edges_[eid.index()];
      if (!is_forward(e.kind)) continue;
      from_source[e.to.index()] |=
          !at_source ? reached
          : e.kind == EdgeKind::kSequencing ? kReached | kAnchored
                                            : kReached;
    }
  }
  to_sink[snk.index()] = 1;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    std::uint8_t& reaches = to_sink[static_cast<std::size_t>(*it)];
    for (EdgeId eid : out_edges(VertexId(*it))) {
      if (reaches != 0) break;
      const Edge& e = edges_[eid.index()];
      if (is_forward(e.kind)) reaches = to_sink[e.to.index()];
    }
  }
  for (const Vertex& v : vertices_) {
    if (from_source[v.id.index()] == 0) {
      issues.push_back({ValidationIssue::Kind::kNotReachableFromSource, v.id,
                        cat("vertex '", v.name, "' unreachable from source")});
    } else if (v.id != source() &&
               (from_source[v.id.index()] & kAnchored) == 0) {
      issues.push_back(
          {ValidationIssue::Kind::kNotReachableFromSource, v.id,
           cat("vertex '", v.name,
               "' is reached from the source only through minimum timing "
               "constraints")});
    }
    if (to_sink[v.id.index()] == 0) {
      issues.push_back({ValidationIssue::Kind::kDoesNotReachSink, v.id,
                        cat("vertex '", v.name, "' does not reach the sink")});
    }
  }
  return issues;
}

std::string ConstraintGraph::to_dot() const {
  std::ostringstream os;
  os << "digraph \"" << name_ << "\" {\n  rankdir=TB;\n";
  for (const Vertex& v : vertices_) {
    os << "  v" << v.id << " [label=\"" << v.name << "\\n" << v.delay << "\"";
    if (is_anchor(v.id)) os << ", peripheries=2";
    os << "];\n";
  }
  for (const Edge& e : edges_) {
    const EdgeWeight w = weight(e.id);
    os << "  v" << e.from << " -> v" << e.to << " [label=\"";
    if (w.unbounded) {
      os << "d(" << vertex(e.from).name << ")";
    } else {
      os << w.value;
    }
    os << "\"";
    if (!is_forward(e.kind)) os << ", style=dashed";
    if (e.kind == EdgeKind::kMinConstraint) os << ", color=blue";
    os << "];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace relsched::cg
