// DynamicTopoOrder: a topological order maintained under arc insertion
// and deletion (Pearce–Kelly, "A Dynamic Topological Sort Algorithm for
// Directed Acyclic Graphs", JEA 2006).
//
// This is the graph-kernel piece of the incremental synthesis engine:
// the forward constraint graph Gf changes by one edge per design edit,
// and recomputing Kahn's order from scratch on every edit would make
// each warm reschedule pay O(V+E) before it even starts. An insertion
// (x, y) with ord[x] < ord[y] costs O(1); otherwise only the "affected
// region" — nodes ordered between y and x — is visited and reordered.
// Deletions are O(deg): removing an arc can never invalidate a
// topological order of the remaining graph.
#pragma once

#include <utility>
#include <vector>

#include "base/error.hpp"

namespace relsched::graph {

class DynamicTopoOrder {
 public:
  DynamicTopoOrder() = default;

  /// (Re)initializes over `node_count` nodes from the arcs that
  /// `for_each_arc(add)` enumerates by calling add(from, to), and sorts
  /// them with Kahn's algorithm (FIFO ready queue seeded in node order,
  /// each node's arcs visited in enumeration order). The caller's own
  /// edge list feeds the adjacency directly, so no intermediate graph
  /// is built. Returns false (and leaves the object invalid) when the
  /// arcs close a cycle.
  template <typename ForEachArc>
  bool reset(int node_count, ForEachArc&& for_each_arc) {
    load_arcs(node_count, std::forward<ForEachArc>(for_each_arc));
    return sort_loaded();
  }

  /// (Re)initializes like reset(), adopting `order` verbatim instead of
  /// recomputing one. Pearce–Kelly orders are path-dependent (they
  /// record the history of insertions), so restoring a checkpointed
  /// session bit-identically requires restoring the exact order, not an
  /// equivalent one. Returns false (object invalid) unless `order` is a
  /// permutation of the nodes under which every arc points forward.
  template <typename ForEachArc>
  bool restore(int node_count, ForEachArc&& for_each_arc,
               std::vector<int> order) {
    load_arcs(node_count, std::forward<ForEachArc>(for_each_arc));
    return adopt_order(std::move(order));
  }

  [[nodiscard]] bool valid() const { return valid_; }
  [[nodiscard]] int node_count() const { return static_cast<int>(out_.size()); }

  /// Topological order (node indices) / inverse (node -> position).
  [[nodiscard]] const std::vector<int>& order() const { return order_; }
  [[nodiscard]] int position(int node) const {
    return pos_[static_cast<std::size_t>(node)];
  }

  /// Appends a node at the end of the order.
  void add_node();

  /// Inserts arc (from, to), locally reordering the affected region.
  /// Returns false and leaves both the arc set and the order unchanged
  /// when the arc would close a cycle.
  bool add_arc(int from, int to);

  /// Removes one occurrence of arc (from, to); the order stays valid.
  /// Returns false if no such arc is present.
  bool remove_arc(int from, int to);

 private:
  /// Empties the adjacency (keeping each node's list capacity, so a
  /// repeated reset of the same graph allocates nothing) and fills it
  /// from `for_each_arc`.
  template <typename ForEachArc>
  void load_arcs(int node_count, ForEachArc&& for_each_arc) {
    valid_ = false;
    const std::size_t n = static_cast<std::size_t>(node_count);
    out_.resize(n);
    in_.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      out_[v].clear();
      in_[v].clear();
    }
    for_each_arc([this](int from, int to) {
      out_[static_cast<std::size_t>(from)].push_back(to);
      in_[static_cast<std::size_t>(to)].push_back(from);
    });
  }
  /// Kahn's order of the loaded arcs; false when they are cyclic.
  bool sort_loaded();
  /// Adopts `order` for the loaded arcs; false unless it is a
  /// topological order of them.
  bool adopt_order(std::vector<int> order);

  bool valid_ = false;
  std::vector<std::vector<int>> out_;  // mirror adjacency (node lists)
  std::vector<std::vector<int>> in_;
  std::vector<int> order_;  // position -> node
  std::vector<int> pos_;    // node -> position
};

}  // namespace relsched::graph
