// DynamicTopoOrder: a topological order maintained under arc insertion
// (Pearce–Kelly, "A Dynamic Topological Sort Algorithm for Directed
// Acyclic Graphs", JEA 2006).
//
// This is the graph-kernel piece of the incremental synthesis engine:
// the forward constraint graph Gf changes by one edge per design edit,
// and recomputing Kahn's order from scratch on every edit would make
// each warm reschedule pay O(V+E) before it even starts. An insertion
// (x, y) with ord[x] < ord[y] costs O(1); otherwise only the "affected
// region" — nodes ordered between y and x — is visited and reordered.
// Deleting an arc can never invalidate a topological order, so
// deletions need no call at all.
//
// The object holds only the order and its inverse. The arcs are read
// from the caller's own graph through an adjacency template, which
// must provide:
//
//   int vertex_count() const;
//   int forward_in_degree(int v) const;            // arcs into v
//   void for_each_forward_out(int v, F f) const;   // f(to, key)
//   void for_each_forward_in(int v, F f) const;    // f(from)
//
// `key` is an arc's enumeration key (an edge id): Kahn's algorithm
// releases a node's successors in ascending key order whatever order
// its out-chain lists them in.
#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "base/error.hpp"

namespace relsched::graph {

class DynamicTopoOrder {
 public:
  /// An arc (from, to).
  struct Arc {
    int from = 0;
    int to = 0;
    friend bool operator==(const Arc&, const Arc&) = default;
  };

  DynamicTopoOrder() = default;

  /// (Re)initializes over `adj` and sorts it with Kahn's algorithm
  /// (FIFO ready queue seeded in node order, each node's arcs visited
  /// in ascending key order). Returns false (and leaves the object
  /// invalid) when the arcs close a cycle.
  template <typename Adjacency>
  bool reset(const Adjacency& adj) {
    valid_ = false;
    const std::size_t n = static_cast<std::size_t>(adj.vertex_count());
    // pos_ counts each node's unreleased in-arcs until the order is
    // complete; the order doubles as the FIFO ready queue.
    pos_.resize(n);
    order_.clear();
    order_.reserve(n);
    for (std::size_t v = 0; v < n; ++v) {
      pos_[v] = adj.forward_in_degree(static_cast<int>(v));
      if (pos_[v] == 0) order_.push_back(static_cast<int>(v));
    }
    for (std::size_t head = 0; head < order_.size(); ++head) {
      const int u = order_[head];
      const std::size_t first = order_.size();
      int last_key = -1;
      bool ascending = true;
      adj.for_each_forward_out(u, [&](int to, int key) {
        ascending = ascending && key > last_key;
        last_key = key;
        if (--pos_[static_cast<std::size_t>(to)] == 0) order_.push_back(to);
      });
      if (!ascending && order_.size() - first > 1) {
        sort_released(adj, u, first);
      }
    }
    if (order_.size() != n) return false;
    for (std::size_t i = 0; i < n; ++i) {
      pos_[static_cast<std::size_t>(order_[i])] = static_cast<int>(i);
    }
    valid_ = true;
    return true;
  }

  /// (Re)initializes like reset(), adopting `order` verbatim instead of
  /// recomputing one. Pearce–Kelly orders are path-dependent (they
  /// record the history of insertions), so restoring a checkpointed
  /// session bit-identically requires restoring the exact order, not an
  /// equivalent one. Returns false (object invalid) unless `order` is a
  /// permutation of the nodes under which every arc points forward.
  template <typename Adjacency>
  bool restore(const Adjacency& adj, std::vector<int> order) {
    valid_ = false;
    const std::size_t n = static_cast<std::size_t>(adj.vertex_count());
    if (order.size() != n) return false;
    std::vector<int> pos(n, -1);
    for (std::size_t i = 0; i < n; ++i) {
      const int v = order[i];
      if (v < 0 || static_cast<std::size_t>(v) >= n ||
          pos[static_cast<std::size_t>(v)] != -1) {
        return false;  // not a permutation
      }
      pos[static_cast<std::size_t>(v)] = static_cast<int>(i);
    }
    bool forward = true;
    for (std::size_t u = 0; u < n && forward; ++u) {
      adj.for_each_forward_out(static_cast<int>(u), [&](int to, int) {
        forward = forward && pos[u] < pos[static_cast<std::size_t>(to)];
      });
    }
    if (!forward) return false;  // not a topological order of the arcs
    order_ = std::move(order);
    pos_ = std::move(pos);
    valid_ = true;
    return true;
  }

  [[nodiscard]] bool valid() const { return valid_; }
  [[nodiscard]] int node_count() const { return static_cast<int>(pos_.size()); }

  /// Topological order (node indices) / inverse (node -> position).
  [[nodiscard]] const std::vector<int>& order() const { return order_; }
  [[nodiscard]] int position(int node) const {
    return pos_[static_cast<std::size_t>(node)];
  }

  /// Heap bytes held (the order and its inverse).
  [[nodiscard]] std::size_t heap_bytes() const {
    return (order_.capacity() + pos_.capacity()) * sizeof(int);
  }

  /// Accounts for arc (from, to), which `adj` already holds, locally
  /// reordering the affected region. The order must be a topological
  /// order of `adj`'s arcs minus (from, to) and minus `pending`: arcs
  /// `adj` holds that a journal replay has not reached yet (a multiset;
  /// empty for single edits). Discovery walks skip them. Returns false
  /// and leaves the order unchanged when the arc closes a cycle.
  template <typename Adjacency>
  bool add_arc(int from, int to, const Adjacency& adj,
               std::span<const Arc> pending = {}) {
    RELSCHED_CHECK(valid_, "DynamicTopoOrder used before a successful reset");
    RELSCHED_CHECK(from >= 0 && from < node_count(), "arc tail out of range");
    RELSCHED_CHECK(to >= 0 && to < node_count(), "arc head out of range");
    if (from == to) return false;  // self loop is a cycle

    const int lo = pos_[static_cast<std::size_t>(to)];
    const int hi = pos_[static_cast<std::size_t>(from)];
    if (lo > hi) return true;  // already consistent with the order

    // Affected region: nodes with lo <= pos <= hi. Forward discovery
    // from `to` finds delta_f; reaching `from` proves the new arc
    // closes a cycle. Backward discovery from `from` finds delta_b.
    std::vector<int> delta_f, delta_b, stack;
    std::vector<bool> seen(static_cast<std::size_t>(node_count()), false);
    std::vector<bool> skipped(pending.size());
    // Visits each arc out of (into) `v` that is not pending: the first
    // pending copies of an (from, to) pair stand for its unreached
    // insertions.
    const auto visit = [&](int v, bool out, auto&& f) {
      const auto arc = [&](int other) {
        if (!pending.empty()) {
          const Arc a = out ? Arc{v, other} : Arc{other, v};
          for (std::size_t k = 0; k < pending.size(); ++k) {
            if (!skipped[k] && pending[k] == a) {
              skipped[k] = true;
              return;
            }
          }
        }
        f(other);
      };
      std::fill(skipped.begin(), skipped.end(), false);
      if (out) {
        adj.for_each_forward_out(v, [&](int w, int) { arc(w); });
      } else {
        adj.for_each_forward_in(v, arc);
      }
    };
    stack.push_back(to);
    seen[static_cast<std::size_t>(to)] = true;
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      if (v == from) return false;  // cycle: reject, nothing modified yet
      delta_f.push_back(v);
      visit(v, /*out=*/true, [&](int w) {
        if (!seen[static_cast<std::size_t>(w)] &&
            pos_[static_cast<std::size_t>(w)] <= hi) {
          seen[static_cast<std::size_t>(w)] = true;
          stack.push_back(w);
        }
      });
    }
    stack.push_back(from);
    seen[static_cast<std::size_t>(from)] = true;
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      delta_b.push_back(v);
      visit(v, /*out=*/false, [&](int w) {
        if (!seen[static_cast<std::size_t>(w)] &&
            pos_[static_cast<std::size_t>(w)] >= lo) {
          seen[static_cast<std::size_t>(w)] = true;
          stack.push_back(w);
        }
      });
    }
    reorder(delta_b, delta_f);
    return true;
  }

 private:
  /// Kahn's release order at `u` when its out-chain is not in key
  /// order: order_[first..] (the nodes `u` released) sorted by the
  /// largest key among the arcs from `u` to each, the arc whose visit
  /// would release it in a key-ordered walk.
  template <typename Adjacency>
  void sort_released(const Adjacency& adj, int u, std::size_t first) {
    std::vector<std::pair<int, int>> keyed;  // (releasing key, node)
    for (std::size_t i = first; i < order_.size(); ++i) {
      int key = -1;
      adj.for_each_forward_out(u, [&](int to, int k) {
        if (to == order_[i]) key = std::max(key, k);
      });
      keyed.emplace_back(key, order_[i]);
    }
    std::sort(keyed.begin(), keyed.end());
    for (std::size_t i = 0; i < keyed.size(); ++i) {
      order_[first + i] = keyed[i].second;
    }
  }

  /// Packs delta_b (keeping its internal order), then delta_f, into the
  /// union of their old positions (ascending).
  void reorder(std::vector<int>& delta_b, std::vector<int>& delta_f);

  bool valid_ = false;
  std::vector<int> order_;  // position -> node
  std::vector<int> pos_;    // node -> position
};

}  // namespace relsched::graph
