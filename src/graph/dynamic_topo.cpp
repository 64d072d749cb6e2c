#include "graph/dynamic_topo.hpp"

#include <algorithm>

namespace relsched::graph {

bool DynamicTopoOrder::sort_loaded() {
  const std::size_t n = out_.size();
  std::vector<int> indegree(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    indegree[v] = static_cast<int>(in_[v].size());
  }
  // The order doubles as the FIFO ready queue: nodes are appended when
  // they become ready and leave the queue in the same sequence.
  order_.clear();
  order_.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    if (indegree[v] == 0) order_.push_back(static_cast<int>(v));
  }
  for (std::size_t head = 0; head < order_.size(); ++head) {
    for (int to : out_[static_cast<std::size_t>(order_[head])]) {
      if (--indegree[static_cast<std::size_t>(to)] == 0) order_.push_back(to);
    }
  }
  if (order_.size() != n) return false;
  pos_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos_[static_cast<std::size_t>(order_[i])] = static_cast<int>(i);
  }
  valid_ = true;
  return true;
}

bool DynamicTopoOrder::adopt_order(std::vector<int> order) {
  const std::size_t n = out_.size();
  if (order.size() != n) return false;
  std::vector<int> pos(n, -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const int v = order[i];
    if (v < 0 || static_cast<std::size_t>(v) >= n ||
        pos[static_cast<std::size_t>(v)] != -1) {
      return false;  // not a permutation
    }
    pos[static_cast<std::size_t>(v)] = static_cast<int>(i);
  }
  for (std::size_t from = 0; from < n; ++from) {
    for (int to : out_[from]) {
      if (pos[from] >= pos[static_cast<std::size_t>(to)]) {
        return false;  // not a topological order of the arcs
      }
    }
  }
  order_ = std::move(order);
  pos_ = std::move(pos);
  valid_ = true;
  return true;
}

void DynamicTopoOrder::add_node() {
  out_.emplace_back();
  in_.emplace_back();
  pos_.push_back(static_cast<int>(order_.size()));
  order_.push_back(static_cast<int>(out_.size()) - 1);
}

bool DynamicTopoOrder::add_arc(int from, int to) {
  RELSCHED_CHECK(valid_, "DynamicTopoOrder used before a successful reset");
  RELSCHED_CHECK(from >= 0 && from < node_count(), "arc tail out of range");
  RELSCHED_CHECK(to >= 0 && to < node_count(), "arc head out of range");
  if (from == to) return false;  // self loop is a cycle

  const int lo = pos_[static_cast<std::size_t>(to)];
  const int hi = pos_[static_cast<std::size_t>(from)];
  if (lo > hi) {  // already consistent with the order
    out_[static_cast<std::size_t>(from)].push_back(to);
    in_[static_cast<std::size_t>(to)].push_back(from);
    return true;
  }

  // Affected region: nodes with lo <= pos <= hi. Forward discovery from
  // `to` finds delta_f; reaching `from` proves the new arc closes a
  // cycle. Backward discovery from `from` finds delta_b.
  std::vector<int> delta_f, delta_b, stack;
  std::vector<bool> seen(static_cast<std::size_t>(node_count()), false);
  stack.push_back(to);
  seen[static_cast<std::size_t>(to)] = true;
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    if (v == from) return false;  // cycle: reject, nothing modified yet
    delta_f.push_back(v);
    for (int w : out_[static_cast<std::size_t>(v)]) {
      if (!seen[static_cast<std::size_t>(w)] &&
          pos_[static_cast<std::size_t>(w)] <= hi) {
        seen[static_cast<std::size_t>(w)] = true;
        stack.push_back(w);
      }
    }
  }
  stack.push_back(from);
  seen[static_cast<std::size_t>(from)] = true;
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    delta_b.push_back(v);
    for (int w : in_[static_cast<std::size_t>(v)]) {
      if (!seen[static_cast<std::size_t>(w)] &&
          pos_[static_cast<std::size_t>(w)] >= lo) {
        seen[static_cast<std::size_t>(w)] = true;
        stack.push_back(w);
      }
    }
  }

  // Reorder: delta_b keeps its internal order, then delta_f, packed into
  // the union of their old positions (ascending).
  const auto by_pos = [this](int a, int b) {
    return pos_[static_cast<std::size_t>(a)] < pos_[static_cast<std::size_t>(b)];
  };
  std::sort(delta_b.begin(), delta_b.end(), by_pos);
  std::sort(delta_f.begin(), delta_f.end(), by_pos);
  std::vector<int> slots;
  slots.reserve(delta_b.size() + delta_f.size());
  for (int v : delta_b) slots.push_back(pos_[static_cast<std::size_t>(v)]);
  for (int v : delta_f) slots.push_back(pos_[static_cast<std::size_t>(v)]);
  std::sort(slots.begin(), slots.end());
  std::size_t slot = 0;
  for (int v : delta_b) {
    pos_[static_cast<std::size_t>(v)] = slots[slot];
    order_[static_cast<std::size_t>(slots[slot++])] = v;
  }
  for (int v : delta_f) {
    pos_[static_cast<std::size_t>(v)] = slots[slot];
    order_[static_cast<std::size_t>(slots[slot++])] = v;
  }

  out_[static_cast<std::size_t>(from)].push_back(to);
  in_[static_cast<std::size_t>(to)].push_back(from);
  return true;
}

bool DynamicTopoOrder::remove_arc(int from, int to) {
  RELSCHED_CHECK(valid_, "DynamicTopoOrder used before a successful reset");
  auto& out = out_[static_cast<std::size_t>(from)];
  const auto oit = std::find(out.begin(), out.end(), to);
  if (oit == out.end()) return false;
  out.erase(oit);
  auto& in = in_[static_cast<std::size_t>(to)];
  const auto iit = std::find(in.begin(), in.end(), from);
  RELSCHED_CHECK(iit != in.end(), "adjacency mirrors out of sync");
  in.erase(iit);
  return true;
}

}  // namespace relsched::graph
