#include "graph/dynamic_topo.hpp"

namespace relsched::graph {

void DynamicTopoOrder::reorder(std::vector<int>& delta_b,
                               std::vector<int>& delta_f) {
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
}

}  // namespace relsched::graph
