// Deterministic random constraint graphs for the feasibility property
// test and its recorded oracle (tests/data/feasibility_oracle.txt).
//
// Unlike testing::random_constraint_graph, these graphs are not kept
// well-formed: some vertices hang off nothing (unreachable from the
// source), some min constraints point against the id order (a forward
// cycle when they close one), and max constraints join random pairs
// with random bounds (often a positive cycle). Only rng() % k draws
// are used, so the sequence is the same under every standard library.
#pragma once

#include <cstdint>
#include <random>
#include <string>

#include "base/strings.hpp"
#include "cg/constraint_graph.hpp"
#include "cg/graph_io.hpp"

namespace relsched::testing {

inline cg::ConstraintGraph feasibility_case(std::mt19937& rng) {
  const auto pick = [&rng](int k) {
    return static_cast<int>(rng() % static_cast<std::uint32_t>(k));
  };
  const int n = 2 + pick(13);
  cg::ConstraintGraph g("case");
  for (int i = 0; i < n; ++i) {
    const bool unbounded = i > 0 && pick(5) == 0;
    g.add_vertex(cat("v", i), unbounded ? cg::Delay::unbounded()
                                        : cg::Delay::bounded(pick(5)));
  }
  // Spine: most vertices hang off an earlier one.
  for (int i = 1; i < n; ++i) {
    if (pick(10) != 0) g.add_sequencing_edge(VertexId(pick(i)), VertexId(i));
  }
  for (int k = pick(4); k > 0; --k) {
    const int to = 1 + pick(n - 1);
    g.add_min_constraint(VertexId(pick(to)), VertexId(to), pick(6));
  }
  // One graph in six gets a min constraint against the id order.
  if (pick(6) == 0 && n > 2) {
    const int from = 2 + pick(n - 2);
    g.add_min_constraint(VertexId(from), VertexId(1 + pick(from - 1)),
                         pick(3));
  }
  // Most sinkless vertices feed the last vertex.
  for (int i = 0; i + 1 < n; ++i) {
    bool has_out = false;
    for (EdgeId e : g.out_edges(VertexId(i))) {
      has_out = has_out || cg::is_forward(g.edge(e).kind);
    }
    if (!has_out && pick(8) != 0) {
      g.add_sequencing_edge(VertexId(i), VertexId(n - 1));
    }
  }
  for (int k = pick(5); k > 0; --k) {
    const int from = pick(n);
    const int to = pick(n);
    if (from != to) g.add_max_constraint(VertexId(from), VertexId(to), pick(8));
  }
  return g;
}

/// FNV-1a of the graph's text form: ties an oracle line to its graph.
inline std::uint64_t text_digest(const cg::ConstraintGraph& g) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : cg::to_text(g)) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Seed and size of the recorded case sequence.
inline constexpr std::uint32_t kFeasibilitySeed = 0xFEA51B1E;
inline constexpr int kFeasibilityCases = 600;

}  // namespace relsched::testing
