#include "driver/stats.hpp"

#include <algorithm>
#include <vector>

namespace relsched::driver {

AnchorStats compute_stats(const SynthesisResult& result) {
  RELSCHED_CHECK(result.ok(), "compute_stats requires a successful synthesis");
  AnchorStats stats;
  for (const GraphSynthesis& gs : result.graphs) {
    const cg::ConstraintGraph& g = gs.constraint_graph;
    const anchors::AnchorAnalysis& an = gs.analysis;
    stats.total_vertices += g.vertex_count();
    stats.total_anchors += static_cast<int>(an.anchors().size());
    for (int vi = 0; vi < g.vertex_count(); ++vi) {
      const VertexId v(vi);
      stats.sum_full += an.anchor_set(v).size();
      stats.sum_relevant += an.relevant_set(v).size();
      stats.sum_irredundant += an.irredundant_set(v).size();
    }
    // sigma_a^max from minimum offsets (Theorem 3: length(a, v)), under
    // full and irredundant anchor sets, per anchor column.
    const std::size_t columns = an.anchors().size();
    std::vector<graph::Weight> max_full(columns, 0);
    std::vector<graph::Weight> max_min(columns, 0);
    for (int vi = 0; vi < g.vertex_count(); ++vi) {
      const VertexId v(vi);
      const auto irredundant = an.irredundant_set(v);
      for (const auto [a, len] : an.lengths_at(v)) {
        const std::size_t c = static_cast<std::size_t>(
            an.anchor_sets().domain.index[a.index()]);
        max_full[c] = std::max(max_full[c], len);
        if (irredundant.contains(a)) max_min[c] = std::max(max_min[c], len);
      }
    }
    for (std::size_t c = 0; c < columns; ++c) {
      stats.max_offset_full = std::max(stats.max_offset_full, max_full[c]);
      stats.sum_max_offset_full += max_full[c];
      stats.max_offset_min = std::max(stats.max_offset_min, max_min[c]);
      stats.sum_max_offset_min += max_min[c];
    }
  }
  return stats;
}

}  // namespace relsched::driver
