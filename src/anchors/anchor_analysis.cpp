#include "anchors/anchor_analysis.hpp"

#include <algorithm>
#include <functional>
#include <ostream>

#include "base/error.hpp"
#include "base/thread_pool.hpp"

namespace relsched::anchors {

std::ostream& operator<<(std::ostream& os, const AnchorSetView& view) {
  os << '{';
  bool first = true;
  for (VertexId a : view) {
    if (!first) os << ", ";
    os << a;
    first = false;
  }
  return os << '}';
}

namespace {

/// Topological order of Gf, for the entry points not handed one.
std::vector<int> forward_order(const cg::ConstraintGraph& g) {
  auto topo = graph::topological_order(g.project_forward());
  RELSCHED_CHECK(topo.has_value(), "anchor analysis requires an acyclic Gf");
  return std::move(*topo);
}

}  // namespace

AnchorSets find_anchor_sets(const cg::ConstraintGraph& g) {
  return find_anchor_sets(g, forward_order(g));
}

AnchorSets find_anchor_sets(const cg::ConstraintGraph& g,
                            std::span<const int> topo) {
  AnchorSets sets;
  sets.domain.anchors = g.anchors();
  sets.domain.index.assign(static_cast<std::size_t>(g.vertex_count()), -1);
  for (std::size_t i = 0; i < sets.domain.anchors.size(); ++i) {
    sets.domain.index[sets.domain.anchors[i].index()] = static_cast<int>(i);
  }
  sets.matrix.reset(g.vertex_count(), sets.domain.count());
  // Dataflow in topological order: A(v) is the union over forward
  // in-edges (u, v) of A(u), plus {u} when the edge carries the
  // unbounded weight delta(u). Equivalent to the paper's counter-based
  // findAnchorSet traversal, one word-parallel row merge per edge.
  for (int node : topo) {
    const VertexId v(node);
    for (EdgeId eid : g.in_edges(v)) {
      const cg::Edge& e = g.edge(eid);
      if (!cg::is_forward(e.kind)) continue;
      sets.matrix.merge_row(v.index(), e.from.index());
      if (g.weight(eid).unbounded) {
        sets.matrix.set(v.index(), sets.domain.index[e.from.index()]);
      }
    }
  }
  return sets;
}

AnchorSetView AnchorAnalysis::set(VertexId v, AnchorMode mode) const {
  switch (mode) {
    case AnchorMode::kFull:
      return anchor_set(v);
    case AnchorMode::kRelevant:
      return relevant_set(v);
    case AnchorMode::kIrredundant:
      return irredundant_set(v);
  }
  RELSCHED_CHECK(false, "unknown anchor mode");
  return anchor_set(v);  // unreachable
}

graph::Weight AnchorAnalysis::length(VertexId anchor, VertexId v) const {
  const int pos = sets_.domain.index[anchor.index()];
  RELSCHED_CHECK(pos >= 0, "length() queried for a non-anchor");
  if (length_from_.empty()) return graph::kNegInf;
  return length_from_[static_cast<std::size_t>(pos)].read()[v.index()];
}

const std::vector<graph::Weight>& AnchorAnalysis::length_row(
    VertexId anchor) const {
  const int pos = sets_.domain.index[anchor.index()];
  RELSCHED_CHECK(pos >= 0 && !length_from_.empty(),
                 "length_row() queried for a non-anchor");
  return length_from_[static_cast<std::size_t>(pos)].read();
}

void AnchorAnalysis::corrupt_length_row_for_testing(VertexId anchor,
                                                    int keep_prefix) {
  const int pos = sets_.domain.index[anchor.index()];
  if (pos < 0 || length_from_.empty()) return;
  std::vector<graph::Weight>& row =
      length_from_[static_cast<std::size_t>(pos)].write();
  for (std::size_t v = static_cast<std::size_t>(std::max(keep_prefix, 0));
       v < row.size(); ++v) {
    row[v] = graph::kNegInf;
  }
}

void AnchorAnalysis::flip_irredundant_bit_for_testing(VertexId v,
                                                      VertexId anchor) {
  const int pos = sets_.domain.index[anchor.index()];
  if (pos < 0 || v.index() >= static_cast<std::size_t>(irredundant_.rows())) {
    return;
  }
  if (irredundant_.test(v.index(), pos)) {
    irredundant_.clear(v.index(), pos);
  } else {
    irredundant_.set(v.index(), pos);
  }
}

int AnchorAnalysis::rows_shared() const {
  int shared = 0;
  for (const Row& row : length_from_) shared += row.shared() ? 1 : 0;
  for (const Row& row : defining_from_) shared += row.shared() ? 1 : 0;
  return shared;
}

std::size_t AnchorAnalysis::total_anchor_set_size(AnchorMode mode) const {
  const base::BitMatrix* m = &sets_.matrix;
  if (mode == AnchorMode::kRelevant) m = &relevant_;
  if (mode == AnchorMode::kIrredundant) m = &irredundant_;
  std::size_t total = 0;
  for (int r = 0; r < m->rows(); ++r) {
    total += static_cast<std::size_t>(m->row_popcount(r));
  }
  return total;
}

namespace {

/// Deterministic parallel-for over [0, count). The body runs for every
/// index exactly once; contiguous index chunks are sharded across the
/// pool's workers (several chunks per worker, so stealing can even out
/// cost imbalance between e.g. a whole-graph anchor cone and a leaf).
/// Ownership is the determinism argument: every output slot is written
/// by the one task that owns its index, as a pure function of inputs
/// that no task mutates, so the result is bit-identical to the
/// sequential loop at any thread count. Runs the inline loop when
/// there is no pool or the pool has one worker.
void parallel_for(base::WorkStealingPool* pool, std::size_t count,
                  const std::function<void(std::size_t)>& body) {
  if (pool != nullptr && count > 1 && pool->thread_count() > 1) {
    const std::size_t chunks =
        std::min(count, static_cast<std::size_t>(pool->thread_count()) * 8);
    pool->run(static_cast<int>(chunks), [&](int c) {
      const std::size_t begin = count * static_cast<std::size_t>(c) / chunks;
      const std::size_t end =
          count * (static_cast<std::size_t>(c) + 1) / chunks;
      for (std::size_t i = begin; i < end; ++i) body(i);
    });
    return;
  }
  for (std::size_t i = 0; i < count; ++i) body(i);
}

}  // namespace

AnchorAnalysis AnchorAnalysis::compute_anchor_sets_only(
    const cg::ConstraintGraph& g) {
  AnchorAnalysis a;
  a.sets_ = find_anchor_sets(g);
  a.relevant_.reset(g.vertex_count(), a.sets_.domain.count());
  a.irredundant_.reset(g.vertex_count(), a.sets_.domain.count());
  return a;
}

graph::Weight AnchorAnalysis::maximal_defining_path_length(VertexId anchor,
                                                           VertexId v) const {
  const int pos = sets_.domain.index[anchor.index()];
  RELSCHED_CHECK(pos >= 0, "defining path queried for a non-anchor");
  if (defining_from_.empty()) return graph::kNegInf;
  return defining_from_[static_cast<std::size_t>(pos)].read()[v.index()];
}

namespace {

/// |rho*(anchor, v)| for the vertices in `plan.affected`, in place:
/// longest paths whose only unbounded edge is the first (an unbounded
/// out-edge of the anchor, whose weight delta(a) Definition 8 leaves
/// out of the length). Edges *out of the anchor itself* are never
/// relaxed: a defining path cannot revisit the anchor, so its bounded
/// out-edges (min constraints) can never continue one.
///
/// For update(), entries at unaffected vertices are already correct
/// for the edited graph (a defining path whose length changed uses an
/// edited edge, so its endpoint is reachable from a seed, i.e.
/// affected), so only affected entries are re-derived, with unaffected
/// in-neighbours acting as fixed boundary values. Once a path enters
/// the affected cone it stays inside (the cone is closed under
/// out-edges), so sweeping the affected vertices in topological order
/// converges in one pass per backward-edge hop on the longest defining
/// path -- never more than |affected| passes. Only the affected
/// sublist is walked: the cost is proportional to the dirty cone, not
/// to |V| or |E|.
void patch_defining_path_lengths(const cg::ConstraintGraph& g, VertexId anchor,
                                 const UpdatePlan& plan,
                                 std::vector<graph::Weight>& dist) {
  for (VertexId v : plan.affected_topo) dist[v.index()] = graph::kNegInf;
  for (EdgeId eid : g.out_edges(anchor)) {
    if (!g.weight(eid).unbounded) continue;
    const VertexId head = g.edge(eid).to;
    if (plan.affected->contains(head)) {
      dist[head.index()] = std::max<graph::Weight>(dist[head.index()], 0);
    }
  }
  const int max_passes = static_cast<int>(plan.affected_topo.size()) + 1;
  for (int pass = 0; pass < max_passes; ++pass) {
    bool changed = false;
    for (VertexId v : plan.affected_topo) {
      graph::Weight best = dist[v.index()];
      for (EdgeId eid : g.in_edges(v)) {
        const cg::Edge& e = g.edge(eid);
        if (e.from == anchor) continue;
        const cg::EdgeWeight w = g.weight(eid);
        if (w.unbounded) continue;
        const graph::Weight candidate =
            graph::saturating_add(dist[e.from.index()], w.value);
        if (candidate > best) best = candidate;
      }
      if (best > dist[v.index()]) {
        dist[v.index()] = best;
        changed = true;
      }
    }
    if (!changed) break;
  }
  dist[anchor.index()] = graph::kNegInf;
}

/// length(anchor, v) for the vertices in `plan.affected`, in place:
/// longest paths from the anchor within its cone, the subgraph induced
/// by {anchor} union {v : anchor in A(v)}, with unbounded weights 0.
/// Equals the minimum offset sigma_a^min(v) (Theorem 3); kNegInf
/// outside the cone. The cone restriction matters: a backward edge
/// leaving the cone (whose tail's anchor set does not carry `anchor`)
/// would otherwise inflate the value beyond the offset the schedule
/// actually realizes.
///
/// For update(), by the same boundary argument as
/// patch_defining_path_lengths. `anchor_sets` must already be the
/// post-edit sets: cone membership at affected vertices is re-evaluated
/// against them, and unaffected membership is unchanged by
/// construction.
void patch_cone_longest_paths(const cg::ConstraintGraph& g, VertexId anchor,
                              const AnchorSets& anchor_sets,
                              const UpdatePlan& plan,
                              std::vector<graph::Weight>& dist) {
  const auto in_cone = [&](VertexId v) {
    return v == anchor || anchor_sets.view(v).contains(anchor);
  };
  for (VertexId v : plan.affected_topo) dist[v.index()] = graph::kNegInf;
  if (plan.affected->contains(anchor)) dist[anchor.index()] = 0;
  const int max_passes = static_cast<int>(plan.affected_topo.size()) + 1;
  bool changed = true;
  for (int pass = 0; pass <= max_passes && changed; ++pass) {
    changed = false;
    for (VertexId v : plan.affected_topo) {
      if (!in_cone(v)) continue;
      graph::Weight best = dist[v.index()];
      for (EdgeId eid : g.in_edges(v)) {
        const cg::Edge& e = g.edge(eid);
        if (!in_cone(e.from)) continue;
        const graph::Weight candidate =
            graph::saturating_add(dist[e.from.index()], g.weight(eid).value);
        if (candidate > best) best = candidate;
      }
      if (best > dist[v.index()]) {
        dist[v.index()] = best;
        changed = true;
      }
    }
  }
  RELSCHED_CHECK(!changed, "anchor analysis requires a feasible graph");
}

/// The vertices reachable from `starts` over the edges `follow`
/// accepts, as a membership mask plus a list in the order of `topo`.
template <typename Follow>
void reachable_in_topo_order(const cg::ConstraintGraph& g,
                             std::span<const VertexId> starts, Follow follow,
                             std::span<const int> topo, base::VertexMask& mask,
                             std::vector<VertexId>& order) {
  mask.reset(g.vertex_count());
  order.clear();
  for (VertexId s : starts) {
    if (!mask.contains(s)) {
      mask.insert(s);
      order.push_back(s);
    }
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (EdgeId eid : g.out_edges(order[i])) {
      const VertexId next = g.edge(eid).to;
      if (!mask.contains(next) && follow(g.edge(eid))) {
        mask.insert(next);
        order.push_back(next);
      }
    }
  }
  // Re-list the region in topological order.
  order.clear();
  for (int node : topo) {
    if (mask.contains(VertexId(node))) order.push_back(VertexId(node));
  }
}

/// Both path rows of one anchor from scratch. Each row is derived with
/// its update() patch, over the region where it can be finite as the
/// "affected" set: an anchor's cone or defining region is usually a
/// small part of the graph, so a cold row costs that region, not |E|.
void compute_rows(const cg::ConstraintGraph& g, VertexId anchor,
                  const AnchorSets& anchor_sets, std::span<const int> topo,
                  std::vector<graph::Weight>& defining,
                  std::vector<graph::Weight>& length) {
  const std::size_t n = static_cast<std::size_t>(g.vertex_count());
  base::VertexMask region;
  std::vector<VertexId> order;
  UpdatePlan plan;
  plan.affected = &region;

  std::vector<VertexId> heads;
  for (EdgeId eid : g.out_edges(anchor)) {
    if (g.weight(eid).unbounded) heads.push_back(g.edge(eid).to);
  }
  reachable_in_topo_order(
      g, heads,
      [&](const cg::Edge& e) {
        return e.from != anchor && !g.weight(e.id).unbounded;
      },
      topo, region, order);
  plan.affected_topo = order;
  defining.assign(n, graph::kNegInf);
  patch_defining_path_lengths(g, anchor, plan, defining);

  reachable_in_topo_order(
      g, std::span<const VertexId>(&anchor, 1),
      [&](const cg::Edge& e) { return anchor_sets.view(e.to).contains(anchor); },
      topo, region, order);
  plan.affected_topo = order;
  length.assign(n, graph::kNegInf);
  patch_cone_longest_paths(g, anchor, anchor_sets, plan, length);
}

}  // namespace

/// minimumAnchor (paper §IV-D) at one vertex: x in R(v) is redundant if
/// some relevant anchor r in R(v) with x in A(r) satisfies
///   length(x, v) <= length(x, r) + length(r, v).
void AnchorAnalysis::compute_irredundant_at(VertexId v) {
  const AnchorSetView rel = relevant_set(v);
  irredundant_.clear_row(v.index());
  for (VertexId x : rel) {
    bool redundant = false;
    for (VertexId r : rel) {
      if (r == x) continue;
      if (!anchor_set(r).contains(x)) continue;
      if (length(x, r) == graph::kNegInf || length(r, v) == graph::kNegInf) {
        continue;
      }
      if (length(x, v) <= length(x, r) + length(r, v)) {
        redundant = true;
        break;
      }
    }
    if (!redundant) {
      irredundant_.set(v.index(), sets_.domain.index[x.index()]);
    }
  }
}

AnchorAnalysis AnchorAnalysis::compute(const cg::ConstraintGraph& g,
                                       base::WorkStealingPool* pool) {
  return compute_sharded(g, forward_order(g), pool);
}

AnchorAnalysis AnchorAnalysis::compute(const cg::ConstraintGraph& g,
                                       std::span<const int> topo) {
  return compute_sharded(g, topo, nullptr);
}

AnchorAnalysis AnchorAnalysis::compute_sharded(const cg::ConstraintGraph& g,
                                               std::span<const int> topo,
                                               base::WorkStealingPool* pool) {
  AnchorAnalysis a;
  a.sets_ = find_anchor_sets(g, topo);
  a.relevant_.reset(g.vertex_count(), a.sets_.domain.count());
  a.irredundant_.reset(g.vertex_count(), a.sets_.domain.count());
  const std::vector<VertexId>& anchors = a.sets_.domain.anchors;
  const std::size_t num_anchors = anchors.size();
  const int n = g.vertex_count();

  // Maximal defining path lengths (Definition 10) and cone-restricted
  // longest paths (length(a, v) = sigma_a^min(v) by Theorem 3). Each
  // anchor's rows are a pure function of (g, A, anchor), written to the
  // slots that anchor owns.
  a.defining_from_.resize(num_anchors);
  a.length_from_.resize(num_anchors);
  parallel_for(pool, num_anchors, [&](std::size_t i) {
    std::vector<graph::Weight> defining, length;
    compute_rows(g, anchors[i], a.sets_, topo, defining, length);
    a.defining_from_[i] = Row(std::move(defining));
    a.length_from_[i] = Row(std::move(length));
  });
  a.rows_recomputed_ = static_cast<int>(num_anchors);

  // R(v): x in R(v) iff a defining path from x reaches v, i.e.
  // defining_from_[x][v] is finite (Definition 9 -- the same
  // equivalence update() patches membership from; the paper's
  // relevantAnchor traversal in §IV-D visits exactly the vertices with
  // a finite entry). Derived per *vertex* so each task owns one bit
  // row: BitMatrix rows occupy disjoint word ranges, so no two tasks
  // ever touch the same word.
  parallel_for(pool, static_cast<std::size_t>(n), [&](std::size_t vi) {
    for (std::size_t i = 0; i < num_anchors; ++i) {
      if (a.defining_from_[i].read()[vi] != graph::kNegInf) {
        a.relevant_.set(static_cast<int>(vi), static_cast<int>(i));
      }
    }
  });

  // IR(v) writes only vertex v's bit row and reads state that is
  // immutable from here on.
  parallel_for(pool, static_cast<std::size_t>(n), [&](std::size_t vi) {
    a.compute_irredundant_at(VertexId(static_cast<int>(vi)));
  });
  return a;
}

void AnchorAnalysis::update(const cg::ConstraintGraph& g,
                            const UpdatePlan& plan) {
  RELSCHED_CHECK(plan.affected != nullptr, "update() needs the affected mask");
  const int n = g.vertex_count();
  RELSCHED_CHECK(sets_.matrix.rows() == n, "update() vertex sets out of sync");
  // The anchor population is fixed: structural edits (vertex additions,
  // bounded<->unbounded flips) force a cold compute() upstream.
  const std::vector<VertexId>& anchors = sets_.domain.anchors;
  const std::size_t num_anchors = anchors.size();
  const std::size_t words = sets_.domain.word_count();
  rows_recomputed_ = 0;

  // A(v): only a changed Gf edge set can change anchor sets, and every
  // changed value lies in the affected cone (any new/dead forward path
  // through an edit reaches v only if v is reachable from a seed).
  // Re-derive affected vertices in topological order over the edited
  // graph; unaffected in-neighbours contribute their kept rows. The
  // row-reuse criterion below needs the *pre-edit* sets at the seeds,
  // so save those rows first.
  std::vector<std::uint64_t> prev_seed_rows(plan.seeds.size() * words);
  for (std::size_t si = 0; si < plan.seeds.size(); ++si) {
    const std::uint64_t* row = sets_.matrix.row(plan.seeds[si].index());
    std::copy(row, row + words, prev_seed_rows.data() + si * words);
  }
  if (plan.forward_changed) {
    for (VertexId v : plan.affected_topo) {
      sets_.matrix.clear_row(v.index());
      for (EdgeId eid : g.in_edges(v)) {
        const cg::Edge& e = g.edge(eid);
        if (!cg::is_forward(e.kind)) continue;
        sets_.matrix.merge_row(v.index(), e.from.index());
        if (g.weight(eid).unbounded) {
          sets_.matrix.set(v.index(), sets_.domain.index[e.from.index()]);
        }
      }
    }
  }

  // Which per-anchor rows (defining-path lengths + cone longest paths)
  // must be recomputed? Anchor x's row can only change if some path
  // counted in it gains/loses/reweighs an edge, i.e. some edit seed s
  // lies on such a path -- then s sits in x's cone or defining region
  // (old or new), detectable from the row values at s. The anchor
  // itself being affected covers cone growth through x (s upstream of
  // x), and s == x covers edits incident to the anchor. Evaluated
  // before any row is overwritten.
  const auto seed_bit = [&](std::size_t si, int col) {
    return ((prev_seed_rows[si * words +
                            static_cast<std::size_t>(col) / base::kBitsPerWord] >>
             (static_cast<unsigned>(col) % base::kBitsPerWord)) &
            1u) != 0;
  };
  std::vector<bool> touched(num_anchors, false);
  for (std::size_t i = 0; i < num_anchors; ++i) {
    const VertexId x = anchors[i];
    if (plan.affected->contains(x)) {
      touched[i] = true;
      continue;
    }
    for (std::size_t si = 0; si < plan.seeds.size(); ++si) {
      const VertexId s = plan.seeds[si];
      if (s == x || anchor_set(s).contains(x) ||
          seed_bit(si, static_cast<int>(i)) ||
          defining_from_[i].read()[s.index()] != graph::kNegInf ||
          length_from_[i].read()[s.index()] != graph::kNegInf) {
        touched[i] = true;
        break;
      }
    }
  }

  // write() unshares a row from any fork parent before patching it;
  // untouched rows stay physically shared.
  for (std::size_t i = 0; i < num_anchors; ++i) {
    if (!touched[i]) continue;
    ++rows_recomputed_;
    patch_defining_path_lengths(g, anchors[i], plan, defining_from_[i].write());
    patch_cone_longest_paths(g, anchors[i], sets_, plan,
                             length_from_[i].write());
  }

  // R(v): by construction x in R(v) iff a defining path from x reaches
  // v, i.e. defining_from_[x][v] is finite (the same equivalence
  // compute() derives R from). Patch membership from the fresh rows;
  // only touched anchors' membership at affected vertices can differ.
  for (VertexId v : plan.affected_topo) {
    for (std::size_t i = 0; i < num_anchors; ++i) {
      if (!touched[i]) continue;
      if (defining_from_[i].read()[v.index()] != graph::kNegInf) {
        relevant_.set(v.index(), static_cast<int>(i));
      } else {
        relevant_.clear(v.index(), static_cast<int>(i));
      }
    }
  }

  // IR(v): the redundancy test at v reads length(x, v), length(x, r)
  // and length(r, v) for x, r in R(v). Beyond affected vertices, the
  // via-anchor term length(x, r) can flip the verdict at an *unaffected*
  // v when the anchor-vertex r itself is affected -- recompute those
  // too. Build a column mask of affected anchors first: when it is
  // empty (the common warm case) the full-vertex scan is skipped
  // entirely, otherwise one word-AND per unaffected vertex decides.
  for (VertexId v : plan.affected_topo) compute_irredundant_at(v);
  std::vector<std::uint64_t> affected_anchor_mask(words, 0);
  bool any_affected_anchor = false;
  for (std::size_t i = 0; i < num_anchors; ++i) {
    if (plan.affected->contains(anchors[i])) {
      affected_anchor_mask[i / base::kBitsPerWord] |=
          std::uint64_t{1} << (i % base::kBitsPerWord);
      any_affected_anchor = true;
    }
  }
  if (any_affected_anchor) {
    for (int vi = 0; vi < n; ++vi) {
      const VertexId v(vi);
      if (plan.affected->contains(v)) continue;  // already recomputed
      const std::uint64_t* rel = relevant_.row(vi);
      bool hit = false;
      for (std::size_t w = 0; w < words && !hit; ++w) {
        hit = (rel[w] & affected_anchor_mask[w]) != 0;
      }
      if (hit) compute_irredundant_at(v);
    }
  }
}

}  // namespace relsched::anchors
