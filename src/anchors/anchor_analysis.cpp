#include "anchors/anchor_analysis.hpp"

#include <algorithm>
#include <atomic>
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

std::size_t AnchorAnalysis::length_index(int col, VertexId v) const {
  const std::uint64_t* row = sets_.matrix.row(v.index());
  if (base::words_test(row, col)) {
    return length_start_[v.index()] +
           static_cast<std::size_t>(base::words_rank(row, col));
  }
  // An anchor is never in its own A(v); its self cell comes last.
  return sets_.domain.anchors[static_cast<std::size_t>(col)] == v
             ? length_start_[v.index() + 1] - 1
             : kNoCell;
}

std::size_t AnchorAnalysis::defining_index(int col, VertexId v) const {
  const std::uint64_t* row = relevant_.row(v.index());
  if (!base::words_test(row, col)) return kNoCell;
  return defining_start_[v.index()] +
         static_cast<std::size_t>(base::words_rank(row, col));
}

graph::Weight AnchorAnalysis::length(VertexId anchor, VertexId v) const {
  const int pos = sets_.domain.index[anchor.index()];
  RELSCHED_CHECK(pos >= 0, "length() queried for a non-anchor");
  const std::size_t k = length_index(pos, v);
  return k == kNoCell ? graph::kNegInf : length_cells_.read()[k];
}

graph::Weight AnchorAnalysis::maximal_defining_path_length(VertexId anchor,
                                                           VertexId v) const {
  const int pos = sets_.domain.index[anchor.index()];
  RELSCHED_CHECK(pos >= 0, "defining path queried for a non-anchor");
  const std::size_t k = defining_index(pos, v);
  return k == kNoCell ? graph::kNegInf : defining_cells_.read()[k];
}

void AnchorAnalysis::corrupt_length_row_for_testing(VertexId anchor,
                                                    int keep_prefix) {
  const int pos = sets_.domain.index[anchor.index()];
  if (pos < 0) return;
  std::vector<graph::Weight>& cells = length_cells_.write();
  for (int vi = std::max(keep_prefix, 0); vi < sets_.matrix.rows(); ++vi) {
    const std::size_t k = length_index(pos, VertexId(vi));
    if (k != kNoCell) cells[k] = graph::kNegInf;
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

int AnchorAnalysis::cell_arrays_shared() const {
  return (length_cells_.shared() ? 1 : 0) + (defining_cells_.shared() ? 1 : 0);
}

namespace {

/// CSR row starts over `m`'s rows: row v owns popcount(row v) cells,
/// plus one when `self` is non-null and marks v as an anchor.
std::vector<std::size_t> cell_starts(const base::BitMatrix& m,
                                     const AnchorDomain* self) {
  std::vector<std::size_t> start(static_cast<std::size_t>(m.rows()) + 1, 0);
  for (int v = 0; v < m.rows(); ++v) {
    std::size_t count = static_cast<std::size_t>(m.row_popcount(v));
    if (self != nullptr && self->index[static_cast<std::size_t>(v)] >= 0) {
      ++count;
    }
    start[static_cast<std::size_t>(v) + 1] =
        start[static_cast<std::size_t>(v)] + count;
  }
  return start;
}

}  // namespace

void AnchorAnalysis::rebuild_starts() {
  length_start_ = cell_starts(sets_.matrix, &sets_.domain);
  defining_start_ = cell_starts(relevant_, nullptr);
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
  a.rebuild_starts();
  a.length_cells_.write().assign(a.length_start_.back(), graph::kNegInf);
  return a;
}

namespace {

/// The fixed values a sweep reads outside the set it recomputes. The
/// first pass copies each such tail's value into the scratch row as it
/// reads the edge; later passes read the same edges and find it in
/// place, so nothing else the row holds is ever read. update() passes
/// the kept cell (kNegInf where there is none); a cold sweep's region
/// holds every vertex a value can reach, so outside it everything is
/// kNegInf.
template <typename Kept>
struct Boundary {
  const base::VertexMask* inside;
  Kept kept;  // VertexId -> graph::Weight

  void operator()(VertexId u, std::vector<graph::Weight>& dist) const {
    if (!inside->contains(u)) dist[u.index()] = kept(u);
  }
};
template <typename Kept>
Boundary(const base::VertexMask*, Kept) -> Boundary<Kept>;

constexpr auto kNothingKept = [](VertexId) { return graph::kNegInf; };

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
/// to |V| or |E|. `boundary` supplies the unaffected in-neighbours'
/// values during the first pass; `dist` may hold anything elsewhere.
template <typename Kept>
void patch_defining_path_lengths(const cg::ConstraintGraph& g, VertexId anchor,
                                 const UpdatePlan& plan,
                                 std::vector<graph::Weight>& dist,
                                 const Boundary<Kept>& boundary) {
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
        if (pass == 0) boundary(e.from, dist);
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
template <typename Kept>
void patch_cone_longest_paths(const cg::ConstraintGraph& g, VertexId anchor,
                              const AnchorSets& anchor_sets,
                              const UpdatePlan& plan,
                              std::vector<graph::Weight>& dist,
                              const Boundary<Kept>& boundary) {
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
        if (pass == 0) boundary(e.from, dist);
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

/// Sizes `ws`'s dense rows for `n` vertices.
void prepare(SweepWorkspace& ws, int n) {
  ws.defining.resize(static_cast<std::size_t>(n));
  ws.length.resize(static_cast<std::size_t>(n));
}

/// Both path values of one anchor from scratch, over the regions where
/// they can be finite: the defining region (everything a defining path
/// reaches) and the cone. Each is derived with its update() patch, the
/// region standing in for the affected set, so a cold sweep costs the
/// region, not |E|. Calls `defining(v, value)` for every finite
/// defining value and `length(v, value)` for every cone vertex
/// (the anchor included).
template <typename OnDefining, typename OnLength>
void sweep_anchor(const cg::ConstraintGraph& g, VertexId anchor,
                  const AnchorSets& anchor_sets, std::span<const int> topo,
                  SweepWorkspace& ws, OnDefining defining, OnLength length) {
  UpdatePlan plan;
  plan.affected = &ws.region;

  ws.heads.clear();
  for (EdgeId eid : g.out_edges(anchor)) {
    if (g.weight(eid).unbounded) ws.heads.push_back(g.edge(eid).to);
  }
  reachable_in_topo_order(
      g, ws.heads,
      [&](const cg::Edge& e) {
        return e.from != anchor && !g.weight(e.id).unbounded;
      },
      topo, ws.region, ws.order);
  plan.affected_topo = ws.order;
  patch_defining_path_lengths(g, anchor, plan, ws.defining,
                              Boundary(&ws.region, kNothingKept));
  for (VertexId v : ws.order) {
    if (ws.defining[v.index()] != graph::kNegInf) {
      defining(v, ws.defining[v.index()]);
    }
  }

  reachable_in_topo_order(
      g, std::span<const VertexId>(&anchor, 1),
      [&](const cg::Edge& e) { return anchor_sets.view(e.to).contains(anchor); },
      topo, ws.region, ws.order);
  plan.affected_topo = ws.order;
  patch_cone_longest_paths(g, anchor, anchor_sets, plan, ws.length,
                           Boundary(&ws.region, kNothingKept));
  for (VertexId v : ws.order) length(v, ws.length[v.index()]);
}

/// One (vertex, value) result of an anchor sweep, kept until the cell
/// layout it lands in is known.
struct SweptCell {
  VertexId v;
  int col;
  graph::Weight value;
};

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
  // sweep gathers its anchor's cells in lists of its own and hands them
  // over once, when it is done: the cells of one vertex sit side by side
  // in the vertex-major arrays, so workers writing them directly would
  // keep stealing each other's cache lines. Which worker sweeps an
  // anchor does not matter.
  std::vector<std::vector<SweptCell>> defining(num_anchors);
  std::vector<std::vector<SweptCell>> cone(num_anchors);
  const std::size_t workers =
      pool == nullptr
          ? 1
          : std::min(num_anchors,
                     static_cast<std::size_t>(pool->thread_count()));
  std::atomic<std::size_t> next_anchor{0};
  parallel_for(pool, workers, [&](std::size_t) {
    SweepWorkspace ws;
    prepare(ws, n);
    for (std::size_t i = next_anchor++; i < num_anchors; i = next_anchor++) {
      const int col = static_cast<int>(i);
      std::vector<SweptCell> found_defining;
      std::vector<SweptCell> found_cone;
      sweep_anchor(
          g, anchors[i], a.sets_, topo, ws,
          [&](VertexId v, graph::Weight d) {
            found_defining.push_back({v, col, d});
          },
          [&](VertexId v, graph::Weight len) {
            found_cone.push_back({v, col, len});
          });
      defining[i] = std::move(found_defining);
      cone[i] = std::move(found_cone);
    }
  });
  a.rows_recomputed_ = static_cast<int>(num_anchors);

  // R(v): x in R(v) iff a defining path from x reaches v, i.e. the
  // defining sweep of x found v (Definition 9 -- the paper's
  // relevantAnchor traversal in §IV-D visits exactly these vertices).
  // With R(v) and A(v) known, so are both layouts. The cells are placed
  // by a per-vertex cursor: anchors ascend, so each vertex's cells
  // arrive in bit order; an anchor's own cone cell is its vertex's
  // trailing self cell.
  for (const std::vector<SweptCell>& cells : defining) {
    for (const SweptCell& c : cells) a.relevant_.set(c.v.value(), c.col);
  }
  a.rebuild_starts();
  const auto scatter = [&](const std::vector<std::vector<SweptCell>>& lists,
                           const std::vector<std::size_t>& start,
                           bool self_cells,
                           std::vector<graph::Weight>& values) {
    values.assign(start.back(), graph::kNegInf);
    std::vector<std::size_t> cursor(start.begin(), start.end() - 1);
    for (std::size_t i = 0; i < lists.size(); ++i) {
      for (const SweptCell& c : lists[i]) {
        const std::size_t v = c.v.index();
        const bool self = self_cells && c.v == anchors[i];
        values[self ? start[v + 1] - 1 : cursor[v]++] = c.value;
      }
    }
  };
  scatter(defining, a.defining_start_, false, a.defining_cells_.write());
  scatter(cone, a.length_start_, true, a.length_cells_.write());

  // IR(v) writes only vertex v's bit row and reads state that is
  // immutable from here on.
  parallel_for(pool, static_cast<std::size_t>(n), [&](std::size_t vi) {
    a.compute_irredundant_at(VertexId(static_cast<int>(vi)));
  });
  return a;
}

namespace {

/// Rebuilds one value array after bit rows changed. `start` and
/// `cells` hold the pre-edit layout; `old_rows[v]` is v's pre-edit bit
/// row where it changed (nullptr where it did not). Every cell that
/// survives keeps its value; new cells start at kNegInf. A vertex's
/// trailing self cell (the length layout's length(v, v)) is carried
/// over too.
void relayout(const base::BitMatrix& rows, const AnchorDomain* self,
              const std::vector<const std::uint64_t*>& old_rows,
              std::vector<std::size_t>& start,
              base::Cow<std::vector<graph::Weight>>& cells) {
  std::vector<std::size_t> new_start = cell_starts(rows, self);
  const std::vector<graph::Weight>& old = cells.read();
  std::vector<graph::Weight> fresh(new_start.back(), graph::kNegInf);
  for (int vi = 0; vi < rows.rows(); ++vi) {
    const std::size_t v = static_cast<std::size_t>(vi);
    const std::uint64_t* was = old_rows[v];
    if (was == nullptr) {
      std::copy(old.begin() + static_cast<std::ptrdiff_t>(start[v]),
                old.begin() + static_cast<std::ptrdiff_t>(start[v + 1]),
                fresh.begin() + static_cast<std::ptrdiff_t>(new_start[v]));
      continue;
    }
    const std::uint64_t* now = rows.row(vi);
    std::size_t k = new_start[v];
    for (int col = 0; col < rows.cols(); ++col) {
      if (!base::words_test(now, col)) continue;
      if (base::words_test(was, col)) {
        fresh[k] =
            old[start[v] + static_cast<std::size_t>(base::words_rank(was, col))];
      }
      ++k;
    }
    if (k < new_start[v + 1]) fresh[k] = old[start[v + 1] - 1];  // self cell
  }
  start = std::move(new_start);
  cells.write() = std::move(fresh);
}

}  // namespace

void AnchorAnalysis::update(const cg::ConstraintGraph& g,
                            const UpdatePlan& plan) {
  RELSCHED_CHECK(plan.affected != nullptr && plan.workspace != nullptr,
                 "update() needs the affected mask and a workspace");
  const int n = g.vertex_count();
  RELSCHED_CHECK(sets_.matrix.rows() == n, "update() vertex sets out of sync");
  // The anchor population is fixed: structural edits (vertex additions,
  // bounded<->unbounded flips) force a cold compute() upstream.
  const std::vector<VertexId>& anchors = sets_.domain.anchors;
  const std::size_t num_anchors = anchors.size();
  const std::size_t words = sets_.domain.word_count();
  rows_recomputed_ = 0;

  // Pre-edit bit rows: the reuse test reads the seeds' A(s), and a
  // relayout maps the affected vertices' old cells to new slots. Only
  // affected rows can change; A(v) only when Gf's edge set did.
  const auto save_rows = [words](const base::BitMatrix& m,
                                 std::span<const VertexId> vertices) {
    std::vector<std::uint64_t> saved(vertices.size() * words);
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      const std::uint64_t* row = m.row(vertices[i].index());
      std::copy(row, row + words, saved.data() + i * words);
    }
    return saved;
  };
  const std::vector<std::uint64_t> prev_seed_rows =
      save_rows(sets_.matrix, plan.seeds);
  const std::vector<std::uint64_t> prev_anchor_rows =
      plan.forward_changed ? save_rows(sets_.matrix, plan.affected_topo)
                           : std::vector<std::uint64_t>{};
  const std::vector<std::uint64_t> prev_relevant_rows =
      save_rows(relevant_, plan.affected_topo);

  // A(v): only a changed Gf edge set can change anchor sets, and every
  // changed value lies in the affected cone (any new/dead forward path
  // through an edit reaches v only if v is reachable from a seed).
  // Re-derive affected vertices in topological order over the edited
  // graph; unaffected in-neighbours contribute their kept rows.
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

  // A flipped A(v) bit moves length cells: rebuild that layout now, in
  // one pass that carries every kept value over, so the sweeps below
  // read and write settled slots.
  const auto relayout_if_changed =
      [&](const base::BitMatrix& rows, const std::vector<std::uint64_t>& prev,
          const AnchorDomain* self, std::vector<std::size_t>& start,
          Cells& cells) {
        std::vector<const std::uint64_t*> old_rows;
        for (std::size_t i = 0; i < plan.affected_topo.size(); ++i) {
          const std::uint64_t* was = prev.data() + i * words;
          const VertexId v = plan.affected_topo[i];
          if (base::words_equal(was, rows.row(v.index()), words)) continue;
          if (old_rows.empty()) {
            old_rows.assign(static_cast<std::size_t>(n), nullptr);
          }
          old_rows[v.index()] = was;
        }
        if (!old_rows.empty()) relayout(rows, self, old_rows, start, cells);
      };
  if (plan.forward_changed) {
    relayout_if_changed(sets_.matrix, prev_anchor_rows, &sets_.domain,
                        length_start_, length_cells_);
  }

  // Which anchors' values must be recomputed? Anchor x's values can
  // only change if some path counted in them gains/loses/reweighs an
  // edge, i.e. some edit seed s lies on such a path -- then s sits in
  // x's cone (old or new: s == x, x in A(s)) or its defining region
  // (x in R(s)). The anchor itself being affected covers cone growth
  // through x (s upstream of x). Bit tests only, evaluated before any
  // R bit is patched.
  std::vector<bool> touched(num_anchors, false);
  for (std::size_t i = 0; i < num_anchors; ++i) {
    const VertexId x = anchors[i];
    const int col = static_cast<int>(i);
    if (plan.affected->contains(x)) {
      touched[i] = true;
      continue;
    }
    for (std::size_t si = 0; si < plan.seeds.size(); ++si) {
      const VertexId s = plan.seeds[si];
      if (s == x || sets_.matrix.test(s.index(), col) ||
          base::words_test(prev_seed_rows.data() + si * words, col) ||
          relevant_.test(s.index(), col)) {
        touched[i] = true;
        break;
      }
    }
  }

  // Sweep each touched anchor over the affected cone in the dense
  // scratch rows. Unaffected in-neighbours are fixed boundary values: the
  // sweeps load their kept cells as they first read them (their rows,
  // and so their slots, are unchanged). Length values go back in place,
  // as the length layout is already settled. R(v) is patched from the
  // defining results -- x in R(v) iff the sweep found a defining path,
  // the equivalence compute() derives R from -- so the defining values
  // are collected, their layout rebuilt if an R bit flipped, and written
  // after the loop.
  SweepWorkspace& ws = *plan.workspace;
  prepare(ws, n);
  // write() unshares an array from any fork relative before patching
  // it; with no anchor touched, both stay physically shared.
  std::vector<graph::Weight>* lengths = nullptr;
  const std::vector<graph::Weight>& kept_defining = defining_cells_.read();
  std::vector<SweptCell> swept;
  for (std::size_t i = 0; i < num_anchors; ++i) {
    if (!touched[i]) continue;
    ++rows_recomputed_;
    if (lengths == nullptr) lengths = &length_cells_.write();
    const VertexId x = anchors[i];
    const int col = static_cast<int>(i);
    patch_defining_path_lengths(
        g, x, plan, ws.defining, Boundary(plan.affected, [&](VertexId u) {
          const std::size_t k = defining_index(col, u);
          return k == kNoCell ? graph::kNegInf : kept_defining[k];
        }));
    patch_cone_longest_paths(
        g, x, sets_, plan, ws.length, Boundary(plan.affected, [&](VertexId u) {
          const std::size_t k = length_index(col, u);
          return k == kNoCell ? graph::kNegInf : (*lengths)[k];
        }));
    for (VertexId v : plan.affected_topo) {
      const graph::Weight d = ws.defining[v.index()];
      if (d != graph::kNegInf) {
        relevant_.set(v.index(), col);
        swept.push_back({v, col, d});
      } else {
        relevant_.clear(v.index(), col);
      }
      if (v == x || sets_.matrix.test(v.index(), col)) {
        (*lengths)[length_index(col, v)] = ws.length[v.index()];
      }
    }
  }
  relayout_if_changed(relevant_, prev_relevant_rows, nullptr, defining_start_,
                      defining_cells_);
  if (!swept.empty()) {
    std::vector<graph::Weight>& cells = defining_cells_.write();
    for (const SweptCell& c : swept) {
      cells[defining_index(c.col, c.v)] = c.value;
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
