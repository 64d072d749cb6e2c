#include "anchors/anchor_analysis.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <functional>
#include <optional>
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
  std::optional<std::vector<int>> topo = g.forward_order();
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
  if (!base::words_test(row, col)) return kNoCell;
  return lengths_.read().start[v.index()] +
         static_cast<std::size_t>(base::words_rank(row, col));
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
  // An anchor is never in its own A(v); on a feasible graph no path
  // returns to it with positive length, so length(a, a) = 0.
  if (anchor == v) return 0;
  const std::size_t k = length_index(pos, v);
  return k == kNoCell ? graph::kNegInf : lengths_.read().value[k];
}

void AnchorAnalysis::length_column(VertexId anchor,
                                   std::vector<graph::Weight>& out) const {
  const int col = sets_.domain.index[anchor.index()];
  RELSCHED_CHECK(col >= 0, "length_column() queried for a non-anchor");
  const CellTable& t = lengths_.read();
  out.assign(t.start.size() - 1, graph::kNegInf);
  for (std::size_t v = 0; v < out.size(); ++v) {
    const std::uint64_t* row = sets_.matrix.row(static_cast<int>(v));
    // The source's column is the first: no rank, so no popcount (a call
    // on targets without the instruction) on this per-warm-resolve path.
    if (!base::words_test(row, col)) continue;
    out[v] = t.value[t.start[v] + static_cast<std::size_t>(
                                      col == 0 ? 0 : base::words_rank(row, col))];
  }
  out[anchor.index()] = 0;
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
  std::vector<graph::Weight>& cells = lengths_.write().value;
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

int AnchorAnalysis::cell_arrays_shared(int views) const {
  return (lengths_.use_count() > 1 + views ? 1 : 0) +
         (defining_cells_.shared() ? 1 : 0);
}

namespace {

/// CSR row starts over `m`'s rows: row v owns popcount(row v) cells.
std::vector<std::uint32_t> cell_starts(const base::BitMatrix& m) {
  std::vector<std::uint32_t> start(static_cast<std::size_t>(m.rows()) + 1, 0);
  std::size_t total = 0;
  for (int v = 0; v < m.rows(); ++v) {
    total += static_cast<std::size_t>(m.row_popcount(v));
    RELSCHED_CHECK(total < UINT32_MAX, "too many anchor cells");
    start[static_cast<std::size_t>(v) + 1] = static_cast<std::uint32_t>(total);
  }
  return start;
}

/// The length table's layout over A(v): starts and anchor ids from the
/// bit rows, every value kNegInf.
CellTable length_layout(const AnchorSets& sets) {
  CellTable t;
  t.start = cell_starts(sets.matrix);
  t.anchor.reserve(t.start.back());
  for (std::size_t v = 0; v < sets.size(); ++v) {
    for (const VertexId a : sets[v]) t.anchor.push_back(a);
  }
  t.value.assign(t.start.back(), graph::kNegInf);
  return t;
}

}  // namespace

void AnchorAnalysis::rebuild_layouts() {
  lengths_ = base::Cow<CellTable>(length_layout(sets_));
  defining_start_ = cell_starts(relevant_);
  defining_cells_ = Cells(
      std::vector<graph::Weight>(defining_start_.back(), graph::kNegInf));
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
  a.rebuild_layouts();
  return a;
}

namespace {

/// Longest paths over the region `plan.affected_topo` (in topological
/// order), in place, through the edges `relaxed(edge, weight)` accepts
/// into the vertices `counted(v)` accepts. The region's entries must
/// already hold their seed values (kNegInf or 0). Values enter from
/// outside the region only through `entering`, edges whose tail is
/// outside and head inside; `kept(u)` is such a tail's fixed value.
///
/// One pass in topological order pushes each vertex's value along its
/// out-edges, which settles every edge that points forward in the
/// order -- all of Gf. A backward edge that raises a head the pass has
/// already left queues that head, and its rise spreads through a FIFO
/// worklist over out-edges that stay inside the region (the region is
/// closed under the edges that matter). The pass touches the region's
/// out-edges only, so a region that reaches a high in-degree vertex
/// such as the sink does not pay for that vertex's other in-edges.
/// Without a positive cycle a vertex is enqueued at most once per
/// backward-edge hop of its longest path, so more than |region| + 1
/// enqueues prove the graph infeasible, a precondition violation.
/// Returns false when `watchdog` tripped (the values are then partial).
template <typename Kept, typename Counted, typename Relaxed>
bool settle_region(const cg::ConstraintGraph& g, const UpdatePlan& plan,
                   std::span<const EdgeId> entering, Kept kept,
                   std::vector<graph::Weight>& dist, Counted counted,
                   Relaxed relaxed, SweepWorkspace& ws,
                   base::Watchdog* watchdog) {
  for (const VertexId v : ws.queue) {
    ws.enqueued[v.index()] = 0;
    ws.in_queue[v.index()] = 0;
  }
  ws.queue.clear();
  const int limit = static_cast<int>(plan.affected_topo.size()) + 1;
  // Raises the head of `e` from `from_value`; a raise across a
  // backward edge (or any raise once the pass is over) queues the head.
  const auto raise = [&](const cg::Edge& e, graph::Weight from_value,
                         graph::Weight w, bool queue) {
    const graph::Weight candidate = graph::saturating_add(from_value, w);
    if (candidate <= dist[e.to.index()]) return;
    dist[e.to.index()] = candidate;
    if (!queue || ws.in_queue[e.to.index()] != 0) return;
    RELSCHED_CHECK(++ws.enqueued[e.to.index()] <= limit,
                   "anchor analysis requires a feasible graph");
    ws.in_queue[e.to.index()] = 1;
    ws.queue.push_back(e.to);
  };
  // Relaxes v's out-edges that stay inside the region.
  const auto push = [&](VertexId v, bool after_pass) {
    const graph::Weight dv = dist[v.index()];
    if (dv == graph::kNegInf) return;
    for (EdgeId eid : g.out_edges(v)) {
      const cg::Edge& e = g.edge(eid);
      if (!plan.affected->contains(e.to) || !counted(e.to)) continue;
      const cg::EdgeWeight w = g.weight(eid);
      if (!relaxed(e, w)) continue;
      raise(e, dv, w.value, after_pass || !cg::is_forward(e.kind));
    }
  };
  for (const EdgeId eid : entering) {
    const cg::Edge& e = g.edge(eid);
    const cg::EdgeWeight w = g.weight(eid);
    if (counted(e.to) && relaxed(e, w)) raise(e, kept(e.from), w.value, false);
  }
  for (const VertexId v : plan.affected_topo) {
    if (watchdog != nullptr && watchdog->charge()) return false;
    if (counted(v)) push(v, false);
  }
  for (std::size_t head = 0; head < ws.queue.size(); ++head) {
    if (watchdog != nullptr && watchdog->charge()) return false;
    const VertexId v = ws.queue[head];
    ws.in_queue[v.index()] = 0;
    push(v, true);
  }
  return true;
}

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
/// in-neighbours acting as fixed values `kept` across `entering`. Once
/// a path enters the affected cone it stays inside (the cone is closed
/// under out-edges), so settle_region() over the affected sublist
/// suffices: the cost is proportional to the dirty cone, not to |V| or
/// |E|. `dist` may hold anything outside the region.
template <typename Kept>
bool patch_defining_path_lengths(const cg::ConstraintGraph& g, VertexId anchor,
                                 const UpdatePlan& plan,
                                 std::span<const EdgeId> entering, Kept kept,
                                 std::vector<graph::Weight>& dist,
                                 SweepWorkspace& ws) {
  for (VertexId v : plan.affected_topo) dist[v.index()] = graph::kNegInf;
  for (EdgeId eid : g.out_edges(anchor)) {
    if (!g.weight(eid).unbounded) continue;
    const VertexId head = g.edge(eid).to;
    if (plan.affected->contains(head)) {
      dist[head.index()] = std::max<graph::Weight>(dist[head.index()], 0);
    }
  }
  const bool done = settle_region(
      g, plan, entering, kept, dist, [](VertexId) { return true; },
      [anchor](const cg::Edge& e, cg::EdgeWeight w) {
        return e.from != anchor && !w.unbounded;
      },
      ws, plan.watchdog);
  dist[anchor.index()] = graph::kNegInf;
  return done;
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
bool patch_cone_longest_paths(const cg::ConstraintGraph& g, VertexId anchor,
                              const AnchorSets& anchor_sets,
                              const UpdatePlan& plan,
                              std::span<const EdgeId> entering, Kept kept,
                              std::vector<graph::Weight>& dist,
                              SweepWorkspace& ws) {
  const auto in_cone = [&](VertexId v) {
    return v == anchor || anchor_sets.view(v).contains(anchor);
  };
  for (VertexId v : plan.affected_topo) dist[v.index()] = graph::kNegInf;
  if (plan.affected->contains(anchor)) dist[anchor.index()] = 0;
  // Every edge is relaxed between cone vertices: values only leave
  // counted vertices, and a tail outside the cone keeps no cell, so
  // `kept` gives it kNegInf.
  return settle_region(
      g, plan, entering, kept, dist, in_cone,
      [](const cg::Edge&, cg::EdgeWeight) { return true; }, ws, plan.watchdog);
}

/// The vertices reachable from `starts` over the edges `follow`
/// accepts, as a membership mask plus a list in the order of `topo`
/// (`position` is its inverse). The list is re-sorted by position when
/// that is cheaper than a walk of the whole order (r log r < |V|), so a
/// small region costs its own size.
template <typename Follow>
void reachable_in_topo_order(const cg::ConstraintGraph& g,
                             std::span<const VertexId> starts, Follow follow,
                             std::span<const int> topo,
                             std::span<const int> position,
                             base::VertexMask& mask,
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
  const std::size_t r = order.size();
  if (r * static_cast<std::size_t>(std::bit_width(r)) < topo.size()) {
    std::sort(order.begin(), order.end(), [position](VertexId a, VertexId b) {
      return position[a.index()] < position[b.index()];
    });
    return;
  }
  order.clear();
  for (int node : topo) {
    if (mask.contains(VertexId(node))) order.push_back(VertexId(node));
  }
}

/// Sizes `ws`'s dense rows for `n` vertices.
void prepare(SweepWorkspace& ws, int n) {
  ws.defining.resize(static_cast<std::size_t>(n));
  ws.length.resize(static_cast<std::size_t>(n));
  ws.enqueued.resize(static_cast<std::size_t>(n), 0);
  ws.in_queue.resize(static_cast<std::size_t>(n), 0);
}

/// Both path values of one anchor from scratch, over the regions where
/// they can be finite: the defining region (everything a defining path
/// reaches) and the cone. Each is derived with its update() patch, the
/// region standing in for the affected set, so a cold sweep costs the
/// region, not |E|. Calls `defining(v, value)` for every finite
/// defining value and `length(v, value)` for every cone vertex but the
/// anchor. Returns false when `watchdog` tripped.
///
/// With `lengths_given` (the source, cone V) only the defining values
/// are swept, over the whole order: that region is nearly V too.
template <typename OnDefining, typename OnLength>
bool sweep_anchor(const cg::ConstraintGraph& g, VertexId anchor,
                  const AnchorSets& anchor_sets, std::span<const int> topo,
                  std::span<const int> position, SweepWorkspace& ws,
                  base::Watchdog* watchdog, bool lengths_given,
                  OnDefining defining, OnLength length) {
  UpdatePlan plan;
  plan.affected = &ws.region;
  plan.watchdog = watchdog;

  if (lengths_given) {
    ws.region.reset(g.vertex_count());
    ws.order.clear();
    for (const int node : topo) {
      ws.region.insert(VertexId(node));
      ws.order.push_back(VertexId(node));
    }
  } else {
    ws.heads.clear();
    for (EdgeId eid : g.out_edges(anchor)) {
      if (g.weight(eid).unbounded) ws.heads.push_back(g.edge(eid).to);
    }
    reachable_in_topo_order(
        g, ws.heads,
        [&](const cg::Edge& e) {
          return e.from != anchor && !g.weight(e.id).unbounded;
        },
        topo, position, ws.region, ws.order);
  }
  plan.affected_topo = ws.order;
  // A region holds every vertex a value can reach, so nothing enters it.
  if (!patch_defining_path_lengths(g, anchor, plan, {}, kNothingKept,
                                   ws.defining, ws)) {
    return false;
  }
  for (VertexId v : ws.order) {
    if (ws.defining[v.index()] != graph::kNegInf) {
      defining(v, ws.defining[v.index()]);
    }
  }
  if (lengths_given) return true;

  reachable_in_topo_order(
      g, std::span<const VertexId>(&anchor, 1),
      [&](const cg::Edge& e) { return anchor_sets.view(e.to).contains(anchor); },
      topo, position, ws.region, ws.order);
  plan.affected_topo = ws.order;
  if (!patch_cone_longest_paths(g, anchor, anchor_sets, plan, {},
                                kNothingKept, ws.length, ws)) {
    return false;
  }
  for (VertexId v : ws.order) {
    if (v != anchor) length(v, ws.length[v.index()]);
  }
  return true;
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
  return compute_sharded(g, forward_order(g), pool, nullptr, {});
}

AnchorAnalysis AnchorAnalysis::compute(
    const cg::ConstraintGraph& g, std::span<const int> topo,
    base::Watchdog* watchdog, std::span<const graph::Weight> source_lengths) {
  return compute_sharded(g, topo, nullptr, watchdog, source_lengths);
}

AnchorAnalysis AnchorAnalysis::compute_sharded(
    const cg::ConstraintGraph& g, std::span<const int> topo,
    base::WorkStealingPool* pool, base::Watchdog* watchdog,
    std::span<const graph::Weight> source_lengths) {
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
  // A watchdog is single-threaded: only the sequential path takes one.
  RELSCHED_CHECK(pool == nullptr || watchdog == nullptr,
                 "a watchdog cannot be shared by pooled sweeps");
  RELSCHED_CHECK(source_lengths.empty() ||
                     source_lengths.size() == static_cast<std::size_t>(n),
                 "source lengths out of sync with the graph");
  std::vector<int> position(topo.size());
  for (std::size_t i = 0; i < topo.size(); ++i) {
    position[static_cast<std::size_t>(topo[i])] = static_cast<int>(i);
  }
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
      const bool given = anchors[i] == g.source() && !source_lengths.empty();
      std::vector<SweptCell> found_defining;
      std::vector<SweptCell> found_cone;
      if (!sweep_anchor(
              g, anchors[i], a.sets_, topo, position, ws, watchdog, given,
              [&](VertexId v, graph::Weight d) {
                found_defining.push_back({v, col, d});
              },
              [&](VertexId v, graph::Weight len) {
                found_cone.push_back({v, col, len});
              })) {
        return;
      }
      if (given) {
        // The source's cone is all of V, so its cone-restricted longest
        // paths are G0's, which feasibility's pass already computed.
        found_cone.reserve(static_cast<std::size_t>(n));
        for (int vi = 0; vi < n; ++vi) {
          const VertexId v(vi);
          if (v == anchors[i]) continue;
          RELSCHED_CHECK(a.sets_.matrix.test(vi, col),
                         "a vertex outside the source's cone");
          found_cone.push_back({v, col, source_lengths[v.index()]});
        }
      }
      defining[i] = std::move(found_defining);
      cone[i] = std::move(found_cone);
    }
  });
  if (watchdog != nullptr && watchdog->stopped()) return a;
  a.rows_recomputed_ = static_cast<int>(num_anchors);

  // R(v): x in R(v) iff a defining path from x reaches v, i.e. the
  // defining sweep of x found v (Definition 9 -- the paper's
  // relevantAnchor traversal in §IV-D visits exactly these vertices).
  // With R(v) and A(v) known, so are both layouts. The cells are placed
  // by a per-vertex cursor: anchors ascend, so each vertex's cells
  // arrive in bit order.
  for (const std::vector<SweptCell>& cells : defining) {
    for (const SweptCell& c : cells) a.relevant_.set(c.v.value(), c.col);
  }
  a.rebuild_layouts();
  const auto scatter = [](const std::vector<std::vector<SweptCell>>& lists,
                          const std::vector<std::uint32_t>& start,
                          std::vector<graph::Weight>& values) {
    std::vector<std::uint32_t> cursor(start.begin(), start.end() - 1);
    for (const std::vector<SweptCell>& cells : lists) {
      for (const SweptCell& c : cells) values[cursor[c.v.index()]++] = c.value;
    }
  };
  scatter(defining, a.defining_start_, a.defining_cells_.write());
  CellTable& lengths = a.lengths_.write();
  scatter(cone, lengths.start, lengths.value);

  // IR(v) writes only vertex v's bit row and reads state that is
  // immutable from here on.
  parallel_for(pool, static_cast<std::size_t>(n), [&](std::size_t vi) {
    a.compute_irredundant_at(VertexId(static_cast<int>(vi)));
  });
  return a;
}

namespace {

/// Carries one value array over a change of bit rows. `start` and
/// `old` are the pre-edit layout, `new_start` and `fresh` the new one;
/// `old_rows[v]` is v's pre-edit bit row where it changed (nullptr where
/// it did not). Every cell that survives keeps its value; new cells
/// keep the kNegInf `fresh` holds.
void carry_values(const base::BitMatrix& rows,
                  const std::vector<const std::uint64_t*>& old_rows,
                  std::span<const std::uint32_t> start,
                  std::span<const graph::Weight> old,
                  std::span<const std::uint32_t> new_start,
                  std::span<graph::Weight> fresh) {
  for (int vi = 0; vi < rows.rows(); ++vi) {
    const std::size_t v = static_cast<std::size_t>(vi);
    const std::uint64_t* was = old_rows[v];
    if (was == nullptr) {
      std::copy(old.begin() + start[v], old.begin() + start[v + 1],
                fresh.begin() + new_start[v]);
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
  }
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
  // read and write settled slots. `changed_rows` lists the pre-edit
  // rows of the affected vertices whose row differs from `rows` now
  // (empty when none does).
  const auto changed_rows = [&](const base::BitMatrix& rows,
                                const std::vector<std::uint64_t>& prev) {
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
    return old_rows;
  };
  if (plan.forward_changed) {
    if (const auto old_rows = changed_rows(sets_.matrix, prev_anchor_rows);
        !old_rows.empty()) {
      CellTable fresh = length_layout(sets_);
      const CellTable& old = lengths_.read();
      carry_values(sets_.matrix, old_rows, old.start, old.value, fresh.start,
                   fresh.value);
      lengths_ = base::Cow<CellTable>(std::move(fresh));
    }
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
  // scratch rows. Unaffected in-neighbours are fixed boundary values:
  // the sweeps read the kept cells of the tails of the edges entering
  // the cone (their rows, and so their slots, are unchanged), listed
  // once for all touched anchors. Length values go back in place,
  // as the length layout is already settled. R(v) is patched from the
  // defining results -- x in R(v) iff the sweep found a defining path,
  // the equivalence compute() derives R from -- so the defining values
  // are collected, their layout rebuilt if an R bit flipped, and written
  // after the loop.
  SweepWorkspace& ws = *plan.workspace;
  prepare(ws, n);
  // write() unshares an array from any fork relative before patching
  // it; with no anchor touched, both stay physically shared (and the
  // entering edges are never listed).
  std::vector<graph::Weight>* lengths = nullptr;
  const std::vector<graph::Weight>& kept_defining = defining_cells_.read();
  std::vector<SweptCell> swept;
  for (std::size_t i = 0; i < num_anchors; ++i) {
    if (!touched[i]) continue;
    ++rows_recomputed_;
    if (lengths == nullptr) {
      lengths = &lengths_.write().value;
      ws.entering.clear();
      for (VertexId v : plan.affected_topo) {
        for (EdgeId eid : g.in_edges(v)) {
          if (!plan.affected->contains(g.edge(eid).from)) {
            ws.entering.push_back(eid);
          }
        }
      }
    }
    const VertexId x = anchors[i];
    const int col = static_cast<int>(i);
    const bool done =
        patch_defining_path_lengths(
            g, x, plan, ws.entering,
            [&](VertexId u) {
              const std::size_t k = defining_index(col, u);
              return k == kNoCell ? graph::kNegInf : kept_defining[k];
            },
            ws.defining, ws) &&
        patch_cone_longest_paths(
            g, x, sets_, plan, ws.entering,
            [&](VertexId u) {
              if (u == x) return graph::Weight{0};
              const std::size_t k = length_index(col, u);
              return k == kNoCell ? graph::kNegInf : (*lengths)[k];
            },
            ws.length, ws);
    if (!done) return;
    for (VertexId v : plan.affected_topo) {
      const graph::Weight d = ws.defining[v.index()];
      if (d != graph::kNegInf) {
        relevant_.set(v.index(), col);
        swept.push_back({v, col, d});
      } else {
        relevant_.clear(v.index(), col);
      }
      if (sets_.matrix.test(v.index(), col)) {
        (*lengths)[length_index(col, v)] = ws.length[v.index()];
      }
    }
  }
  if (const auto old_rows = changed_rows(relevant_, prev_relevant_rows);
      !old_rows.empty()) {
    std::vector<std::uint32_t> new_start = cell_starts(relevant_);
    std::vector<graph::Weight> fresh(new_start.back(), graph::kNegInf);
    carry_values(relevant_, old_rows, defining_start_, defining_cells_.read(),
                 new_start, fresh);
    defining_start_ = std::move(new_start);
    defining_cells_ = Cells(std::move(fresh));
  }
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
