#include "persist/snapshot.hpp"

#include <limits>

#include "base/error.hpp"

namespace relsched::persist {

namespace {

void save_ids(Writer& w, const std::vector<VertexId>& ids) {
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (const VertexId v : ids) w.i32(v.value());
}

void save_edge_ids(Writer& w, const std::vector<EdgeId>& ids) {
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (const EdgeId e : ids) w.i32(e.value());
}

bool load_ids(Reader& r, std::vector<VertexId>* out, int max_exclusive,
              bool allow_invalid = false) {
  const std::uint32_t count = r.u32();
  if (!r.ok() || r.remaining() / 4 < count) {
    r.fail();
    return false;
  }
  out->clear();
  out->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::int32_t v = r.i32();
    if (v >= max_exclusive || (!allow_invalid && v < 0)) {
      r.fail();
      return false;
    }
    out->push_back(VertexId(v));
  }
  return r.ok();
}

bool load_edge_ids(Reader& r, std::vector<EdgeId>* out) {
  const std::uint32_t count = r.u32();
  if (!r.ok() || r.remaining() / 4 < count) {
    r.fail();
    return false;
  }
  out->clear();
  out->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) out->push_back(EdgeId(r.i32()));
  return r.ok();
}

void save_bit_matrix(Writer& w, const base::BitMatrix& m) {
  w.u32(static_cast<std::uint32_t>(m.rows()));
  w.u32(static_cast<std::uint32_t>(m.cols()));
  for (int row = 0; row < m.rows(); ++row) {
    const std::uint64_t* words = m.row(row);
    for (std::size_t i = 0; i < m.words_per_row(); ++i) w.u64(words[i]);
  }
}

bool load_bit_matrix(Reader& r, base::BitMatrix* out, int expect_rows,
                     int expect_cols) {
  const std::uint32_t rows = r.u32();
  const std::uint32_t cols = r.u32();
  if (!r.ok() || rows != static_cast<std::uint32_t>(expect_rows) ||
      cols != static_cast<std::uint32_t>(expect_cols)) {
    r.fail();
    return false;
  }
  out->reset(expect_rows, expect_cols);
  const std::size_t words_per_row = out->words_per_row();
  if (r.remaining() / 8 <
      static_cast<std::size_t>(rows) * words_per_row) {
    r.fail();
    return false;
  }
  // Bits past `cols` in a row's last word must be zero: every BitMatrix
  // mutator preserves that invariant, and whole-word subset/equality
  // tests silently rely on it.
  const std::uint64_t tail_mask =
      cols % base::kBitsPerWord == 0
          ? 0
          : ~std::uint64_t{0} << (cols % base::kBitsPerWord);
  for (std::uint32_t row = 0; row < rows; ++row) {
    std::uint64_t* words = out->row(static_cast<int>(row));
    for (std::size_t i = 0; i < words_per_row; ++i) words[i] = r.u64();
    if (words_per_row > 0 && (words[words_per_row - 1] & tail_mask) != 0) {
      r.fail();
      return false;
    }
  }
  return r.ok();
}

}  // namespace

void save_graph(Writer& w, const cg::ConstraintGraph& g) {
  w.str(g.name());
  w.u64(g.revision());
  w.u32(static_cast<std::uint32_t>(g.vertex_count()));
  for (const cg::Vertex& v : g.vertices()) {
    w.str(v.name);
    // Bounded cycles >= 0; -1 encodes unbounded (matches cg::Delay).
    w.i32(v.delay.is_bounded() ? v.delay.cycles() : -1);
  }
  w.u32(static_cast<std::uint32_t>(g.edge_count()));
  for (const cg::Edge& e : g.edges()) {
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.i32(e.from.value());
    w.i32(e.to.value());
    w.i32(e.fixed_weight);
  }
}

bool load_graph(Reader& r, cg::ConstraintGraph* out) {
  const std::string name = r.str();
  const std::uint64_t revision = r.u64();
  const std::uint32_t vertex_count = r.u32();
  if (!r.ok()) return false;
  cg::ConstraintGraph g(name);
  try {
    for (std::uint32_t i = 0; i < vertex_count; ++i) {
      const std::string vname = r.str();
      const std::int32_t cycles = r.i32();
      if (!r.ok()) return false;
      g.add_vertex(vname, cycles < 0 ? cg::Delay::unbounded()
                                     : cg::Delay::bounded(cycles));
    }
    const std::uint32_t edge_count = r.u32();
    if (!r.ok() || r.remaining() / 13 < edge_count) {
      r.fail();
      return false;
    }
    for (std::uint32_t i = 0; i < edge_count; ++i) {
      const std::uint8_t kind = r.u8();
      const std::int32_t from = r.i32();
      const std::int32_t to = r.i32();
      const std::int32_t weight = r.i32();
      if (!r.ok() || from < 0 || to < 0 ||
          from >= static_cast<std::int32_t>(vertex_count) ||
          to >= static_cast<std::int32_t>(vertex_count)) {
        r.fail();
        return false;
      }
      switch (static_cast<cg::EdgeKind>(kind)) {
        case cg::EdgeKind::kSequencing:
          g.add_sequencing_edge(VertexId(from), VertexId(to));
          break;
        case cg::EdgeKind::kMinConstraint:
          g.add_min_constraint(VertexId(from), VertexId(to), weight);
          break;
        case cg::EdgeKind::kMaxConstraint:
          // Stored as the backward edge (t, h) with fixed weight -u:
          // re-adding the constraint between (h, t) with bound u
          // reproduces the stored edge bit-for-bit in the same slot.
          g.add_max_constraint(VertexId(to), VertexId(from), -weight);
          break;
        default:
          r.fail();
          return false;
      }
    }
    if (revision < g.revision()) {
      // A real snapshot's revision counts at least the construction
      // edits that rebuilt it; anything smaller is corrupt.
      r.fail();
      return false;
    }
    g.restore_revision(revision);
  } catch (const ApiError&) {
    // Construction invariants rejected the payload (negative bound,
    // bad polarity, ...). Structured failure, not a crash.
    r.fail();
    return false;
  }
  *out = std::move(g);
  return true;
}

void AnchorAnalysisAccess::save(Writer& w,
                                const anchors::AnchorAnalysis& analysis) {
  const auto& a = analysis;
  w.i32(a.rows_recomputed_);
  save_ids(w, a.sets_.domain.anchors);
  w.vec_i32(a.sets_.domain.index);
  save_bit_matrix(w, a.sets_.matrix);
  save_bit_matrix(w, a.relevant_);
  save_bit_matrix(w, a.irredundant_);
  // The cells in their one canonical order (vertex-major, each
  // vertex's cells in bit order): equal analyses write equal bytes, and
  // the layout itself is re-derived from the bit rows on load.
  const auto save_cells = [&w](const std::vector<graph::Weight>& cells) {
    w.u64(cells.size());
    for (const graph::Weight value : cells) w.i64(value);
  };
  save_cells(a.length_cells_.read());
  save_cells(a.defining_cells_.read());
}

bool AnchorAnalysisAccess::load(Reader& r, anchors::AnchorAnalysis* out) {
  anchors::AnchorAnalysis a;
  a.rows_recomputed_ = r.i32();
  // domain.index is vertex-indexed: its size is the vertex count every
  // other container must agree with.
  std::vector<VertexId> anchors;
  if (!load_ids(r, &anchors, std::numeric_limits<std::int32_t>::max())) {
    return false;
  }
  std::vector<int> index = r.vec_i32();
  if (!r.ok()) return false;
  const int vertex_count = static_cast<int>(index.size());
  const int anchor_count = static_cast<int>(anchors.size());
  for (const VertexId v : anchors) {
    if (v.value() >= vertex_count) return false;
  }
  for (const int idx : index) {
    if (idx < -1 || idx >= anchor_count) return false;
  }
  // The two halves of the domain must describe each other: column c's
  // anchor maps back to column c. Columns ascend by anchor id, as
  // compute() lays them out: cell cursors (AnchorCellCursor) walk two
  // vertices' cells in that order.
  for (int c = 0; c < anchor_count; ++c) {
    if (index[anchors[static_cast<std::size_t>(c)].index()] != c) return false;
    if (c > 0 && !(anchors[static_cast<std::size_t>(c) - 1] <
                   anchors[static_cast<std::size_t>(c)])) {
      return false;
    }
  }
  a.sets_.domain.anchors = std::move(anchors);
  a.sets_.domain.index = std::move(index);
  if (!load_bit_matrix(r, &a.sets_.matrix, vertex_count, anchor_count) ||
      !load_bit_matrix(r, &a.relevant_, vertex_count, anchor_count) ||
      !load_bit_matrix(r, &a.irredundant_, vertex_count, anchor_count)) {
    return false;
  }
  // The bit rows fix how many cells each array holds. A count that
  // disagrees, or more cells than the payload has bytes for, is
  // rejected before anything is allocated from it.
  a.rebuild_starts();
  const auto load_cells = [&r](std::size_t expect,
                               std::vector<graph::Weight>* cells) {
    const std::uint64_t count = r.u64();
    if (!r.ok() || count != expect || r.remaining() / 8 < count) {
      r.fail();
      return false;
    }
    cells->resize(expect);
    for (graph::Weight& value : *cells) value = r.i64();
    return r.ok();
  };
  if (!load_cells(a.length_start_.back(), &a.length_cells_.write()) ||
      !load_cells(a.defining_start_.back(), &a.defining_cells_.write())) {
    return false;
  }
  *out = std::move(a);
  return true;
}

namespace {

enum class WitnessTag : std::uint8_t {
  kNone = 0,
  kCycle = 1,
  kContainment = 2,
  kUnboundedCycle = 3,
  kScheduleViolation = 4,
};

}  // namespace

void save_diag(Writer& w, const certify::Diag& diag) {
  w.u8(static_cast<std::uint8_t>(diag.code));
  w.str(diag.message);
  if (const auto* cw = std::get_if<certify::CycleWitness>(&diag.witness)) {
    w.u8(static_cast<std::uint8_t>(WitnessTag::kCycle));
    save_edge_ids(w, cw->edges);
    w.i64(cw->total);
  } else if (const auto* ct =
                 std::get_if<certify::ContainmentWitness>(&diag.witness)) {
    w.u8(static_cast<std::uint8_t>(WitnessTag::kContainment));
    w.i32(ct->backward_edge.value());
    w.i32(ct->anchor.value());
    save_edge_ids(w, ct->path);
  } else if (const auto* uc =
                 std::get_if<certify::UnboundedCycleWitness>(&diag.witness)) {
    w.u8(static_cast<std::uint8_t>(WitnessTag::kUnboundedCycle));
    w.i32(uc->backward_edge.value());
    w.i32(uc->anchor.value());
    save_edge_ids(w, uc->path);
  } else if (const auto* sv = std::get_if<certify::ScheduleViolationWitness>(
                 &diag.witness)) {
    w.u8(static_cast<std::uint8_t>(WitnessTag::kScheduleViolation));
    w.i32(sv->edge.value());
    w.i32(sv->anchor.value());
    w.i64(sv->lhs);
    w.i64(sv->rhs);
    w.str(sv->detail);
  } else {
    w.u8(static_cast<std::uint8_t>(WitnessTag::kNone));
  }
}

bool load_diag(Reader& r, certify::Diag* out) {
  certify::Diag diag;
  const std::uint8_t code = r.u8();
  if (code > static_cast<std::uint8_t>(certify::Code::kIrredundantSet)) {
    r.fail();
    return false;
  }
  diag.code = static_cast<certify::Code>(code);
  diag.message = r.str();
  const std::uint8_t tag = r.u8();
  if (!r.ok()) return false;
  switch (static_cast<WitnessTag>(tag)) {
    case WitnessTag::kNone:
      break;
    case WitnessTag::kCycle: {
      certify::CycleWitness cw;
      if (!load_edge_ids(r, &cw.edges)) return false;
      cw.total = r.i64();
      diag.witness = std::move(cw);
      break;
    }
    case WitnessTag::kContainment: {
      certify::ContainmentWitness ct;
      ct.backward_edge = EdgeId(r.i32());
      ct.anchor = VertexId(r.i32());
      if (!load_edge_ids(r, &ct.path)) return false;
      diag.witness = std::move(ct);
      break;
    }
    case WitnessTag::kUnboundedCycle: {
      certify::UnboundedCycleWitness uc;
      uc.backward_edge = EdgeId(r.i32());
      uc.anchor = VertexId(r.i32());
      if (!load_edge_ids(r, &uc.path)) return false;
      diag.witness = std::move(uc);
      break;
    }
    case WitnessTag::kScheduleViolation: {
      certify::ScheduleViolationWitness sv;
      sv.edge = EdgeId(r.i32());
      sv.anchor = VertexId(r.i32());
      sv.lhs = r.i64();
      sv.rhs = r.i64();
      sv.detail = r.str();
      diag.witness = std::move(sv);
      break;
    }
    default:
      r.fail();
      return false;
  }
  if (!r.ok()) return false;
  *out = std::move(diag);
  return true;
}

void save_schedule(Writer& w, const sched::RelativeSchedule& schedule) {
  const int n = schedule.vertex_count();
  w.u32(static_cast<std::uint32_t>(n));
  for (int v = 0; v < n; ++v) {
    const auto& entries = schedule.offsets(VertexId(v)).entries();
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const auto& [anchor, offset] : entries) {
      w.i32(anchor.value());
      w.i64(offset);
    }
  }
}

bool load_schedule(Reader& r, sched::RelativeSchedule* out) {
  const std::uint32_t n = r.u32();
  if (!r.ok() || r.remaining() / 4 < n) {
    r.fail();
    return false;
  }
  sched::RelativeSchedule schedule(static_cast<int>(n));
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint32_t entries = r.u32();
    if (!r.ok() || r.remaining() / 12 < entries) {
      r.fail();
      return false;
    }
    sched::OffsetMap& map = schedule.offsets(VertexId(static_cast<int>(v)));
    VertexId previous = VertexId::invalid();
    for (std::uint32_t i = 0; i < entries; ++i) {
      const VertexId anchor(r.i32());
      const graph::Weight offset = r.i64();
      // Entries are stored sorted by anchor; enforce it so set() is a
      // pure append and the rebuilt map is bit-identical.
      if (!anchor.is_valid() ||
          (previous.is_valid() && anchor <= previous)) {
        r.fail();
        return false;
      }
      map.set(anchor, offset);
      previous = anchor;
    }
  }
  if (!r.ok()) return false;
  *out = std::move(schedule);
  return true;
}

void save_schedule_result(Writer& w, const sched::ScheduleResult& result) {
  w.u8(static_cast<std::uint8_t>(result.status));
  save_schedule(w, result.schedule);
  w.i32(result.iterations);
  w.str(result.message);
  save_diag(w, result.diag);
  w.u32(static_cast<std::uint32_t>(result.trace.size()));
  for (const sched::IterationTrace& trace : result.trace) {
    w.i32(trace.iteration);
    save_schedule(w, trace.after_compute);
    save_schedule(w, trace.after_readjust);
    w.i32(trace.violated_backward_edges);
  }
}

bool load_schedule_result(Reader& r, sched::ScheduleResult* out) {
  sched::ScheduleResult result;
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(sched::ScheduleStatus::kCancelled)) {
    r.fail();
    return false;
  }
  result.status = static_cast<sched::ScheduleStatus>(status);
  if (!load_schedule(r, &result.schedule)) return false;
  result.iterations = r.i32();
  result.message = r.str();
  if (!load_diag(r, &result.diag)) return false;
  const std::uint32_t traces = r.u32();
  if (!r.ok() || r.remaining() / 4 < traces) {
    r.fail();
    return false;
  }
  result.trace.reserve(traces);
  for (std::uint32_t i = 0; i < traces; ++i) {
    sched::IterationTrace trace;
    trace.iteration = r.i32();
    if (!load_schedule(r, &trace.after_compute)) return false;
    if (!load_schedule(r, &trace.after_readjust)) return false;
    trace.violated_backward_edges = r.i32();
    result.trace.push_back(std::move(trace));
  }
  if (!r.ok()) return false;
  *out = std::move(result);
  return true;
}

}  // namespace relsched::persist
