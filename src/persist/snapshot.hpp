// Payload serializers for checkpoint snapshots.
//
// Each save_* writes a self-delimiting payload into a Writer; each
// load_* reconstructs the value through the type's public API (or a
// befriended accessor) and returns false on any structural violation
// -- the Reader's bounds checking catches truncation, these functions
// catch semantic nonsense (out-of-range ids, invalid kinds). Callers
// wrap payloads in the framed-file envelope of serialize.hpp, which
// already guards against bit flips via checksum; load_* validation is
// the second line of defense, so a malicious or wildly stale payload
// still cannot construct broken in-memory state.
//
// Graphs are rebuilt through the ConstraintGraph construction API in
// stored edge order (a max constraint is stored as its backward edge
// (t, h) with weight -u, so it re-adds as add_max_constraint(h, t, u)),
// then ConstraintGraph::restore_revision() adopts the snapshot's
// revision counter so WAL records and product caches line up.
#pragma once

#include "anchors/anchor_analysis.hpp"
#include "certify/certify.hpp"
#include "cg/constraint_graph.hpp"
#include "persist/serialize.hpp"
#include "sched/relative_schedule.hpp"

namespace relsched::persist {

void save_graph(Writer& w, const cg::ConstraintGraph& g);
[[nodiscard]] bool load_graph(Reader& r, cg::ConstraintGraph* out);

/// Befriended by anchors::AnchorAnalysis: the per-anchor rows are the
/// bulk of a session's products and have no mutating public API.
struct AnchorAnalysisAccess {
  static void save(Writer& w, const anchors::AnchorAnalysis& analysis);
  [[nodiscard]] static bool load(Reader& r, anchors::AnchorAnalysis* out);
};

inline void save_analysis(Writer& w, const anchors::AnchorAnalysis& analysis) {
  AnchorAnalysisAccess::save(w, analysis);
}
[[nodiscard]] inline bool load_analysis(Reader& r,
                                        anchors::AnchorAnalysis* out) {
  return AnchorAnalysisAccess::load(r, out);
}

void save_diag(Writer& w, const certify::Diag& diag);
[[nodiscard]] bool load_diag(Reader& r, certify::Diag* out);

void save_schedule(Writer& w, const sched::RelativeSchedule& schedule);
[[nodiscard]] bool load_schedule(Reader& r, sched::RelativeSchedule* out);

}  // namespace relsched::persist
