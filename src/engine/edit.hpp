// The one edit value: a min or max constraint added, removed or
// re-bounded, or an operation's delay set -- the paper's incremental
// inputs. Every data-borne edit (an "edit" request, a WAL or replicated
// record, an explorer candidate, a bench script step) becomes an Edit,
// is checked by refusal() and applied by SynthesisSession::apply(), the
// one dispatch to the typed journaled methods. Operands stay 64-bit
// until refusal() has range-checked them.
#pragma once

#include <cstdint>

#include "base/ids.hpp"
#include "cg/constraint_graph.hpp"
#include "persist/wal.hpp"

namespace relsched::engine {

/// Largest bound or delay, in cycles, an edit may carry.
inline constexpr std::int64_t kMaxEditCycles = 1'000'000'000;

struct Edit {
  using Op = persist::WalRecord::Op;

  /// Any op but kResolve. The operands mean what a WalRecord's do;
  /// unused ones are 0.
  Op op = Op::kAddMin;
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t value = 0;

  static Edit add_min(VertexId from, VertexId to, std::int64_t cycles) {
    return {Op::kAddMin, from.value(), to.value(), cycles};
  }
  static Edit add_max(VertexId from, VertexId to, std::int64_t cycles) {
    return {Op::kAddMax, from.value(), to.value(), cycles};
  }
  static Edit remove_constraint(EdgeId e) {
    return {Op::kRemoveConstraint, e.value(), 0, 0};
  }
  static Edit set_bound(EdgeId e, std::int64_t cycles) {
    return {Op::kSetBound, e.value(), 0, cycles};
  }
  static Edit set_delay(VertexId v, cg::Delay delay) {
    return {Op::kSetDelay, v.value(), 0,
            delay.is_bounded() ? delay.cycles() : std::int64_t{-1}};
  }
  /// The edit a WAL record carries (refusal() refuses a kResolve).
  static Edit from_record(const persist::WalRecord& r) {
    return {r.op, r.a, r.b, r.value};
  }

  /// nullptr when the ids are in range for `g`, a constraint joins two
  /// distinct vertices and the cycles lie in [0, kMaxEditCycles] (a
  /// delay may be -1, unbounded); else what is wrong, e.g. "an
  /// out-of-range edge id". Edge kinds and polarity are left to the
  /// graph's edit API.
  [[nodiscard]] const char* refusal(const cg::ConstraintGraph& g) const;

  friend bool operator==(const Edit&, const Edit&) = default;
};

}  // namespace relsched::engine
