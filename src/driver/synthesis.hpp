// End-to-end structural synthesis pipeline (paper §VII, Hebe):
//
//   sequencing graphs  ->  module binding + conflict resolution
//                      ->  constraint graph
//                      ->  (optional) makeWellposed serialization
//                      ->  engine::SynthesisSession::resolve()
//                            |  anchor analysis (A / R / IR)
//                            |  well-posedness / feasibility verdicts
//                            |  iterative incremental relative scheduling
//                      ->  per-graph latency fed bottom-up into parents
//
// The session step caches its products against the constraint graph's
// revision counter: this one-shot driver resolves each graph cold, but
// callers that keep the session (examples/design_explorer) edit
// constraints and re-resolve warm, recomputing only the dirty cone.
//
// Scheduling is hierarchical and bottom-up: loop bodies, conditional
// branches, and callees are scheduled first; a child with no internal
// anchors contributes a bounded latency to its parent operation,
// otherwise the parent operation becomes unbounded (an anchor).
#pragma once

#include <string>
#include <vector>

#include "anchors/anchor_analysis.hpp"
#include "bind/binder.hpp"
#include "cg/constraint_graph.hpp"
#include "lint/lint.hpp"
#include "sched/scheduler.hpp"
#include "seq/design.hpp"
#include "wellposed/wellposed.hpp"

namespace relsched::driver {

struct SynthesisOptions {
  bind::BindingOptions binding;
  bind::ResourceLibrary library = bind::ResourceLibrary::standard();
  /// Attempt minimal serialization when a graph is ill-posed.
  bool apply_make_wellposed = true;
  /// Constrained conflict resolution (paper SSVII): when a graph's
  /// binding serialization makes its timing constraints unschedulable,
  /// retry with up to this many perturbed serialization orders before
  /// giving up.
  int conflict_resolution_retries = 4;
  /// Run the static analyzer (lint::analyze) on each graph's constraint
  /// graph before scheduling it; findings land in
  /// GraphSynthesis::lint_report. Off by default: synthesis outcomes
  /// never depend on lint (the report is advisory).
  bool lint = false;
  lint::Options lint_options;
};

enum class SynthesisStatus {
  kOk,
  kIllPosed,      // some graph could not be made well-posed
  kInfeasible,    // positive cycle in some graph
  kInconsistent,  // scheduler found no schedule in some graph
  kInvalid,       // structural problem in some graph
};

[[nodiscard]] const char* to_string(SynthesisStatus status);

/// Synthesis products for one graph of the hierarchy.
struct GraphSynthesis {
  SeqGraphId graph_id;
  cg::ConstraintGraph constraint_graph{"unset"};
  anchors::AnchorAnalysis analysis;
  sched::ScheduleResult schedule;
  bind::BindingResult binding;
  wellposed::MakeWellposedResult wellposed_fix;
  /// Static-analysis findings for `constraint_graph` (after the
  /// make_wellposed step, before scheduling); empty unless
  /// SynthesisOptions::lint is set.
  lint::Report lint_report;
  /// Latency of one activation: bounded iff the graph has no internal
  /// anchors (then it equals sigma_v0(sink)).
  cg::Delay latency = cg::Delay::unbounded();
};

struct SynthesisResult {
  SynthesisStatus status = SynthesisStatus::kInvalid;
  std::string message;
  /// Per-graph products in bottom-up (post-) order.
  std::vector<GraphSynthesis> graphs;
  /// graph id -> index into `graphs` (-1 if absent).
  std::vector<int> graph_index;
  /// Witness-carrying diagnostic for the failing graph of the LAST
  /// attempt (kNone on success, or when the failure carries no
  /// witness), with `diag_graph` the constraint graph the witness
  /// refers to -- kept here because failed graphs are never appended
  /// to `graphs`. Renderable via certify::render / certify::to_json
  /// and replayable via certify::verify_witness.
  certify::Diag diag;
  cg::ConstraintGraph diag_graph{"unset"};

  [[nodiscard]] bool ok() const { return status == SynthesisStatus::kOk; }
  [[nodiscard]] const GraphSynthesis& for_graph(SeqGraphId id) const;
};

/// Process exit code for a synthesis outcome -- the relsched_cli
/// contract, covered by tests/test_driver.cpp: 0 ok, 3 infeasible,
/// 4 ill-posed, 5 no schedule found (inconsistent constraints),
/// 1 structural/invalid failures. (2 is reserved for usage errors.)
[[nodiscard]] int exit_code(SynthesisStatus status);

/// Runs the full pipeline. Mutates `design` (delay annotations plus
/// serializing dependencies from binding).
SynthesisResult synthesize(seq::Design& design,
                           const SynthesisOptions& options = {});

}  // namespace relsched::driver
