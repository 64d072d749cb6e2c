// Design-space exploration over the full benchmark suite: synthesize
// every design, compare full vs irredundant anchor sets (Table III) and
// counter vs shift-register control implementations (paper §VI), then
// walk a timing-constraint sweep incrementally through a
// SynthesisSession (tightening one max bound until the design breaks).
//
//   ./build/examples/design_explorer
#include <algorithm>
#include <iostream>

#include "base/table.hpp"
#include "ctrl/control.hpp"
#include "designs/designs.hpp"
#include "driver/stats.hpp"
#include "driver/synthesis.hpp"
#include "engine/session.hpp"
#include "explore/explorer.hpp"
#include "graph/algorithms.hpp"

using namespace relsched;

namespace {

ctrl::ControlCost total_control_cost(const driver::SynthesisResult& result,
                                     ctrl::ControlStyle style,
                                     anchors::AnchorMode mode) {
  ctrl::ControlCost total;
  for (const auto& gs : result.graphs) {
    ctrl::ControlOptions opts;
    opts.style = style;
    opts.mode = mode;
    const auto unit = ctrl::generate_control(gs.constraint_graph, gs.analysis,
                                             gs.schedule.schedule, opts);
    total = total + unit.cost;
  }
  return total;
}

/// Constraint sweep on one graph: every tightening of one max
/// constraint becomes a candidate, and the whole sweep runs through the
/// parallel explorer -- each candidate on its own copy-on-write fork of
/// one resolved base session, resolved as a single transaction and
/// scored by zero-profile latency. The result is deterministic for any
/// worker count, so the table below never depends on the machine.
void explore_incrementally(const std::string& design_name,
                           cg::ConstraintGraph graph,
                           const anchors::AnchorAnalysis& analysis) {
  engine::SynthesisSession session(std::move(graph), {});

  // Sweep an existing max constraint, or install one along a forward
  // edge whose endpoints share an anchor set (containment keeps it
  // well-posed) with generous slack.
  EdgeId swept = EdgeId::invalid();
  for (const cg::Edge& e : session.graph().edges()) {
    if (e.kind == cg::EdgeKind::kMaxConstraint) {
      swept = e.id;
      break;
    }
  }
  if (!swept.is_valid()) {
    for (const cg::Edge& e : session.graph().edges()) {
      if (!cg::is_forward(e.kind)) continue;
      if (analysis.anchor_set(e.from) != analysis.anchor_set(e.to)) continue;
      const auto lp = graph::longest_paths_from(
          session.graph().project_forward(), e.from.value());
      swept = session.add_max_constraint(
          e.from, e.to, static_cast<int>(lp.dist[e.to.index()]) + 8);
      break;
    }
  }
  if (!swept.is_valid()) {
    std::cout << "\n(no sweepable max constraint in " << design_name << ")\n";
    return;
  }
  if (!session.resolve().ok()) {
    std::cerr << design_name
              << ": baseline resolve failed: " << session.resolve().schedule.message
              << "\n";
    return;
  }
  const cg::Edge& edge = session.graph().edge(swept);
  const VertexId from = edge.from;
  const VertexId to = edge.to;
  const int bound = std::abs(edge.fixed_weight);

  std::cout << "\nParallel sweep on " << design_name << ": max constraint '"
            << session.graph().vertex(from).name << "' -> '"
            << session.graph().vertex(to).name << "', bounds " << bound
            << "..0, one fork per candidate\n";

  std::vector<explore::Candidate> candidates;
  for (int b = bound; b >= 0; --b) {
    candidates.push_back({"bound=" + std::to_string(b),
                          {engine::Edit::set_bound(swept, b)}});
  }
  explore::Explorer explorer(std::move(session), {});
  const explore::ExplorationResult result =
      explorer.explore(candidates, explore::min_latency());

  TextTable sweep;
  sweep.set_header({"bound", "status", "latency", "dirty cone"});
  for (const explore::CandidateResult& c : result.candidates) {
    sweep.add_row(
        {c.label.substr(c.label.find('=') + 1),
         c.feasible ? "ok" : c.error,
         c.feasible ? std::to_string(static_cast<long long>(c.score)) : "-",
         std::to_string(c.stats.last_affected_vertices) + "/" +
             std::to_string(explorer.base().graph().vertex_count())});
  }
  sweep.print(std::cout);

  const engine::SessionStats st = explorer.base().stats();
  std::cout << "\nexplorer: " << candidates.size() << " candidates on "
            << explorer.threads() << " threads, " << st.forks_taken
            << " copy-on-write forks, " << result.steals << " steals";
  if (result.winner >= 0) {
    std::cout << "; best candidate " << result.best().label << " at latency "
              << static_cast<long long>(result.best().score);
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  TextTable table;
  table.set_header({"design", "|A|/|V|", "sum|A(v)|", "sum|IR(v)|",
                    "ctr FF/gates", "SR FF/gates", "SR+IR FF/gates"});
  cg::ConstraintGraph largest_graph;
  anchors::AnchorAnalysis largest_analysis;
  std::string largest_design;
  for (const auto& d : designs::benchmark_suite()) {
    seq::Design design = designs::build(d.name);
    const auto result = driver::synthesize(design);
    if (!result.ok()) {
      std::cerr << d.name << ": " << result.message << "\n";
      return 1;
    }
    for (const auto& gs : result.graphs) {
      if (gs.constraint_graph.vertex_count() > largest_graph.vertex_count()) {
        largest_graph = gs.constraint_graph;
        largest_analysis = gs.analysis;
        largest_design = d.name;
      }
    }
    const auto stats = driver::compute_stats(result);
    const auto counter = total_control_cost(result, ctrl::ControlStyle::kCounter,
                                            anchors::AnchorMode::kFull);
    const auto sr = total_control_cost(
        result, ctrl::ControlStyle::kShiftRegister, anchors::AnchorMode::kFull);
    const auto sr_ir =
        total_control_cost(result, ctrl::ControlStyle::kShiftRegister,
                           anchors::AnchorMode::kIrredundant);
    table.add_row({d.name,
                   std::to_string(stats.total_anchors) + "/" +
                       std::to_string(stats.total_vertices),
                   std::to_string(stats.sum_full),
                   std::to_string(stats.sum_irredundant),
                   std::to_string(counter.flipflops) + "/" +
                       std::to_string(counter.gates),
                   std::to_string(sr.flipflops) + "/" + std::to_string(sr.gates),
                   std::to_string(sr_ir.flipflops) + "/" +
                       std::to_string(sr_ir.gates)});
  }
  std::cout << "Benchmark suite: anchor statistics and control cost\n";
  table.print(std::cout);
  std::cout << "\nIrredundant anchor sets shrink both synchronization terms\n"
               "and shift-register lengths (paper SSVI): compare the last two\n"
               "columns.\n";

  explore_incrementally(largest_design, std::move(largest_graph),
                        largest_analysis);
  return 0;
}
