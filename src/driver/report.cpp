#include "driver/report.hpp"

#include "base/strings.hpp"
#include "base/table.hpp"

namespace relsched::driver {

namespace {

std::string offsets_cell(const cg::ConstraintGraph& g,
                         const std::vector<VertexId>& anchors,
                         const sched::RelativeSchedule& schedule, VertexId v) {
  std::vector<std::string> cells;
  for (VertexId a : anchors) {
    const auto sigma = schedule.offset(v, a);
    cells.push_back(sigma.has_value() ? std::to_string(*sigma) : "-");
  }
  (void)g;
  return join(cells, ",");
}

}  // namespace

void print_schedule_table(std::ostream& os, const cg::ConstraintGraph& g,
                          const anchors::AnchorAnalysis& analysis,
                          const sched::RelativeSchedule& schedule) {
  TextTable table;
  std::vector<std::string> header{"vertex", "anchor set A(v)", "IR(v)"};
  for (VertexId a : analysis.anchors()) {
    header.push_back(cat("sigma_", g.vertex(a).name));
  }
  table.set_header(std::move(header));
  for (const cg::Vertex& v : g.vertices()) {
    std::vector<std::string> row{std::string(v.name)};
    std::vector<std::string> names;
    for (VertexId a : analysis.anchor_set(v.id)) {
      names.emplace_back(g.vertex(a).name);
    }
    row.push_back(names.empty() ? "{}" : cat("{", join(names, ","), "}"));
    names.clear();
    for (VertexId a : analysis.irredundant_set(v.id)) {
      names.emplace_back(g.vertex(a).name);
    }
    row.push_back(names.empty() ? "{}" : cat("{", join(names, ","), "}"));
    for (VertexId a : analysis.anchors()) {
      const auto sigma = schedule.offset(v.id, a);
      row.push_back(sigma.has_value() ? std::to_string(*sigma) : "-");
    }
    table.add_row(std::move(row));
  }
  table.print(os);
}

void print_iteration_trace(std::ostream& os, const cg::ConstraintGraph& g,
                           const sched::ScheduleResult& result) {
  const std::vector<VertexId> anchors = g.anchors();
  TextTable table;
  std::vector<std::string> header{"vertex"};
  for (const auto& it : result.trace) {
    header.push_back(cat("iter", it.iteration, " compute"));
    if (it.violated_backward_edges > 0) {
      header.push_back(cat("iter", it.iteration, " readjust"));
    }
  }
  table.set_header(std::move(header));
  for (const cg::Vertex& v : g.vertices()) {
    std::vector<std::string> row{std::string(v.name)};
    for (const auto& it : result.trace) {
      row.push_back(offsets_cell(g, anchors, it.after_compute, v.id));
      if (it.violated_backward_edges > 0) {
        row.push_back(offsets_cell(g, anchors, it.after_readjust, v.id));
      }
    }
    table.add_row(std::move(row));
  }
  table.print(os);
  os << "iterations: " << result.iterations
     << "  status: " << to_string(result.status) << "\n";
}

void print_design_report(std::ostream& os, const seq::Design& design,
                         const SynthesisResult& result) {
  os << "design '" << design.name() << "': " << to_string(result.status);
  if (!result.message.empty()) os << " (" << result.message << ")";
  os << "\n";
  if (!result.ok()) return;
  TextTable table;
  table.set_header({"graph", "|V|", "|A|", "sum|A(v)|", "sum|IR(v)|", "latency",
                    "iters", "serialized"});
  for (const GraphSynthesis& gs : result.graphs) {
    const auto& g = gs.constraint_graph;
    std::size_t sum_full = 0;
    std::size_t sum_ir = 0;
    for (int vi = 0; vi < g.vertex_count(); ++vi) {
      sum_full += gs.analysis.anchor_set(VertexId(vi)).size();
      sum_ir += gs.analysis.irredundant_set(VertexId(vi)).size();
    }
    table.add_row({design.graph(gs.graph_id).name(),
                   std::to_string(g.vertex_count()),
                   std::to_string(gs.analysis.anchors().size()),
                   std::to_string(sum_full), std::to_string(sum_ir),
                   cat(gs.latency),
                   std::to_string(sched::iteration_count(g, gs.analysis)),
                   std::to_string(gs.binding.serializations.size() +
                                  gs.wellposed_fix.added_edges.size())});
  }
  table.print(os);
}

}  // namespace relsched::driver
