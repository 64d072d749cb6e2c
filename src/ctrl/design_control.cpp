#include "ctrl/design_control.hpp"

#include <sstream>

#include "base/strings.hpp"

namespace relsched::ctrl {

namespace {

std::string sanitize(std::string_view name) {
  std::string out;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, "g");
  return out;
}

}  // namespace

DesignControl generate_design_control(const seq::Design& /*design*/,
                                      const driver::SynthesisResult& synthesis,
                                      const ControlOptions& options) {
  RELSCHED_CHECK(synthesis.ok(), "control generation requires a synthesized design");
  DesignControl control;
  control.style = options.style;
  for (const driver::GraphSynthesis& gs : synthesis.graphs) {
    GraphControl gc;
    gc.graph = gs.graph_id;
    gc.unit = generate_control(gs.constraint_graph, gs.analysis,
                               gs.schedule.schedule, options);
    control.total_cost = control.total_cost + gc.unit.cost;
    control.graphs.push_back(std::move(gc));
  }
  return control;
}

std::string DesignControl::to_verilog(
    const seq::Design& design, const driver::SynthesisResult& synthesis,
    const std::string& top_name) const {
  std::ostringstream os;

  // Per-graph controller modules.
  for (const GraphControl& gc : graphs) {
    const auto& gs = synthesis.for_graph(gc.graph);
    os << gc.unit.to_verilog(gs.constraint_graph,
                             cat(top_name, "_", design.graph(gc.graph).name(),
                                 "_ctrl"))
       << "\n";
  }

  // Top module: instantiate every controller; activation chains follow
  // the hierarchy; unbounded completions surface as inputs.
  os << "// Hierarchical interconnection of the per-graph controllers.\n"
     << "// Inputs named status_* are completion signals produced by the\n"
     << "// datapath (loop terminations, external waits).\n"
     << "module " << sanitize(top_name) << " (\n  input wire clk,\n"
     << "  input wire rst,\n  input wire start";

  // Collect external status inputs: every unbounded op of every graph.
  std::vector<std::string> status_inputs;
  for (const GraphControl& gc : graphs) {
    const seq::SeqGraph& sg = design.graph(gc.graph);
    for (const seq::SeqOp& op : sg.ops()) {
      if (op.delay.is_unbounded()) {
        status_inputs.push_back(
            cat("status_", sanitize(sg.name()), "_", sanitize(op.name)));
      }
    }
  }
  for (const std::string& input : status_inputs) {
    os << ",\n  input wire " << input;
  }
  os << "\n);\n\n";

  // 1. Declarations: one activation wire per graph, one wire per
  //    enable output of every controller.
  for (const GraphControl& gc : graphs) {
    const auto& gs = synthesis.for_graph(gc.graph);
    const std::string gname = sanitize(design.graph(gc.graph).name());
    os << "  wire act_" << gname << ";\n";
    for (const OpEnable& enable : gc.unit.enables) {
      os << "  wire en_" << gname << "_"
         << sanitize(gs.constraint_graph.vertex(enable.vertex).name) << ";\n";
    }
  }
  os << "\n";

  // 2. Activation wiring: the root starts on `start`; children start on
  //    their hierarchical op's enable.
  os << "  assign act_" << sanitize(design.graph(design.root()).name())
     << " = start;\n";
  for (const GraphControl& gc : graphs) {
    const seq::SeqGraph& sg = design.graph(gc.graph);
    for (const seq::SeqOp& op : sg.ops()) {
      for (const SeqGraphId child : {op.cond_body, op.body, op.else_body}) {
        if (!child.is_valid()) continue;
        os << "  assign act_" << sanitize(design.graph(child).name())
           << " = en_" << sanitize(sg.name()) << "_" << sanitize(op.name)
           << ";\n";
      }
    }
  }
  os << "\n";

  // 3. Controller instances.
  for (const GraphControl& gc : graphs) {
    const auto& gs = synthesis.for_graph(gc.graph);
    const seq::SeqGraph& sg = design.graph(gc.graph);
    const std::string gname = sanitize(sg.name());
    os << "  " << cat(sanitize(top_name), "_", gname, "_ctrl") << " u_"
       << gname << " (\n    .clk(clk),\n    .rst(rst)";
    for (const AnchorSync& sync : gc.unit.syncs) {
      const std::string aname =
          sanitize(gs.constraint_graph.vertex(sync.anchor).name);
      os << ",\n    .done_" << aname << "(";
      if (sync.anchor == gs.constraint_graph.source()) {
        os << "act_" << gname;
      } else {
        os << "status_" << gname << "_" << aname;
      }
      os << ")";
    }
    for (const OpEnable& enable : gc.unit.enables) {
      const std::string vname =
          sanitize(gs.constraint_graph.vertex(enable.vertex).name);
      os << ",\n    .en_" << vname << "(en_" << gname << "_" << vname << ")";
    }
    os << "\n  );\n";
  }
  os << "endmodule\n";
  return os.str();
}

}  // namespace relsched::ctrl
