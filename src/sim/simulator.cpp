#include "sim/simulator.hpp"

#include <algorithm>

#include "base/error.hpp"
#include "base/strings.hpp"
#include "graph/algorithms.hpp"

namespace relsched::sim {

// ---- Stimulus ----------------------------------------------------------------

void Stimulus::set(PortId port, graph::Weight cycle, std::int64_t value) {
  auto& steps = steps_[port];
  const auto it = std::lower_bound(
      steps.begin(), steps.end(), cycle,
      [](const auto& step, graph::Weight c) { return step.first < c; });
  if (it != steps.end() && it->first == cycle) {
    it->second = value;
  } else {
    steps.insert(it, {cycle, value});
  }
}

void Stimulus::set(const seq::Design& design, std::string_view port_name,
                   graph::Weight cycle, std::int64_t value) {
  const auto port = design.find_port(port_name);
  RELSCHED_CHECK(port.has_value(), "unknown stimulus port");
  set(*port, cycle, value);
}

std::int64_t Stimulus::value_at(PortId port, graph::Weight cycle) const {
  const auto it = steps_.find(port);
  if (it == steps_.end()) return 0;
  const auto& steps = it->second;
  auto pos = std::upper_bound(
      steps.begin(), steps.end(), cycle,
      [](graph::Weight c, const auto& step) { return c < step.first; });
  if (pos == steps.begin()) return 0;
  return std::prev(pos)->second;
}

std::int64_t SimResult::output_at(PortId port, graph::Weight cycle) const {
  const auto it = port_writes.find(port);
  if (it == port_writes.end()) return 0;
  std::int64_t value = 0;
  graph::Weight best = -1;
  for (const auto& [c, v] : it->second) {
    if (c <= cycle && c >= best) {
      best = c;
      value = v;
    }
  }
  return value;
}

namespace {

std::int64_t mask_to_width(std::int64_t value, int width) {
  if (width <= 0 || width >= 63) return value;
  return value & ((std::int64_t{1} << width) - 1);
}

std::int64_t eval_alu(seq::AluOp op, std::int64_t a, std::int64_t b) {
  using seq::AluOp;
  switch (op) {
    case AluOp::kAdd: return a + b;
    case AluOp::kSub: return a - b;
    case AluOp::kMul: return a * b;
    case AluOp::kDiv: return b == 0 ? 0 : a / b;
    case AluOp::kMod: return b == 0 ? 0 : a % b;
    case AluOp::kAnd: return a & b;
    case AluOp::kOr: return a | b;
    case AluOp::kXor: return a ^ b;
    case AluOp::kNot: return ~a;
    case AluOp::kNeg: return -a;
    case AluOp::kEq: return a == b ? 1 : 0;
    case AluOp::kNe: return a != b ? 1 : 0;
    case AluOp::kLt: return a < b ? 1 : 0;
    case AluOp::kLe: return a <= b ? 1 : 0;
    case AluOp::kGt: return a > b ? 1 : 0;
    case AluOp::kGe: return a >= b ? 1 : 0;
    case AluOp::kShl: return b >= 63 ? 0 : a << (b < 0 ? 0 : b);
    case AluOp::kShr: return b >= 63 ? 0 : a >> (b < 0 ? 0 : b);
  }
  return 0;
}

}  // namespace

// ---- Engine ----------------------------------------------------------------

struct Simulator::GraphInfo {
  const driver::GraphSynthesis* gs = nullptr;
  std::vector<int> topo;  // forward topological order of the cg vertices
  /// ancestors[v] over the dependency graph (v's transitive deps).
  std::vector<std::vector<bool>> ancestors;
};

class Simulator::Engine {
 public:
  Engine(const seq::Design& design, const driver::SynthesisResult& synthesis,
         const Stimulus& stimulus, Environment* environment,
         const SimOptions& options)
      : design_(design),
        synthesis_(synthesis),
        stimulus_(stimulus),
        environment_(environment),
        options_(options) {
    info_.resize(static_cast<std::size_t>(design_.graph_count()));
    for (const driver::GraphSynthesis& gs : synthesis_.graphs) {
      GraphInfo& gi = info_[gs.graph_id.index()];
      gi.gs = &gs;
      const auto topo = gs.constraint_graph.forward_order();
      RELSCHED_CHECK(topo.has_value(), "scheduled graph must have acyclic Gf");
      gi.topo = *topo;
      // Dependency closure for same-cycle visibility decisions.
      const seq::SeqGraph& sg = design_.graph(gs.graph_id);
      const int n = sg.op_count();
      gi.ancestors.assign(static_cast<std::size_t>(n),
                          std::vector<bool>(static_cast<std::size_t>(n), false));
      graph::Digraph deps(n);
      for (const auto& [from, to] : sg.dependencies()) {
        deps.add_arc(from.value(), to.value(), 0);
      }
      const auto dep_topo = graph::topological_order(deps);
      RELSCHED_CHECK(dep_topo.has_value(), "dependency cycle in seq graph");
      for (int v : *dep_topo) {
        for (int arc : deps.in_arcs(v)) {
          const int p = deps.arc(arc).from;
          auto& av = gi.ancestors[static_cast<std::size_t>(v)];
          const auto& ap = gi.ancestors[static_cast<std::size_t>(p)];
          av[static_cast<std::size_t>(p)] = true;
          for (int u = 0; u < n; ++u) {
            if (ap[static_cast<std::size_t>(u)]) {
              av[static_cast<std::size_t>(u)] = true;
            }
          }
        }
      }
    }
  }

  SimResult run() {
    graph::Weight t = 0;
    for (int i = 0; i < options_.max_activations && !aborted_; ++i) {
      if (t > options_.max_cycles) {
        result_.timed_out = true;
        break;
      }
      event(TraceEvent::Kind::kActivate, t, design_.root(), OpId::invalid(), 0,
            "process");
      const ActivationResult root = run_graph(design_.root(), t);
      event(TraceEvent::Kind::kComplete, root.completion, design_.root(),
            OpId::invalid(), 0, "process");
      ++result_.activations;
      result_.end_cycle = root.completion;
      t = root.completion + options_.reactivation_gap;
    }
    for (const auto& [var, history] : var_history_) {
      if (!history.empty()) {
        // Latest by (cycle, append order).
        const VarWrite* best = &history.front();
        for (const VarWrite& w : history) {
          if (w.cycle >= best->cycle) best = &w;
        }
        result_.final_vars[var] = best->value;
      }
    }
    if (aborted_) result_.timed_out = true;
    return std::move(result_);
  }

 private:
  struct VarWrite {
    graph::Weight cycle;
    long long activation;
    OpId writer;  // op id within the writing activation's graph
    std::int64_t value;
  };

  struct ActivationResult {
    graph::Weight completion = 0;
    long long token = 0;
    std::map<OpId, std::int64_t> values;  // op results
  };

  void event(TraceEvent::Kind kind, graph::Weight cycle, SeqGraphId gid,
             OpId op, std::int64_t value, std::string label) {
    if (!options_.record_op_events &&
        (kind == TraceEvent::Kind::kStart || kind == TraceEvent::Kind::kFinish)) {
      return;
    }
    result_.events.push_back(
        TraceEvent{kind, cycle, gid, op, value, std::move(label)});
  }

  /// Latest visible write to `var` for a read at `cycle` by `reader`
  /// (op of activation `token` in graph `gid`). Same-cycle writes are
  /// visible along dependency paths (combinational forwarding) and from
  /// other (completed) activations; parallel same-cycle writes are not.
  std::int64_t read_var(VarId var, graph::Weight cycle, long long token,
                        OpId reader, const GraphInfo& gi) const {
    const auto it = var_history_.find(var);
    if (it == var_history_.end()) return 0;
    const VarWrite* best = nullptr;
    for (const VarWrite& w : it->second) {
      bool visible = false;
      if (w.cycle < cycle) {
        visible = true;
      } else if (w.cycle == cycle) {
        if (w.activation != token) {
          visible = true;  // completed descendant / earlier activation
        } else if (reader.is_valid() && w.writer.is_valid() &&
                   gi.ancestors[reader.index()][w.writer.index()]) {
          visible = true;  // forwarding along a dependency chain
        }
      }
      if (!visible) continue;
      if (best == nullptr || w.cycle > best->cycle ||
          (w.cycle == best->cycle && &w > best)) {
        best = &w;
      }
    }
    return best == nullptr ? 0 : best->value;
  }

  std::int64_t eval(const seq::Operand& operand, graph::Weight cycle,
                    const ActivationResult& act, OpId reader,
                    const GraphInfo& gi) const {
    switch (operand.kind) {
      case seq::Operand::Kind::kConst:
        return operand.constant;
      case seq::Operand::Kind::kVar:
        return read_var(operand.var, cycle, act.token, reader, gi);
      case seq::Operand::Kind::kPort:
        return input_value(operand.port, cycle);
      case seq::Operand::Kind::kOpResult: {
        const auto it = act.values.find(operand.op);
        return it == act.values.end() ? 0 : it->second;
      }
      case seq::Operand::Kind::kNone:
        return 0;
    }
    return 0;
  }

  ActivationResult run_graph(SeqGraphId gid, graph::Weight t0) {
    ActivationResult act;
    act.token = ++activation_counter_;
    act.completion = t0;
    if (aborted_ || t0 > options_.max_cycles) {
      aborted_ = true;
      return act;
    }
    const GraphInfo& gi = info_[gid.index()];
    RELSCHED_CHECK(gi.gs != nullptr, "graph was not synthesized");
    const seq::SeqGraph& sg = design_.graph(gid);
    const sched::RelativeSchedule& schedule = gi.gs->schedule.schedule;

    const int n = sg.op_count();
    std::vector<graph::Weight> start(static_cast<std::size_t>(n), t0);
    std::vector<graph::Weight> completion(static_cast<std::size_t>(n), t0);

    for (int node : gi.topo) {
      if (aborted_) break;
      const OpId op_id(node);
      const seq::SeqOp& op = sg.op(op_id);

      // T(v) from the relative schedule against live completions.
      graph::Weight t = t0;
      for (const auto& [anchor, sigma] : schedule.offsets(VertexId(node)).entries()) {
        t = std::max(t, completion[anchor.index()] + sigma);
      }
      start[op_id.index()] = t;
      if (t > options_.max_cycles) {
        aborted_ = true;
        break;
      }

      switch (op.kind) {
        case seq::OpKind::kSource:
        case seq::OpKind::kSink:
        case seq::OpKind::kNop:
          completion[op_id.index()] = t;
          break;
        case seq::OpKind::kConst:
          act.values[op_id] = 0;
          completion[op_id.index()] = t;
          break;
        case seq::OpKind::kAlu: {
          const std::int64_t a = eval(op.inputs[0], t, act, op_id, gi);
          const std::int64_t b =
              op.inputs.size() > 1 ? eval(op.inputs[1], t, act, op_id, gi) : 0;
          act.values[op_id] = eval_alu(op.alu, a, b);
          completion[op_id.index()] = t + op.delay.cycles();
          break;
        }
        case seq::OpKind::kRead: {
          const std::int64_t value = mask_to_width(
              input_value(op.port, t), design_.port(op.port).width);
          act.values[op_id] = value;
          completion[op_id.index()] = t + op.delay.cycles();
          event(TraceEvent::Kind::kReadSample, t, gid, op_id, value,
                design_.port(op.port).name);
          break;
        }
        case seq::OpKind::kWrite: {
          const std::int64_t value = mask_to_width(
              eval(op.inputs[0], t, act, op_id, gi), design_.port(op.port).width);
          completion[op_id.index()] = t + op.delay.cycles();
          result_.port_writes[op.port].push_back(
              {completion[op_id.index()], value});
          if (environment_ != nullptr) {
            environment_->on_port_write(op.port, completion[op_id.index()],
                                        value);
          }
          event(TraceEvent::Kind::kPortWrite, completion[op_id.index()], gid,
                op_id, value, design_.port(op.port).name);
          break;
        }
        case seq::OpKind::kAssign: {
          const std::int64_t value = mask_to_width(
              eval(op.inputs[0], t, act, op_id, gi), design_.var(op.target).width);
          act.values[op_id] = value;
          var_history_[op.target].push_back(VarWrite{t, act.token, op_id, value});
          completion[op_id.index()] = t;
          break;
        }
        case seq::OpKind::kWait: {
          const PortId port = op.inputs[0].port;
          graph::Weight c = t;
          for (; c <= options_.max_cycles; ++c) {
            const bool level = input_value(port, c) != 0;
            if (level == op.wait_for_high) break;
          }
          if (c > options_.max_cycles) {
            aborted_ = true;
            result_.timed_out = true;
          }
          completion[op_id.index()] = c;
          break;
        }
        case seq::OpKind::kLoop:
          completion[op_id.index()] = run_loop(op, t, act, gi);
          break;
        case seq::OpKind::kCond: {
          const std::int64_t cond = eval(op.condition, t, act, op_id, gi);
          const SeqGraphId branch = cond != 0 ? op.body : op.else_body;
          graph::Weight branch_end = t;
          if (branch.is_valid()) {
            branch_end = run_graph(branch, t).completion;
          }
          completion[op_id.index()] =
              op.delay.is_bounded() ? t + op.delay.cycles()
                                    : branch_end;
          break;
        }
        case seq::OpKind::kCall: {
          const graph::Weight end = run_graph(op.body, t).completion;
          completion[op_id.index()] =
              op.delay.is_bounded() ? t + op.delay.cycles() : end;
          break;
        }
      }

      if (options_.record_op_events && op.kind != seq::OpKind::kSource &&
          op.kind != seq::OpKind::kSink) {
        event(TraceEvent::Kind::kStart, t, gid, op_id, 0, op.name);
        event(TraceEvent::Kind::kFinish, completion[op_id.index()], gid, op_id,
              0, op.name);
      }
    }

    // Evaluate this activation's timing constraints on observed starts.
    for (std::size_t ci = 0; ci < sg.constraints().size(); ++ci) {
      const seq::TimingConstraint& c = sg.constraints()[ci];
      ConstraintCheck check;
      check.graph = gid;
      check.constraint_index = ci;
      check.from_start = start[c.from.index()];
      check.to_start = start[c.to.index()];
      check.satisfied = c.is_min
                            ? check.to_start >= check.from_start + c.cycles
                            : check.to_start <= check.from_start + c.cycles;
      result_.constraint_checks.push_back(check);
    }

    act.completion = completion[sg.sink().index()];
    return act;
  }

  graph::Weight run_loop(const seq::SeqOp& op, graph::Weight t0,
                         ActivationResult& parent, const GraphInfo& gi) {
    (void)parent;
    (void)gi;
    const bool pre_test =
        design_.graph(op.body).loop_test() == seq::LoopTest::kPreTest;
    graph::Weight t = t0;
    while (!aborted_) {
      const graph::Weight round_start = t;
      if (pre_test) {
        const ActivationResult cond = run_graph(op.cond_body, t);
        t = cond.completion;
        const GraphInfo& cond_info = info_[op.cond_body.index()];
        const std::int64_t value =
            eval(op.condition, t, cond, OpId::invalid(), cond_info);
        if (value == 0) break;
        t = run_graph(op.body, t).completion;
      } else {
        t = run_graph(op.body, t).completion;
        const ActivationResult cond = run_graph(op.cond_body, t);
        t = cond.completion;
        const GraphInfo& cond_info = info_[op.cond_body.index()];
        const std::int64_t value =
            eval(op.condition, t, cond, OpId::invalid(), cond_info);
        if (value != 0) break;  // until (c): exit when c becomes true
      }
      // A zero-latency test/body pair still advances time: the loop
      // re-evaluates its condition once per cycle.
      if (t == round_start) ++t;
      if (t > options_.max_cycles) {
        aborted_ = true;
        result_.timed_out = true;
      }
    }
    return t;
  }

  const seq::Design& design_;
  const driver::SynthesisResult& synthesis_;
  /// Input value at a cycle: a reactive environment may override the
  /// static stimulus.
  [[nodiscard]] std::int64_t input_value(PortId port,
                                         graph::Weight cycle) const {
    if (environment_ != nullptr) {
      if (const auto v = environment_->drive(port, cycle)) return *v;
    }
    return stimulus_.value_at(port, cycle);
  }

  const Stimulus& stimulus_;
  Environment* environment_ = nullptr;
  const SimOptions& options_;
  SimResult result_;
  std::vector<GraphInfo> info_;
  std::map<VarId, std::vector<VarWrite>> var_history_;
  long long activation_counter_ = 0;
  bool aborted_ = false;
};

Simulator::Simulator(const seq::Design& design,
                     const driver::SynthesisResult& result, Stimulus stimulus)
    : design_(design), synthesis_(result), stimulus_(std::move(stimulus)) {
  RELSCHED_CHECK(result.ok(), "simulation requires a successful synthesis");
}

SimResult Simulator::run(const SimOptions& options) {
  Engine engine(design_, synthesis_, stimulus_, environment_, options);
  return engine.run();
}

// ---- Waveform rendering -------------------------------------------------------

std::string render_waveform(const seq::Design& design, const Stimulus& stimulus,
                            const SimResult& result,
                            const std::vector<std::string>& port_names,
                            graph::Weight from, graph::Weight to) {
  std::ostringstream os;
  constexpr int kCell = 4;
  std::size_t label_width = 5;
  for (const auto& name : port_names) {
    label_width = std::max(label_width, name.size());
  }
  os << pad_right("cycle", label_width) << " |";
  for (graph::Weight c = from; c < to; ++c) {
    os << pad_left(std::to_string(c), kCell);
  }
  os << "\n" << std::string(label_width, '-') << "-+"
     << std::string(static_cast<std::size_t>((to - from) * kCell), '-') << "\n";
  for (const auto& name : port_names) {
    const auto port = design.find_port(name);
    RELSCHED_CHECK(port.has_value(), "unknown port in waveform request");
    os << pad_right(name, label_width) << " |";
    const bool is_input =
        design.port(*port).direction == seq::PortDirection::kIn;
    for (graph::Weight c = from; c < to; ++c) {
      const std::int64_t v = is_input ? stimulus.value_at(*port, c)
                                      : result.output_at(*port, c);
      os << pad_left(std::to_string(v), kCell);
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace relsched::sim
