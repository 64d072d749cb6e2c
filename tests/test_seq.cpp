#include "seq/design.hpp"

#include <gtest/gtest.h>

#include "seq/to_constraint_graph.hpp"

namespace relsched::seq {
namespace {

SeqOp make_alu(AluOp alu, std::string name) {
  SeqOp op;
  op.kind = OpKind::kAlu;
  op.alu = alu;
  op.name = std::move(name);
  op.delay = cg::Delay::bounded(1);
  return op;
}

TEST(SeqGraph, SourceAndSinkCreatedAutomatically) {
  Design d("d");
  const SeqGraphId gid = d.add_graph("root");
  const SeqGraph& g = d.graph(gid);
  EXPECT_EQ(g.op_count(), 2);
  EXPECT_EQ(g.op(g.source()).kind, OpKind::kSource);
  EXPECT_EQ(g.op(g.sink()).kind, OpKind::kSink);
}

TEST(Design, SymbolLookup) {
  Design d("d");
  const PortId p = d.add_port("xin", 8, PortDirection::kIn);
  const VarId v = d.add_var("x", 8);
  EXPECT_EQ(d.find_port("xin"), p);
  EXPECT_EQ(d.find_var("x"), v);
  EXPECT_FALSE(d.find_port("nope").has_value());
  EXPECT_FALSE(d.find_var("nope").has_value());
  EXPECT_EQ(d.port(p).width, 8);
  EXPECT_EQ(d.var(v).name, "x");
}

TEST(Design, PostorderPutsChildrenFirst) {
  Design d("d");
  const SeqGraphId root = d.add_graph("root");
  const SeqGraphId body = d.add_graph("body");
  const SeqGraphId cond = d.add_graph("cond");
  const SeqGraphId inner = d.add_graph("inner");
  d.set_root(root);

  SeqOp loop;
  loop.kind = OpKind::kLoop;
  loop.name = "loop";
  loop.body = body;
  loop.cond_body = cond;
  d.graph(root).add_op(std::move(loop));

  SeqOp call;
  call.kind = OpKind::kCall;
  call.name = "call";
  call.body = inner;
  d.graph(body).add_op(std::move(call));

  const auto order = d.postorder();
  ASSERT_EQ(order.size(), 4u);
  const auto pos = [&order](SeqGraphId id) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] == id) return static_cast<int>(i);
    }
    return -1;
  };
  EXPECT_LT(pos(inner), pos(body));
  EXPECT_LT(pos(body), pos(root));
  EXPECT_LT(pos(cond), pos(root));
  EXPECT_EQ(pos(root), 3);
}

TEST(ToConstraintGraph, OpsMapOneToOne) {
  Design d("d");
  const SeqGraphId gid = d.add_graph("g");
  SeqGraph& g = d.graph(gid);
  const OpId a = g.add_op(make_alu(AluOp::kAdd, "a"));
  const OpId b = g.add_op(make_alu(AluOp::kSub, "b"));
  g.add_dependency(a, b);
  const auto cgx = to_constraint_graph(g);
  EXPECT_EQ(cgx.vertex_count(), 4);
  EXPECT_EQ(cgx.vertex(VertexId(a.value())).name, "a");
  EXPECT_EQ(cgx.vertex(VertexId(a.value())).delay, cg::Delay::bounded(1));
  EXPECT_TRUE(cgx.validate().empty());
  EXPECT_EQ(cgx.sink(), VertexId(g.sink().value()));
}

TEST(ToConstraintGraph, PolarityRestoredForDanglingOps) {
  Design d("d");
  const SeqGraphId gid = d.add_graph("g");
  SeqGraph& g = d.graph(gid);
  g.add_op(make_alu(AluOp::kAdd, "a"));  // no deps at all
  g.add_op(make_alu(AluOp::kMul, "b"));
  const auto cgx = to_constraint_graph(g);
  EXPECT_TRUE(cgx.validate().empty()) << cgx.validate().front().message;
}

TEST(ToConstraintGraph, EmptyGraphGetsSourceSinkEdge) {
  Design d("d");
  const SeqGraphId gid = d.add_graph("g");
  const auto cgx = to_constraint_graph(d.graph(gid));
  EXPECT_TRUE(cgx.validate().empty());
  EXPECT_EQ(cgx.edge_count(), 1);
}

TEST(ToConstraintGraph, ConstraintsBecomeMinMaxEdges) {
  Design d("d");
  const SeqGraphId gid = d.add_graph("g");
  SeqGraph& g = d.graph(gid);
  const OpId a = g.add_op(make_alu(AluOp::kAdd, "a"));
  const OpId b = g.add_op(make_alu(AluOp::kSub, "b"));
  g.add_dependency(a, b);
  g.add_constraint(TimingConstraint{a, b, 2, /*is_min=*/true});
  g.add_constraint(TimingConstraint{a, b, 5, /*is_min=*/false});
  const auto cgx = to_constraint_graph(g);
  EXPECT_EQ(cgx.backward_edge_count(), 1);
  int min_edges = 0;
  for (const auto& e : cgx.edges()) {
    if (e.kind == cg::EdgeKind::kMinConstraint) {
      ++min_edges;
      EXPECT_EQ(e.fixed_weight, 2);
    }
    if (e.kind == cg::EdgeKind::kMaxConstraint) {
      EXPECT_EQ(e.fixed_weight, -5);
    }
  }
  EXPECT_EQ(min_edges, 1);
}

TEST(ToConstraintGraph, UnboundedOpsBecomeAnchors) {
  Design d("d");
  const SeqGraphId gid = d.add_graph("g");
  SeqGraph& g = d.graph(gid);
  SeqOp wait;
  wait.kind = OpKind::kWait;
  wait.name = "wait";
  wait.delay = cg::Delay::unbounded();
  const OpId w = g.add_op(std::move(wait));
  const auto cgx = to_constraint_graph(g);
  EXPECT_TRUE(cgx.is_anchor(VertexId(w.value())));
  EXPECT_EQ(cgx.anchors().size(), 2u);  // source + wait
}

}  // namespace
}  // namespace relsched::seq
