#include "edits.hpp"

#include <algorithm>
#include <stdexcept>

#include "designs/generator.hpp"

namespace perfbench {

using namespace relsched;

cg::ConstraintGraph generate_design(int vertices, std::mt19937_64& rng,
                                    const char* name) {
  designs::GeneratorParams p;
  p.vertices = vertices;
  p.anchor_density = 320000 / vertices;
  p.name = name;
  for (int attempt = 0; attempt < 10000; ++attempt) {
    p.seed = rng();
    cg::ConstraintGraph g = designs::generate(p);
    const auto anchors = std::count_if(
        g.vertices().begin(), g.vertices().end(),
        [](const cg::Vertex& v) { return v.delay.is_unbounded(); });
    if (anchors == kDesignAnchors) return g;
  }
  throw std::runtime_error("no generated design with the anchor count");
}

EditTargets pick_targets(const cg::ConstraintGraph& g, int want_flips) {
  EditTargets t;
  for (const cg::Edge& e : g.edges()) {
    if (e.kind != cg::EdgeKind::kMaxConstraint) continue;
    t.bounds.push_back(e.id);
    t.base_bound.push_back(-e.fixed_weight);
  }
  std::vector<VertexId> anchors;
  for (const cg::Vertex& v : g.vertices()) {
    if (v.id == g.source() || v.id == g.sink()) continue;
    if (v.delay.is_unbounded()) {
      anchors.push_back(v.id);
    } else if (v.delay.cycles() >= 1) {
      t.delays.push_back(v.id);
      t.base_delay.push_back(v.delay.cycles());
    }
  }
  // Flip candidates spread over the anchors in id order (upstream and
  // downstream ones), tried until `want_flips` keep the design feasible.
  const int n = static_cast<int>(anchors.size());
  const int stride = std::max(1, n / std::max(1, want_flips));
  for (int k = 0; k < n && static_cast<int>(t.flips.size()) < want_flips;
       ++k) {
    const VertexId a = anchors[static_cast<std::size_t>(
        ((k % want_flips) * stride + k / want_flips) % n)];
    cg::ConstraintGraph flipped = g;
    flipped.set_delay(a, cg::Delay::bounded(1));
    engine::SynthesisSession probe(std::move(flipped));
    if (probe.resolve().ok()) t.flips.push_back(a);
  }
  return t;
}

EditStream::EditStream(const EditTargets& targets, std::uint64_t seed,
                       int flip_every)
    : targets_(&targets),
      rng_(seed),
      flip_every_(targets.flips.empty() ? 0 : flip_every),
      bound_moved_(targets.bounds.size(), false),
      delay_moved_(targets.delays.size(), false) {}

Edit EditStream::next() {
  const EditTargets& t = *targets_;
  const long long index = emitted_++;
  // The last two edits of every `flip_every` flip an anchor and restore
  // it: a fixed share, evenly spaced, and every other edit runs on the
  // design's own anchor set.
  if (flip_every_ > 0 && index % flip_every_ == flip_every_ - 2) {
    flipped_ = t.flips[next_flip_++ % t.flips.size()].value();
    return {Edit::Kind::kFlip, flipped_, 1};
  }
  if (flip_every_ > 0 && index % flip_every_ == flip_every_ - 1) {
    return {Edit::Kind::kFlip, flipped_, -1};
  }
  // Restores run first-in first-out once kOutstanding edits are out, so
  // the graph never drifts further than that from the design.
  if (outstanding_.size() >= kOutstanding) {
    const Pending p = outstanding_.front();
    outstanding_.pop_front();
    (p.restore.kind == Edit::Kind::kBound ? bound_moved_ : delay_moved_)
        [p.slot] = false;
    return p.restore;
  }
  while (true) {
    const bool bound =
        t.delays.empty() || (!t.bounds.empty() && rng_() % 2 == 0);
    std::vector<bool>& moved = bound ? bound_moved_ : delay_moved_;
    const std::size_t i = rng_() % moved.size();
    if (moved[i]) continue;
    moved[i] = true;
    if (bound) {
      const int edge = t.bounds[i].value();
      outstanding_.push_back({{Edit::Kind::kBound, edge, t.base_bound[i]}, i});
      return {Edit::Kind::kBound, edge, t.base_bound[i] + 1};
    }
    const int vertex = t.delays[i].value();
    outstanding_.push_back({{Edit::Kind::kDelay, vertex, t.base_delay[i]}, i});
    return {Edit::Kind::kDelay, vertex, t.base_delay[i] - 1};
  }
}

void apply(engine::SynthesisSession& session, const Edit& edit) {
  switch (edit.kind) {
    case Edit::Kind::kBound:
      session.set_constraint_bound(EdgeId(edit.id), edit.cycles);
      break;
    case Edit::Kind::kDelay:
    case Edit::Kind::kFlip:
      session.set_delay(VertexId(edit.id),
                        edit.cycles < 0 ? cg::Delay::unbounded()
                                        : cg::Delay::bounded(edit.cycles));
      break;
  }
}

serve::Json to_request(const Edit& edit) {
  serve::Json j = serve::Json::object();
  if (edit.kind == Edit::Kind::kBound) {
    j.set("kind", serve::Json::string("set_bound"));
    j.set("edge", serve::Json::number(static_cast<long long>(edit.id)));
  } else {
    j.set("kind", serve::Json::string("set_delay"));
    j.set("vertex", serve::Json::number(static_cast<long long>(edit.id)));
  }
  j.set("cycles", serve::Json::number(static_cast<long long>(edit.cycles)));
  return j;
}

}  // namespace perfbench
