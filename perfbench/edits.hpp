// The generated designs and the constraint-edit stream shared by
// edit_stream and serve_edits.
//
// Every state the stream reaches is feasible and well-posed. Relative to
// the generated design an edit only
//   - loosens a max bound by one cycle, or restores it,
//   - shortens a bounded delay by one cycle, or restores it, or
//   - flips one anchor to a bounded delay of one cycle; the next edit
//     restores it (each flip is validated on the design before the
//     stream starts).
// The targets are all of the design's bounds and delays, so the seed
// draws the sequence, not a sample of targets whose cost would differ
// from one seed to the next.
// Loosening a bound or shortening a delay only lowers edge weights and
// leaves every anchor set alone, so neither can create a positive cycle
// or break well-posedness on top of a validated state.
#pragma once

#include <cstdint>
#include <deque>
#include <random>
#include <vector>

#include "cg/constraint_graph.hpp"
#include "engine/session.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

/// Anchors per generated design (bench_scale's shape holds the expected
/// count near 32 at every size).
inline constexpr int kDesignAnchors = 32;

/// Seeds the generator seeds of the designs. The designs are fixed parts
/// of a workload, like hls_suite's eight; --seed draws the edit stream
/// over them. A design drawn per --seed moved op_p50_ms by +-15% from
/// one seed to the next (see README.md), more than any bound could hold.
inline constexpr std::uint64_t kDesignSeed = 0x5eed'0f'de5194;

/// A generated design of `vertices` vertices in bench_scale's shape with
/// exactly kDesignAnchors anchors: generator seeds are drawn from `rng`
/// until one gives that count. The count decides the size of the
/// per-anchor rows every layer works on, so fixing it keeps the cost of
/// one seed's design close to another's.
[[nodiscard]] relsched::cg::ConstraintGraph generate_design(
    int vertices, std::mt19937_64& rng, const char* name);

struct Edit {
  enum class Kind : std::uint8_t { kBound, kDelay, kFlip };
  Kind kind = Kind::kBound;
  /// Edge id (kBound) or vertex id (kDelay, kFlip).
  int id = 0;
  /// New bound or delay in cycles; -1 = unbounded (kFlip restore).
  int cycles = 0;
};

struct EditTargets {
  /// Every max constraint, with its bound in the design.
  std::vector<relsched::EdgeId> bounds;
  std::vector<int> base_bound;
  /// Every vertex with a bounded delay of at least one cycle.
  std::vector<relsched::VertexId> delays;
  std::vector<int> base_delay;
  /// Anchors whose flip to a bounded delay keeps the design schedulable.
  std::vector<relsched::VertexId> flips;
};

/// Every max constraint and bounded delay of `g` as edit targets, and up
/// to `want_flips` validated anchor flips (one cold resolve each).
[[nodiscard]] EditTargets pick_targets(const relsched::cg::ConstraintGraph& g,
                                       int want_flips);

/// Seeded stream over `targets`. The last two of every `flip_every`
/// edits flip an anchor and restore it. The others alternate, once
/// kOutstanding edits are out, between moving a fresh target (a bound or
/// a delay at even odds, the target uniform) and restoring the oldest
/// moved one, so the cost of an edit does not drift over a run.
class EditStream {
 public:
  EditStream(const EditTargets& targets, std::uint64_t seed, int flip_every);
  [[nodiscard]] Edit next();

 private:
  const EditTargets* targets_;
  std::mt19937_64 rng_;
  int flip_every_;
  static constexpr std::size_t kOutstanding = 16;
  struct Pending {
    Edit restore;
    std::size_t slot;  // index into bound_moved_ / delay_moved_
  };
  std::vector<bool> bound_moved_;
  std::vector<bool> delay_moved_;
  std::deque<Pending> outstanding_;
  long long emitted_ = 0;
  int flipped_ = -1;
  std::size_t next_flip_ = 0;
};

void apply(relsched::engine::SynthesisSession& session, const Edit& edit);

/// The edit as one element of a relsched_serve "edit" request's array.
[[nodiscard]] relsched::serve::Json to_request(const Edit& edit);

}  // namespace perfbench
