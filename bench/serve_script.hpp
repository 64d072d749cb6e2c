// The deterministic workload both relsched_serve chaos benches
// (bench_serve, bench_repl) drive: seeded designs, one scripted edit
// per (session, step), the "edit" request that carries it, and the
// serial oracle's digest after every step.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "designs/generator.hpp"
#include "engine/session.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace relsched::benchio {

inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One bench's script: `salt` seeds its edit stream, the rest shape its
/// generated designs (session s has base_vertices + (s % vertex_steps)
/// * vertex_step vertices, or small_vertices in a small run).
struct ServeScript {
  std::uint64_t salt;
  std::uint64_t design_seed;
  int small_vertices;
  int base_vertices;
  int vertex_steps;
  int vertex_step;
  int max_anchors;
  const char* name;

  /// One scripted edit, drawn deterministically from (session, step).
  [[nodiscard]] engine::Edit edit(int session, int step, int vertices) const {
    const std::uint64_t r =
        mix64((static_cast<std::uint64_t>(session) << 20) ^
              static_cast<std::uint64_t>(step) ^ salt);
    // Interior vertices only: the source/sink keep their roles.
    const int span = vertices - 2;
    int from =
        1 + static_cast<int>((r >> 8) % static_cast<std::uint64_t>(span));
    int to = 1 + static_cast<int>((r >> 24) % static_cast<std::uint64_t>(span));
    if (from == to) to = from == span ? 1 : from + 1;
    if (from > to) std::swap(from, to);
    const auto draw = static_cast<std::int64_t>(r >> 40);
    switch (r % 5) {
      case 0:
      case 1:
      case 2:
        return engine::Edit::add_min(VertexId(from), VertexId(to),
                                     1 + draw % 6);
      case 3:
        // Generous bound: usually feasible; when not, infeasible is a
        // valid, digest-covered outcome the oracle reproduces too.
        return engine::Edit::add_max(VertexId(from), VertexId(to),
                                     4000 + draw % 512);
      default:
        return engine::Edit::set_delay(
            VertexId(from), cg::Delay::bounded(static_cast<int>(draw % 7)));
    }
  }

  [[nodiscard]] cg::ConstraintGraph design(int session, bool small) const {
    designs::GeneratorParams params;
    params.seed = design_seed + static_cast<std::uint64_t>(session);
    params.vertices = small ? small_vertices
                            : base_vertices +
                                  (session % vertex_steps) * vertex_step;
    params.width = 3 + session % 3;
    params.anchor_density = 250;
    params.max_anchors = max_anchors;
    params.min_density = 1800;
    params.max_density = 900;
    params.max_delay = 6;
    params.name = name;
    return designs::generate(params);
  }

  /// Serial oracle: digest after each script step, computed on a local
  /// session with no server, no faults, no concurrency.
  [[nodiscard]] std::vector<std::string> oracle_digests(
      const cg::ConstraintGraph& g, int session, int steps) const {
    engine::SessionOptions options;
    options.certify = false;
    engine::SynthesisSession s(g, options);
    const int vertices = g.vertex_count();
    std::vector<std::string> digests;
    digests.reserve(static_cast<std::size_t>(steps));
    for (int j = 0; j < steps; ++j) {
      s.apply(edit(session, j, vertices));
      digests.push_back(serve::hex16(serve::products_digest(s.resolve())));
    }
    return digests;
  }
};

/// The one-edit "edit" request that carries `e` to session `sid`.
inline serve::Json edit_request(const std::string& sid, const engine::Edit& e) {
  using serve::Json;
  Json request = Json::object();
  request.set("op", Json::string("edit"));
  request.set("session", Json::string(sid));
  Json edits = Json::array();
  edits.push(serve::edit_json(e));
  request.set("edits", std::move(edits));
  return request;
}

}  // namespace relsched::benchio
