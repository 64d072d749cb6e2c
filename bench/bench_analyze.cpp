// E15: the static slack / criticality analyzer at scale -- cost and
// extraction-quality gates on generated 10^4 / 10^5-vertex designs.
//
// Corpus: wide-shallow generated designs (width 1: every vertex forks
// off an earlier one) with few anchors and sparse max constraints, so
// criticality is *localized* -- the regime the extractor exists for.
// Deep chain-shaped corpora put nearly every vertex on a defining
// path, and the certified extraction honestly returns most of the
// design; that shape is reported by scripts/analyze_designs.sh, not
// gated here.
//
// Per size:
//   cold      - a fresh SynthesisSession::resolve() (the fixpoint the
//               analyzer must undercut);
//   analyze   - analyze::analyze() on the cached products;
//   extract   - extract_critical() + its built-in certification;
//   warm      - a >= 60-edit bound-tweak sequence, every edit
//               re-analyzed through IncrementalAnalyzer (resolve, then
//               the full pass on the engine's cached anchor analysis)
//               and required to match a fresh analyze() JSON-identically.
//
// Gates (hard, exit nonzero):
//   cost      - median analyze <= 15% of median cold resolve;
//   size      - extracted subgraph <= 10% of the design's vertices;
//   certified - every extraction certifies (schedule reproduced
//               bit-for-bit on mapped vertices);
//   identity  - incremental == fresh on every warm step.
//
// Emits BENCH_analyze.json (committed CI artifact).
//
// Flags:
//   --vertices N   run one size instead of the 10^4/10^5 ladder
//   --edits N      warm-sequence length (default 60)
//   --seed N       generator seed (default 7)
//   --check-only   sanitizer-CI mode: 10^4 only, short warm sequence,
//                  all hard gates, no timing gate, no JSON
//   --out FILE     JSON path (default BENCH_analyze.json)
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "analyze/incremental.hpp"
#include "bench_json.hpp"
#include "designs/generator.hpp"
#include "engine/session.hpp"

using namespace relsched;

namespace {

using Clock = std::chrono::steady_clock;
using benchio::median_us;

constexpr double kMaxAnalyzeCostRatio = 0.15;
constexpr double kMaxSubgraphRatio = 0.10;
constexpr int kColdRepeats = 5;
constexpr int kAnalyzeRepeats = 9;

template <typename Fn>
double timed_us(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

designs::GeneratorParams corpus_params(int vertices, std::uint64_t seed) {
  designs::GeneratorParams params;
  params.seed = seed;
  params.vertices = vertices;
  params.width = 1;        // maximally wide: depth ~ log, not ~ n
  params.max_anchors = 4;  // localized criticality
  params.min_density = 500;
  params.max_density = 50;
  params.name = "analyze_corpus";
  return params;
}

struct Row {
  int vertices = 0;
  int edges = 0;
  int constraints = 0;
  int binding = 0;
  double cold_us = 0.0;
  double analyze_us = 0.0;
  double extract_us = 0.0;
  double warm_reanalyze_us = 0.0;
  int sub_vertices = 0;
  int sub_edges = 0;
  int warm_edits = 0;

  [[nodiscard]] double cost_ratio() const {
    return cold_us > 0.0 ? analyze_us / cold_us : 0.0;
  }
  [[nodiscard]] double subgraph_ratio() const {
    return vertices > 0 ? static_cast<double>(sub_vertices) / vertices : 0.0;
  }
};

/// Runs one size. Returns false on any hard-gate failure (after
/// printing it); timing gates are evaluated by the caller so
/// --check-only can skip them under sanitizers.
bool run_size(int vertices, std::uint64_t seed, int edits, bool check_only,
              Row& row) {
  const cg::ConstraintGraph g = designs::generate(corpus_params(vertices, seed));
  row.vertices = g.vertex_count();
  row.edges = g.edge_count();

  // Cold resolve: the fixpoint cost the static analysis must undercut.
  std::vector<double> cold_samples;
  for (int i = 0; i < (check_only ? 1 : kColdRepeats); ++i) {
    cg::ConstraintGraph copy = g;
    engine::SynthesisSession session(std::move(copy));
    cold_samples.push_back(timed_us([&] { (void)session.resolve(); }));
  }
  row.cold_us = median_us(cold_samples);

  engine::SynthesisSession session{cg::ConstraintGraph(g)};
  const engine::Products& products = session.resolve();
  if (!products.ok()) {
    std::cerr << "corpus design failed to resolve\n";
    return false;
  }

  analyze::Report report;
  std::vector<double> analyze_samples;
  for (int i = 0; i < (check_only ? 1 : kAnalyzeRepeats); ++i) {
    analyze_samples.push_back(timed_us(
        [&] { report = analyze::analyze(session.graph(), &products.analysis); }));
  }
  row.analyze_us = median_us(analyze_samples);
  if (!report.ok()) {
    std::cerr << "analyze returned " << analyze::to_string(report.status)
              << " on a resolved design\n";
    return false;
  }
  row.constraints = static_cast<int>(report.slacks.size());
  row.binding = report.binding_count();

  analyze::Extraction extraction;
  row.extract_us = timed_us([&] {
    extraction =
        analyze::extract_critical(session.graph(), report, &products.analysis);
  });
  if (!extraction.certified) {
    std::cerr << "extraction failed certification: "
              << extraction.certification_error << "\n";
    return false;
  }
  row.sub_vertices = extraction.subgraph.vertex_count();
  row.sub_edges = extraction.subgraph.edge_count();

  // Warm sequence: loosen/restore constraint bounds across the design;
  // every step's incremental report must match a fresh analyze().
  std::vector<EdgeId> constraints;
  for (const cg::Edge& e : session.graph().edges()) {
    if (e.kind != cg::EdgeKind::kSequencing) constraints.push_back(e.id);
  }
  analyze::IncrementalAnalyzer analyzer;
  (void)analyzer.reanalyze(session);
  std::vector<double> warm_samples;
  const int steps = check_only ? std::min(edits, 10) : edits;
  for (int i = 0; i < steps && !constraints.empty(); ++i) {
    const cg::Edge& e =
        session.graph().edge(constraints[(i * 7919) % constraints.size()]);
    const int bound =
        e.kind == cg::EdgeKind::kMinConstraint ? e.fixed_weight : -e.fixed_weight;
    session.set_constraint_bound(e.id,
                                 i % 2 == 0 ? bound + 1 : std::max(0, bound - 1));
    const analyze::Report* incremental = nullptr;
    warm_samples.push_back(
        timed_us([&] { incremental = &analyzer.reanalyze(session); }));
    const analyze::Report fresh = analyze::analyze(
        session.graph(), session.products().ok() ? &session.products().analysis
                                                 : nullptr);
    if (analyze::to_json(*incremental, session.graph()) !=
        analyze::to_json(fresh, session.graph())) {
      std::cerr << "incremental reanalyze diverged from fresh analyze at "
                   "step "
                << i << "\n";
      return false;
    }
    ++row.warm_edits;
  }
  row.warm_reanalyze_us = median_us(warm_samples);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 7;
  int edits = 60;
  int single_size = 0;
  bool check_only = false;
  std::string out_path = "BENCH_analyze.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--vertices" && i + 1 < argc) {
      single_size = std::atoi(argv[++i]);
    } else if (arg == "--edits" && i + 1 < argc) {
      edits = std::atoi(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--check-only") {
      check_only = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_analyze [--vertices N] [--edits N] "
                   "[--seed N] [--check-only] [--out FILE]\n";
      return EXIT_FAILURE;
    }
  }

  std::vector<int> sizes;
  if (single_size > 0) {
    sizes.push_back(single_size);
  } else if (check_only) {
    sizes.push_back(10000);
  } else {
    sizes = {10000, 100000};
  }

  std::vector<Row> rows;
  for (const int size : sizes) {
    Row row;
    if (!run_size(size, seed, edits, check_only, row)) return EXIT_FAILURE;
    rows.push_back(row);
    std::cout << "vertices " << row.vertices << ": cold "
              << row.cold_us / 1000.0 << " ms, analyze "
              << row.analyze_us / 1000.0 << " ms ("
              << row.cost_ratio() * 100.0 << "% of cold), extract+certify "
              << row.extract_us / 1000.0 << " ms, subgraph "
              << row.sub_vertices << "/" << row.vertices << " ("
              << row.subgraph_ratio() * 100.0 << "%), " << row.constraints
              << " constraints (" << row.binding << " binding), warm "
              << "reanalyze " << row.warm_reanalyze_us / 1000.0 << " ms over "
              << row.warm_edits << " edits\n";
  }

  // Hard gates. Certification and incremental identity were enforced
  // inside run_size; cost and size gates are timing/shape and are
  // skipped under --check-only (sanitizer timings are meaningless,
  // the shape is checked there too).
  bool ok = true;
  for (const Row& row : rows) {
    const bool size_holds = row.subgraph_ratio() <= kMaxSubgraphRatio;
    std::cout << "required: subgraph <= " << kMaxSubgraphRatio * 100.0
              << "% of " << row.vertices
              << " vertices: " << (size_holds ? "HOLDS" : "FAILS") << "\n";
    ok = ok && size_holds;
    if (check_only) continue;
    const bool cost_holds = row.cost_ratio() <= kMaxAnalyzeCostRatio;
    std::cout << "required: analyze <= " << kMaxAnalyzeCostRatio * 100.0
              << "% of cold resolve at " << row.vertices
              << " vertices: " << (cost_holds ? "HOLDS" : "FAILS") << "\n";
    ok = ok && cost_holds;
  }
  std::cout << "required: every extraction certified: HOLDS\n";
  std::cout << "required: incremental == fresh on every warm step: HOLDS\n";

  if (!check_only) {
    benchio::Json sizes_json = benchio::Json::array();
    for (const Row& row : rows) {
      sizes_json.element(benchio::Json::object()
                             .field("vertices", row.vertices)
                             .field("edges", row.edges)
                             .field("constraints", row.constraints)
                             .field("binding", row.binding)
                             .field("cold_us", row.cold_us)
                             .field("analyze_us", row.analyze_us)
                             .field("analyze_cost_ratio", row.cost_ratio())
                             .field("extract_us", row.extract_us)
                             .field("subgraph_vertices", row.sub_vertices)
                             .field("subgraph_edges", row.sub_edges)
                             .field("subgraph_ratio", row.subgraph_ratio())
                             .field("warm_reanalyze_us", row.warm_reanalyze_us)
                             .field("warm_edits", row.warm_edits));
    }
    benchio::Json::object()
        .field("bench", "analyze")
        .field("seed", static_cast<long long>(seed))
        .field("max_analyze_cost_ratio", kMaxAnalyzeCostRatio)
        .field("max_subgraph_ratio", kMaxSubgraphRatio)
        .field("certified", true)
        .field("incremental_identity", true)
        .field("sizes", sizes_json)
        .write(out_path);
    std::cout << "wrote " << out_path << "\n";
  }
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
