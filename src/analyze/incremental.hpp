// Live slack report on top of engine::SynthesisSession.
//
// A slack record is a static read of the anchor analysis (Theorem 3):
// a few anchor-row lookups per constraint. Once the engine has cached
// that analysis, a fresh analyze() on it is cheap enough that carrying
// records over from the previous report does not pay for its own
// bookkeeping (docs/algorithms.md §Live re-analysis has the
// measurements), so reanalyze() simply resolves and re-runs the full
// pass on the engine's products, skipping it only when nothing was
// resolved since the cached report.
#pragma once

#include <cstdint>

#include "analyze/analyze.hpp"
#include "engine/session.hpp"

namespace relsched::analyze {

class IncrementalAnalyzer {
 public:
  IncrementalAnalyzer() = default;

  /// Resolves the session (if needed) and returns the slack report for
  /// its current graph, computed on the engine's cached anchor
  /// analysis. The reference stays valid until the next reanalyze().
  const Report& reanalyze(engine::SynthesisSession& session) {
    const engine::Products& products = session.resolve();
    const long long resolves = session.resolve_count();
    if (valid_ && products.revision == revision_ && resolves == resolves_) {
      return report_;  // no resolve since the cached report: still current
    }
    ++full_analyses_;
    report_ = analyze(session.graph(),
                      products.ok() ? &products.analysis : nullptr);
    revision_ = products.revision;
    resolves_ = resolves;
    valid_ = true;
    return report_;
  }

  /// How often reanalyze() ran the full pass.
  [[nodiscard]] int full_analyses() const { return full_analyses_; }
  /// Always 0: no report is carried over from a previous one. Kept
  /// only because the benchmark harness (perfbench/) still reads it.
  [[nodiscard]] int cone_analyses() const { return 0; }

 private:
  Report report_;
  /// Graph revision + resolve count the cached report was built at.
  std::uint64_t revision_ = 0;
  long long resolves_ = 0;
  bool valid_ = false;
  int full_analyses_ = 0;
};

}  // namespace relsched::analyze
