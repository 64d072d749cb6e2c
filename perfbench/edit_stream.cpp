// edit_stream: one generated design of 2x10^4 vertices (about 32 anchors)
// edited by one client in a closed loop.
//
//   op     one edit from the shared edit stream (perfbench/edits.hpp)
//          followed by SynthesisSession::resolve(). 98% are constraint
//          edits served by the warm path; 2% are anchor flips, which
//          force a cold resolve, so op_p99_ms lies in the flip
//          distribution.
//   query  IncrementalAnalyzer::reanalyze after every op: the live slack
//          panel.
//
// Most of the time goes to the warm engine path (topo, SPFA, anchor
// patch, reschedule) and the analyzer riding it; the memory-bound cold
// path is a 2% minority whose tail is measured on purpose.
#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <string>

#include "analyze/analyze.hpp"
#include "analyze/incremental.hpp"
#include "base/thread_pool.hpp"
#include "certify/certify.hpp"
#include "cg/graph_io.hpp"
#include "common.hpp"
#include "edits.hpp"
#include "engine/session.hpp"
#include "persist/snapshot.hpp"

namespace perfbench {
namespace {

using namespace relsched;

constexpr int kVertices = 20000;
/// 2 of every 100 edits are an anchor flip and its restore.
constexpr int kFlipEvery = 100;

/// Serialized anchor analysis, schedule status and offsets: equal bytes
/// mean bit-identical products. Left out are the path's history -- the
/// analysis record's leading i32 count of rows the last update
/// recomputed, and the scheduler's iteration count and trace, which a
/// warm start legitimately shortens.
std::string product_bytes(const engine::Products& p) {
  persist::Writer analysis;
  persist::save_analysis(analysis, p.analysis);
  persist::Writer schedule;
  schedule.u8(static_cast<std::uint8_t>(p.schedule.status));
  persist::save_schedule(schedule, p.schedule.schedule);
  return analysis.buffer().substr(4) + schedule.buffer();
}

}  // namespace

Result run_edit_stream(const Config& config) {
  Result result;
  result.pool_threads = base::shared_pool()->thread_count();

  // Inputs, before any clock: the design text and the edit stream.
  std::mt19937_64 design_rng(kDesignSeed);
  const cg::ConstraintGraph design =
      generate_design(kVertices, design_rng, "edit_stream");
  std::mt19937_64 rng(config.seed);
  const std::string text = cg::to_text(design);
  const EditTargets targets = pick_targets(design, 4);
  if (targets.flips.empty() || targets.bounds.empty()) {
    result.fail_gate("generated design offers no flip or bound targets");
    return result;
  }
  EditStream stream(targets, rng(), kFlipEvery);
  std::vector<Edit> edits(200000);
  for (Edit& e : edits) e = stream.next();

  Tracer tracer(config.trace, 1);
  Tracer off(false, 0);

  // Set-up, repeated: parse the design text, resolve cold, run the first
  // full slack analysis. The last repetition before the measured phase
  // leaves the session that is edited; the rest run after the gates.
  Samples setup_us;
  std::optional<engine::SynthesisSession> session;
  std::optional<analyze::IncrementalAnalyzer> analyzer;
  auto set_up = [&](Tracer& t, long long op) {
    session.reset();
    analyzer.reset();
    t.set_op(op);
    const Clock::time_point start = Clock::now();
    cg::ParseResult parsed;
    {
      Tracer::Scope s(t, "cg.parse");
      parsed = cg::from_text(text);
    }
    if (!parsed.ok()) {
      result.fail_gate("design text does not parse: " + parsed.error);
      return false;
    }
    session.emplace(std::move(*parsed.graph));
    {
      Tracer::Scope s(t, "engine.cold_resolve");
      if (!session->resolve().ok()) {
        result.fail_gate("cold resolve of the design failed");
        return false;
      }
    }
    analyzer.emplace();
    {
      Tracer::Scope s(t, "analyze.full");
      if (!analyzer->reanalyze(*session).ok()) {
        result.fail_gate("slack analysis of the design failed");
        return false;
      }
    }
    setup_us.add(us_since(start));
    return true;
  };
  for (int rep = 0; rep < kSetupsBefore; ++rep) {
    if (!set_up(tracer, Tracer::kSetupOp - rep)) return result;
  }

  std::size_t next = 0;
  long long flips = 0;
  double peak_rss = 0;
  Samples dirty_cone;
  auto phase = [&](Tracer& t, Samples* op_ms, Samples* query_ms) {
    long long ops = 0;
    std::vector<double> done_s;
    const Clock::time_point start = Clock::now();
    const double budget_us = config.seconds * 1e6;
    while (us_since(start) < budget_us && next < edits.size()) {
      const Edit& edit = edits[next++];
      t.set_op(ops);
      const Clock::time_point op_start = Clock::now();
      bool ok = false;
      {
        Tracer::Scope op(t, "es.op");
        apply(*session, edit);
        Tracer::Scope resolve(t, "engine.warm_resolve");
        ok = session->resolve().ok();
        if (!session->last_resolve_was_warm()) resolve.rename("engine.cold_resolve");
      }
      const Clock::time_point op_end = Clock::now();
      bool query_ok = false;
      {
        Tracer::Scope q(t, "analyze.reanalyze");
        query_ok = analyzer->reanalyze(*session).ok();
      }
      const Clock::time_point query_end = Clock::now();
      result.attempted += 2;
      if (!ok || !query_ok) {
        result.failed += (ok ? 0 : 1) + (query_ok ? 0 : 1);
        result.fail_gate("op " + std::to_string(next - 1) +
                         (ok ? ": slack analysis failed" : ": resolve failed"));
        break;
      }
      if (edit.kind == Edit::Kind::kFlip) ++flips;
      ++ops;
      done_s.push_back(us_since(start, query_end) / 1e6);
      if (op_ms != nullptr) op_ms->add(us_since(op_start, op_end) / 1e3);
      if (query_ms != nullptr) query_ms->add(us_since(op_end, query_end) / 1e3);
      if (ops == kRssAfterOps && op_ms != nullptr) {
        peak_rss = peak_rss_mb_self();
      }
      if (t.enabled() && session->last_resolve_was_warm()) {
        dirty_cone.add(session->stats().last_affected_vertices);
      }
    }
    return median_window_rate(done_s, us_since(start) / 1e6);
  };

  Samples op_ms, query_ms;
  const double ops_per_s = phase(off, &op_ms, &query_ms);
  if (peak_rss == 0) peak_rss = peak_rss_mb_self();
  report_loop(result, op_ms, query_ms, ops_per_s);

  if (config.trace) {
    // The anchor analysis of the current design, sequential and on the
    // process-wide pool, outside any op.
    for (int rep = 0; rep < 3; ++rep) {
      tracer.set_op(Tracer::kSetupOp - kSetupsBefore - rep);
      {
        Tracer::Scope s(tracer, "anchors.compute_seq");
        (void)anchors::AnchorAnalysis::compute(session->graph(), nullptr);
      }
      {
        Tracer::Scope s(tracer, "anchors.compute_pool");
        (void)anchors::AnchorAnalysis::compute(session->graph(),
                                               base::shared_pool().get());
      }
    }
    const engine::SessionStats before = session->stats();
    const int full_before = analyzer->full_analyses();
    const int cone_before = analyzer->cone_analyses();
    const double traced_ops_per_s = phase(tracer, nullptr, nullptr);
    const engine::SessionStats after = session->stats();

    const SelfTimes self({&tracer});
    std::map<std::string, double> v;
    v["cg.parse_us"] = self.per_op_us("cg.parse");
    v["analyze.full_us"] = self.per_op_us("analyze.full");
    v["engine.cold_resolve_us"] = self.per_op_us("engine.cold_resolve");
    v["engine.warm_resolve_us"] = self.p50_us("engine.warm_resolve");
    const double warm = std::max(1, after.warm_resolves - before.warm_resolves);
    v["engine.topo_us"] = (after.warm_topo_us - before.warm_topo_us) / warm;
    v["wellposed.spfa_us"] = (after.warm_spfa_us - before.warm_spfa_us) / warm;
    v["anchors.patch_us"] = (after.warm_anchor_us - before.warm_anchor_us) / warm;
    v["sched.resched_us"] =
        (after.warm_resched_us - before.warm_resched_us) / warm;
    v["engine.dirty_cone_vertices"] = dirty_cone.mean();
    const double cold_rows = static_cast<double>(
        after.anchor_rows_cold_equivalent - before.anchor_rows_cold_equivalent);
    v["anchors.rows_recomputed_ratio"] =
        cold_rows > 0 ? static_cast<double>(after.anchor_rows_recomputed -
                                            before.anchor_rows_recomputed) /
                            cold_rows
                      : 0;
    v["engine.cold_resolves"] = after.cold_resolves;
    v["engine.flips"] = static_cast<double>(flips);
    v["anchors.compute_seq_us"] = self.per_op_us("anchors.compute_seq");
    v["anchors.compute_pool_us"] = self.per_op_us("anchors.compute_pool");
    v["analyze.reanalyze_us"] = self.per_op_us("analyze.reanalyze");
    const int full = analyzer->full_analyses() - full_before;
    const int cone = analyzer->cone_analyses() - cone_before;
    v["analyze.cone_share"] =
        full + cone > 0 ? static_cast<double>(cone) / (full + cone) : 0;
    v["trace.overhead_pct"] = (ops_per_s / traced_ops_per_s - 1.0) * 100.0;
    emit_per_layer(result, v);
    if (!write_chrome_trace(config.trace_path, {&tracer})) {
      result.fail_gate("cannot write trace file " + config.trace_path);
    }
  }

  // Every cold resolve of the edited session is its first one or a flip;
  // any other is a fallback from the warm path.
  const int cold = session->stats().cold_resolves;
  result.info.emplace_back("cold_resolves", std::to_string(cold));
  result.info.emplace_back("flips", std::to_string(flips));
  if (cold != 1 + flips) {
    result.info.emplace_back("warm_fallbacks", std::to_string(cold - 1 - flips));
  }

  // Gates: the warm products equal a cold recompute of the edited graph
  // bit for bit, pass the independent certificate, and the live slack
  // panel equals a fresh analysis.
  {
    const engine::Products& warm = session->products();
    engine::SynthesisSession cold_session(session->graph());
    const engine::Products& fresh = cold_session.resolve();
    if (!fresh.ok() || product_bytes(warm) != product_bytes(fresh)) {
      result.fail_gate("warm products differ from a cold recompute");
    }
    const certify::Diag diag = certify::check_products(
        session->graph(), warm.analysis, warm.schedule.schedule);
    if (!diag.ok()) result.fail_gate("certificate failed: " + diag.message);
    if (session->stats().certificate_failures != 0) {
      result.fail_gate("session recorded certificate failures");
    }
    const analyze::Report fresh_report =
        analyze::analyze(cold_session.graph(), &fresh.analysis);
    if (analyze::to_json(analyzer->reanalyze(*session), session->graph()) !=
        analyze::to_json(fresh_report, cold_session.graph())) {
      result.fail_gate("incremental slack report differs from a fresh analysis");
    }
  }

  for (int rep = 0; rep < kSetupsAfter; ++rep) {
    if (!set_up(off, Tracer::kSetupOp)) return result;
  }
  result.e2e("setup_s", setup_us.median() / 1e6, "s",
             static_cast<long long>(setup_us.count()));
  result.e2e("peak_rss_mb", peak_rss, "MB");
  return result;
}

}  // namespace perfbench
