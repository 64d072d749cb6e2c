// hls_suite: the paper's eight HardwareC designs, compiled one at a time
// in a closed loop on one thread.
//
//   op     hdl::compile -> driver::synthesize -> generate_design_control
//          + generate_datapath -> Verilog text
//   query  lint::analyze + analyze::analyze + both to_json, on every
//          constraint graph the op produced
//
// Every graph has at most a few dozen vertices, so the working set is
// cache-resident and the loop is steady; the time goes to the frontend,
// binding, control and rendering layers, and the engine runs many tiny
// cold resolves. The seed only orders the designs.
//
// The engine's in-resolve pool is pinned to one worker here
// (RELSCHED_THREADS=1, sequential). With the default width, every one of
// these tiny resolves wakes the pool's workers, and on a shared 4-core
// VM the wake-up latency -- not the code -- set op_p50_ms anywhere from
// 1.6 to 5.6 ms between back-to-back runs (0.69-0.75 ms pinned). The
// pool's cost on these graphs is still measured, from outside, by the
// traced run's anchors.compute_pool_us against anchors.compute_seq_us.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "anchors/anchor_analysis.hpp"
#include "analyze/analyze.hpp"
#include "base/thread_pool.hpp"
#include "certify/certify.hpp"
#include "common.hpp"
#include "ctrl/design_control.hpp"
#include "designs/designs.hpp"
#include "driver/synthesis.hpp"
#include "engine/session.hpp"
#include "hdl/lower.hpp"
#include "lint/lint.hpp"
#include "persist/serialize.hpp"
#include "rtl/datapath.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace relsched;

struct DesignOutcome {
  bool ok = false;
  std::string error;
  std::uint64_t op_digest = 0;     // Verilog text
  std::uint64_t query_digest = 0;  // lint + analyze JSON
  double op_us = 0;
  double query_us = 0;
  /// Synthesis products, kept for the certificate gate and the probes.
  std::vector<driver::SynthesisResult> results;
};

/// One op plus its query on the design with HDL `source`.
DesignOutcome compile_design(const std::string& source, Tracer& tracer) {
  DesignOutcome out;
  const Clock::time_point op_start = Clock::now();
  std::string verilog;
  {
    Tracer::Scope op(tracer, "hls.op");
    hdl::CompileResult compiled;
    {
      Tracer::Scope s(tracer, "hdl.compile");
      compiled = hdl::compile(source);
    }
    if (!compiled.ok() || compiled.designs.empty()) {
      out.error = "compile failed: " + compiled.diagnostics.to_string();
      return out;
    }
    for (seq::Design& design : compiled.designs) {
      driver::SynthesisResult result;
      {
        Tracer::Scope s(tracer, "driver.synthesize");
        result = driver::synthesize(design);
      }
      if (!result.ok()) {
        out.error = "synthesize " + design.name() + ": " +
                    driver::to_string(result.status) + ": " + result.message;
        return out;
      }
      {
        Tracer::Scope s(tracer, "ctrl.control");
        const ctrl::DesignControl control =
            ctrl::generate_design_control(design, result);
        verilog += control.to_verilog(design, result, design.name());
      }
      {
        Tracer::Scope s(tracer, "rtl.datapath");
        verilog += rtl::generate_datapath(design, result, design.name() + "_dp")
                       .verilog;
      }
      out.results.push_back(std::move(result));
    }
  }
  const Clock::time_point op_end = Clock::now();
  out.op_us = us_since(op_start, op_end);
  out.op_digest = persist::fnv1a64(verilog);

  std::string reports;
  {
    Tracer::Scope query(tracer, "hls.query");
    for (const driver::SynthesisResult& result : out.results) {
      for (const driver::GraphSynthesis& gs : result.graphs) {
        const cg::ConstraintGraph& g = gs.constraint_graph;
        lint::Report lint_report;
        analyze::Report slack_report;
        {
          Tracer::Scope s(tracer, "lint.analyze");
          lint_report = lint::analyze(g);
        }
        {
          Tracer::Scope s(tracer, "analyze.analyze");
          slack_report = analyze::analyze(g);
        }
        if (!slack_report.ok()) {
          out.error = "analyze " + g.name() + ": " + slack_report.message;
          return out;
        }
        {
          Tracer::Scope s(tracer, "lint.json");
          reports += lint::to_json(lint_report, g);
        }
        {
          Tracer::Scope s(tracer, "analyze.json");
          reports += analyze::to_json(slack_report, g);
        }
      }
    }
  }
  out.query_us = us_since(op_end);
  out.query_digest = persist::fnv1a64(reports);
  out.ok = true;
  return out;
}

/// Re-runs every synthesized graph from outside the pipeline: a cold
/// engine resolve as the op runs it, and the anchor analysis, sequential
/// and on `pool`.
void probe_layers(const DesignOutcome& outcome, base::WorkStealingPool* pool,
                  Tracer& tracer) {
  Tracer::Scope probe(tracer, "hls.probe");
  for (const driver::SynthesisResult& result : outcome.results) {
    for (const driver::GraphSynthesis& gs : result.graphs) {
      engine::SynthesisSession session(gs.constraint_graph);
      {
        Tracer::Scope s(tracer, "engine.cold_resolve");
        (void)session.resolve();
      }
      {
        Tracer::Scope s(tracer, "anchors.compute_seq");
        (void)anchors::AnchorAnalysis::compute(gs.constraint_graph, nullptr);
      }
      {
        Tracer::Scope s(tracer, "anchors.compute_pool");
        (void)anchors::AnchorAnalysis::compute(gs.constraint_graph, pool);
      }
    }
  }
}

/// Spawns `argv` and returns its stdout; "" on failure.
std::string run_capture(const std::vector<std::string>& args) {
  int fds[2];
  if (::pipe(fds) != 0) return "";
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(),
                               environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  std::string out;
  if (rc == 0) {
    char buf[256];
    ssize_t n = 0;
    while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) out.clear();
  }
  ::close(fds[0]);
  return out;
}

constexpr int kProbeRounds = 25;

}  // namespace

int hls_setup_probe(long long spawn_ns) {
  Tracer off(false, 0);
  for (const designs::BenchmarkDesign& d : designs::benchmark_suite()) {
    if (!compile_design(d.hdl, off).ok) return 1;
  }
  std::printf("%.3f\n", static_cast<double>(monotonic_ns() - spawn_ns) / 1e3);
  return 0;
}

Result run_hls_suite(const Config& config) {
  Result result;
  // Before anything starts the process-wide pool; inherited by the
  // set-up probes.
  result.pool_threads = base::WorkStealingPool::default_thread_count();
  ::setenv("RELSCHED_THREADS", "1", 1);
  const std::vector<designs::BenchmarkDesign>& suite =
      designs::benchmark_suite();

  // Inputs: the design order, drawn from the seed before any clock runs.
  // Rounds of fifteen ops in a seeded order: every design once, and
  // frisc -- the suite's microprocessor and its costliest design -- seven
  // more times, so the median op falls inside one design's cost cluster.
  // With eight equal shares it fell on the gap between two clusters
  // (about 0.56 and 1.05 ms) and jumped across it from run to run.
  std::vector<std::uint8_t> round;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const int copies = suite[i].name == "frisc" ? 8 : 1;
    round.insert(round.end(), copies, static_cast<std::uint8_t>(i));
  }
  std::mt19937_64 rng(config.seed);
  std::vector<std::uint8_t> order;
  while (order.size() < (1u << 20)) {
    std::shuffle(round.begin(), round.end(), rng);
    order.insert(order.end(), round.begin(), round.end());
  }

  // Set-up: process-cold first passes, each in a fresh process. A pass
  // takes about 10 ms, so besides the ones before and after the measured
  // phase one runs every second of it, and the median spans the run.
  Samples setup_us;
  auto set_up = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const std::string out = run_capture(
          {config.self_exe, "--hls-probe", std::to_string(monotonic_ns())});
      if (out.empty()) return false;
      setup_us.add(std::atof(out.c_str()));
    }
    return true;
  };
  if (!set_up(kSetupsBefore)) {
    result.fail_gate("set-up probe process failed");
    return result;
  }

  // Reference pass in this process: every product must pass the
  // independent certificate, and later ops must reproduce its outputs.
  Tracer off(false, 0);
  std::vector<std::uint64_t> ref_op(suite.size()), ref_query(suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    DesignOutcome ref = compile_design(suite[i].hdl, off);
    if (!ref.ok) {
      result.fail_gate(suite[i].name + ": " + ref.error);
      return result;
    }
    for (const driver::SynthesisResult& r : ref.results) {
      for (const driver::GraphSynthesis& gs : r.graphs) {
        const certify::Diag diag = certify::check_products(
            gs.constraint_graph, gs.analysis, gs.schedule.schedule);
        if (!diag.ok()) {
          result.fail_gate(suite[i].name + "/" + gs.constraint_graph.name() +
                           ": certificate failed: " + diag.message);
        }
      }
    }
    ref_op[i] = ref.op_digest;
    ref_query[i] = ref.query_digest;
  }

  std::size_t next = 0;
  double peak_rss = 0;
  // One closed-loop phase; returns its ops per second. The untraced
  // phase (the one given op_ms) runs the set-up probes due during it;
  // their time is left out of the phase's clock.
  auto phase = [&](Tracer& tracer, Samples* op_ms, Samples* query_ms) {
    long long ops = 0;
    std::vector<double> done_s;
    const Clock::time_point start = Clock::now();
    const double budget_us = config.seconds * 1e6;
    double paused_us = 0;
    int probes = 0;
    while (us_since(start) - paused_us < budget_us && next < order.size()) {
      if (op_ms != nullptr && us_since(start) - paused_us >= probes * 1e6) {
        const Clock::time_point pause = Clock::now();
        if (!set_up(1)) {
          result.fail_gate("set-up probe process failed");
          break;
        }
        ++probes;
        paused_us += us_since(pause);
      }
      const std::size_t d = order[next++];
      tracer.set_op(ops);
      const DesignOutcome outcome = compile_design(suite[d].hdl, tracer);
      result.attempted += 2;  // the op and its query
      if (!outcome.ok) {
        result.failed += 1;
        result.fail_gate(suite[d].name + ": " + outcome.error);
        break;
      }
      if (outcome.op_digest != ref_op[d] ||
          outcome.query_digest != ref_query[d]) {
        result.failed += 1;
        result.fail_gate(suite[d].name + ": output differs from the "
                         "certified reference pass");
      }
      ++ops;
      done_s.push_back((us_since(start) - paused_us) / 1e6);
      if (op_ms != nullptr) op_ms->add(outcome.op_us / 1e3);
      if (query_ms != nullptr) query_ms->add(outcome.query_us / 1e3);
      if (ops == kRssAfterOps && op_ms != nullptr) {
        peak_rss = peak_rss_mb_self();
      }
    }
    return median_window_rate(done_s, (us_since(start) - paused_us) / 1e6);
  };

  Samples op_ms, query_ms;
  const double ops_per_s = phase(off, &op_ms, &query_ms);
  if (peak_rss == 0) peak_rss = peak_rss_mb_self();
  if (!set_up(kSetupsAfter)) {
    result.fail_gate("set-up probe process failed");
    return result;
  }

  result.e2e("setup_s", setup_us.median() / 1e6, "s",
             static_cast<long long>(setup_us.count()));
  result.e2e("peak_rss_mb", peak_rss, "MB");
  report_loop(result, op_ms, query_ms, ops_per_s);

  if (config.trace) {
    Tracer tracer(true, 1);
    const double traced_ops_per_s = phase(tracer, nullptr, nullptr);
    // The probes run after the traced phase, so they neither slow its
    // ops nor count as its overhead: every design, kProbeRounds times.
    base::WorkStealingPool probe_pool(result.pool_threads);
    long long probe_op = 1LL << 40;
    for (int round = 0; round < kProbeRounds; ++round) {
      for (const designs::BenchmarkDesign& d : suite) {
        const DesignOutcome outcome = compile_design(d.hdl, off);
        tracer.set_op(probe_op++);
        probe_layers(outcome, &probe_pool, tracer);
      }
    }
    const SelfTimes self({&tracer});
    std::map<std::string, double> v;
    for (const char* name :
         {"hdl.compile", "driver.synthesize", "ctrl.control", "rtl.datapath",
          "engine.cold_resolve", "anchors.compute_seq", "anchors.compute_pool",
          "lint.analyze", "analyze.analyze", "lint.json", "analyze.json"}) {
      v[std::string(name) + "_us"] = self.per_op_us(name);
    }
    v["trace.overhead_pct"] = (ops_per_s / traced_ops_per_s - 1.0) * 100.0;
    emit_per_layer(result, v);
    if (!write_chrome_trace(config.trace_path, {&tracer})) {
      result.fail_gate("cannot write trace file " + config.trace_path);
    }
  }
  return result;
}

}  // namespace perfbench
