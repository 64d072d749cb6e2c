// relsched_cli: command-line front door to the synthesis pipeline.
//
//   relsched_cli lint [--lint-json] [--strip-redundant]
//                     [--fail-on error|warning|info|never]
//                     (--suite | <design.hwc | graph.cg | graph.cgb>)
//     Static design analysis without scheduling: feasibility (with an
//     irreducible unsat core), well-posedness per backward edge,
//     redundant constraints, never-binding max constraints, dead
//     anchors. Exit 0 when no finding reaches the --fail-on gate
//     (default: error), else 3/4/5 for a worst severity of
//     error/warning/info. --strip-redundant (graph inputs) writes the
//     graph with redundant constraints removed to stdout.
//
//   relsched_cli analyze [--analyze-json] [--extract] [--top <n>]
//                        (--suite | <design.hwc | graph.cg | graph.cgb>)
//     Static slack / criticality analysis without running the
//     scheduler's fixpoint: per-constraint tightening slack, a
//     criticality ranking with defining-path provenance, and (with
//     --extract) a certified critical subgraph -- re-scheduled from
//     scratch and checked bit-for-bit against the full design's
//     offsets. Exit 0 ok, 2 invalid, 3 infeasible, 4 ill-posed;
//     exit 1 when an extraction fails its certification.
//
//   relsched_cli gen [--seed <n>] [--vertices <n>] [--width <n>]
//                    [--anchor-density <per10k>] [--min-density <per10k>]
//                    [--max-density <per10k>] [--max-delay <n>]
//                    [--name <s>] [--out <path>]
//     Emit a seeded synthetic constraint graph (designs::generate) in
//     the graph_io text format -- deterministic: the same flags always
//     produce byte-identical output. Feeds --graph mode, benches, and
//     the scale CI jobs.
//
//   relsched_cli [options] <design.hwc | graph.cg>
//     --report     per-graph synthesis summary (default)
//     --schedule   anchor sets + minimum offsets per graph (Table II style)
//     --stats      Table III / Table IV statistics
//     --verilog    emit control logic (shift-register style) per graph
//     --dot        emit the constraint graph of each graph in Graphviz dot
//     --counter    use counter-based control for --verilog
//     --graph      treat the input as a constraint-graph text file
//                  (see cg/graph_io.hpp) instead of HardwareC
//     --rtl        emit the full structural result: hierarchical
//                  control plus datapath Verilog
//
//   Operating long runs (--graph mode):
//     --checkpoint-dir <dir>  journal edits + snapshot session state into
//                             <dir> (crash-safe: temp+rename, checksummed)
//     --resume                recover from <dir>'s snapshot + WAL tail
//                             instead of starting fresh
//     --deadline-ms <n>       stop synthesis within one watchdog quantum
//                             once the budget elapses; exit code 6 with
//                             the partial state checkpointed
//     --diag-json-out <path>  atomically write the failure diagnostic
//                             JSON to <path> (in addition to --diag-json
//                             on stdout)
//   SIGINT/SIGTERM request cooperative cancellation: the run stops at
//   the next watchdog poll, writes a final checkpoint, and exits 6.
#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "analyze/analyze.hpp"
#include "base/watchdog.hpp"
#include "certify/certify.hpp"
#include "cg/graph_io.hpp"
#include "ctrl/control.hpp"
#include "ctrl/design_control.hpp"
#include "designs/designs.hpp"
#include "designs/generator.hpp"
#include "driver/report.hpp"
#include "driver/stats.hpp"
#include "driver/synthesis.hpp"
#include "engine/session.hpp"
#include "hdl/lower.hpp"
#include "lint/lint.hpp"
#include "persist/serialize.hpp"
#include "rtl/datapath.hpp"
#include "sched/scheduler.hpp"
#include "wellposed/wellposed.hpp"

using namespace relsched;

namespace {

int usage() {
  std::cerr << "usage: relsched_cli [--report] [--schedule] [--stats] "
               "[--verilog] [--dot] [--counter] [--graph] [--diag-json] "
               "[--diag-json-out <path>] [--checkpoint-dir <dir>] [--resume] "
               "[--deadline-ms <n>] <design.hwc | graph.cg>\n"
               "       relsched_cli lint [--lint-json] [--strip-redundant] "
               "[--fail-on error|warning|info|never] "
               "(--suite | <design.hwc | graph.cg | graph.cgb>)\n"
               "       relsched_cli analyze [--analyze-json] [--extract] "
               "[--top <n>] (--suite | <design.hwc | graph.cg | graph.cgb>)\n"
               "       relsched_cli gen [--seed <n>] [--vertices <n>] "
               "[--width <n>] [--anchor-density <per10k>] "
               "[--max-anchors <n>] "
               "[--min-density <per10k>] [--max-density <per10k>] "
               "[--max-delay <n>] [--name <s>] [--binary] "
               "[--out <path>]\n"
               "(gen emits the streamed binary graph format when --binary "
               "is set or --out ends in .cgb; the main command loads "
               "either format)\n";
  return 2;
}

/// Reads the value of the flag at argv[*i] as a decimal integer in
/// [lo, hi], advancing *i past it. False when the value is missing,
/// malformed or out of range.
bool int_arg(int argc, char** argv, int* i, long long lo, long long hi,
             long long* out) {
  if (++*i >= argc) return false;
  char* end = nullptr;
  const long long v = std::strtoll(argv[*i], &end, 10);
  if (end == argv[*i] || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

/// Reads `path` whole into *text; prints "cannot open" and returns
/// false when it cannot be read.
bool read_file(const std::string& path, std::string* text) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open '" << path << "'\n";
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  *text = buffer.str();
  return true;
}

/// Binary graphs are loaded streamed -- never slurped into a string
/// like the text formats -- so a 10^6-vertex design stays inside the
/// memory ceiling. The suffix check catches files the sniff cannot
/// open (read_binary_file then reports the I/O error).
bool is_binary_graph(const std::string& path) {
  return path.ends_with(".cgb") || cg::is_binary_graph_file(path);
}

bool is_graph_file(const std::string& path) {
  return path.ends_with(".cg") || is_binary_graph(path);
}

/// Loads a constraint graph in either format; prints the error and
/// returns nullopt when it cannot.
std::optional<cg::ConstraintGraph> load_graph(const std::string& path) {
  cg::ParseResult parsed;
  if (is_binary_graph(path)) {
    parsed = cg::read_binary_file(path);
  } else {
    std::string text;
    if (!read_file(path, &text)) return std::nullopt;
    parsed = cg::from_text(text);
  }
  if (!parsed.ok()) std::cerr << parsed.error << "\n";
  return std::move(parsed.graph);
}

// ---- gen --------------------------------------------------------------------

struct GenIntFlag {
  const char* name;
  long long lo, hi;
  int designs::GeneratorParams::* field;
};

constexpr GenIntFlag kGenIntFlags[] = {
    {"--vertices", 3, 10'000'000, &designs::GeneratorParams::vertices},
    {"--width", 1, 1'000'000, &designs::GeneratorParams::width},
    {"--anchor-density", 0, 10000, &designs::GeneratorParams::anchor_density},
    {"--max-anchors", 0, 10'000'000, &designs::GeneratorParams::max_anchors},
    {"--min-density", 0, 100000, &designs::GeneratorParams::min_density},
    {"--max-density", 0, 100000, &designs::GeneratorParams::max_density},
    {"--max-delay", 1, 1'000'000, &designs::GeneratorParams::max_delay},
};

int gen_main(int argc, char** argv) {
  designs::GeneratorParams params;
  std::string out_path;
  bool binary = false;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto* flag =
        std::find_if(std::begin(kGenIntFlags), std::end(kGenIntFlags),
                     [&](const GenIntFlag& f) { return arg == f.name; });
    long long v = 0;
    if (flag != std::end(kGenIntFlags)) {
      if (!int_arg(argc, argv, &i, flag->lo, flag->hi, &v)) return usage();
      params.*(flag->field) = static_cast<int>(v);
    } else if (arg == "--seed") {
      if (!int_arg(argc, argv, &i, 0, std::numeric_limits<long long>::max(),
                   &v)) {
        return usage();
      }
      params.seed = static_cast<std::uint64_t>(v);
    } else if (arg == "--name" || arg == "--out") {
      if (++i >= argc) return usage();
      (arg == "--name" ? params.name : out_path) = argv[i];
    } else if (arg == "--binary") {
      binary = true;
    } else {
      return usage();
    }
  }
  const cg::ConstraintGraph g = designs::generate(params);
  if (binary || out_path.ends_with(".cgb")) {
    // The binary writer streams; a 10^6-vertex design never exists as
    // one text blob in memory on this path.
    if (out_path.empty()) {
      std::cerr << "gen --binary requires --out (refusing to write the "
                   "binary format to a terminal)\n";
      return 2;
    }
    if (const std::string err = cg::write_binary_file(g, out_path);
        !err.empty()) {
      std::cerr << err << "\n";
      return 1;
    }
    return 0;
  }
  const std::string text = cg::to_text(g);
  if (out_path.empty()) {
    std::cout << text;
    return 0;
  }
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  out << text;
  out.flush();
  if (!out) {
    std::cerr << "failed to write '" << out_path << "'\n";
    return 1;
  }
  return 0;
}

// ---- lint and analyze: one report runner ------------------------------------

/// A report subcommand (lint, analyze). run_report() owns the input
/// side -- --suite, a .cg/.cgb graph or HardwareC, each HardwareC
/// process synthesized first so the report sees the graphs the
/// scheduler would -- plus the JSON array and the exit-code combiner.
/// The subcommand supplies its flags and the fields below.
struct ReportCommand {
  bool json = false;
  bool suite = false;
  std::string path;

  /// Exit codes from most to least severe; 0 and unlisted codes rank
  /// below all of them.
  std::vector<int> severity;
  int input_error = 1;        // unreadable or unparsable input
  int synthesis_failure = 2;  // a process the pipeline cannot synthesize
  driver::SynthesisOptions synthesis;
  /// lint prints a graph file's JSON report as a bare object, analyze
  /// as a one-element array (both pinned by golden files).
  bool graph_json_bare = false;
  /// Set when the run needs a graph file: --suite and HardwareC inputs
  /// are refused with this message (exit 2).
  const char* graph_only = nullptr;
  /// Reports one graph and returns its exit code. `synthesized` is
  /// null for a graph file, which is reported exactly as written (no
  /// make_wellposed repair: ill-posedness is a verdict there). JSON
  /// goes to *jsons when non-null, text to stdout otherwise.
  std::function<int(cg::ConstraintGraph& g,
                    const driver::GraphSynthesis* synthesized,
                    std::vector<std::string>* jsons)>
      report;
};

/// Parses a report subcommand's command line: --suite, `json_flag`,
/// one input path, and the subcommand's own flags through `own` (which
/// may consume a value at ++*i). False on a usage error.
bool parse_report_args(
    int argc, char** argv, std::string_view json_flag,
    const std::function<bool(std::string_view arg, int* i)>& own,
    ReportCommand* cmd) {
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == json_flag) {
      cmd->json = true;
    } else if (arg == "--suite") {
      cmd->suite = true;
    } else if (arg.starts_with('-')) {
      if (!own(arg, &i)) return false;
    } else {
      cmd->path = arg;
    }
  }
  return cmd->suite == cmd->path.empty();  // exactly one input
}

/// The more severe of two exit codes under `severity` (most severe
/// first); `a` on a tie.
int worse_exit(int a, int b, const std::vector<int>& severity) {
  const auto rank = [&](int code) {
    return severity.end() - std::find(severity.begin(), severity.end(), code);
  };
  return rank(a) >= rank(b) ? a : b;
}

int run_report(const ReportCommand& cmd) {
  int code = 0;
  std::vector<std::string> docs;
  std::vector<std::string>* jsons = cmd.json ? &docs : nullptr;
  const auto refuse = [&] {
    std::cerr << cmd.graph_only << "\n";
    return 2;
  };
  const auto report_design = [&](seq::Design& design) {
    driver::SynthesisResult result = driver::synthesize(design, cmd.synthesis);
    for (driver::GraphSynthesis& gs : result.graphs) {
      code = worse_exit(code, cmd.report(gs.constraint_graph, &gs, jsons),
                        cmd.severity);
    }
    if (!result.ok()) {
      std::cerr << "process '" << design.name()
                << "': " << driver::to_string(result.status) << ": "
                << result.message << "\n";
      code = worse_exit(code, cmd.synthesis_failure, cmd.severity);
    }
  };

  if (cmd.suite) {
    if (cmd.graph_only != nullptr) return refuse();
    for (const auto& bd : designs::benchmark_suite()) {
      seq::Design design = designs::build(bd.name);
      report_design(design);
    }
  } else if (is_graph_file(cmd.path)) {
    std::optional<cg::ConstraintGraph> g = load_graph(cmd.path);
    if (!g.has_value()) return cmd.input_error;
    code = cmd.report(*g, nullptr, jsons);
    if (cmd.graph_json_bare) {
      for (const std::string& doc : docs) std::cout << doc << "\n";
      return code;
    }
  } else {
    std::string text;
    if (!read_file(cmd.path, &text)) return cmd.input_error;
    if (cmd.graph_only != nullptr) return refuse();
    auto compiled = hdl::compile(text);
    if (!compiled.ok()) {
      std::cerr << cmd.path << ":\n" << compiled.diagnostics.to_string();
      return cmd.input_error;
    }
    for (seq::Design& design : compiled.designs) report_design(design);
  }
  if (cmd.json) {
    std::cout << "[";
    for (std::size_t i = 0; i < docs.size(); ++i) {
      if (i > 0) std::cout << ", ";
      std::cout << docs[i];
    }
    std::cout << "]\n";
  }
  return code;
}

int lint_main(int argc, char** argv) {
  constexpr std::pair<std::string_view, lint::FailOn> kFailOn[] = {
      {"error", lint::FailOn::kError},
      {"warning", lint::FailOn::kWarning},
      {"info", lint::FailOn::kInfo},
      {"never", lint::FailOn::kNever},
  };
  bool strip = false;
  lint::FailOn fail_on = lint::FailOn::kError;
  ReportCommand cmd;
  const auto own = [&](std::string_view arg, int* i) {
    if (arg == "--strip-redundant") {
      strip = true;
      return true;
    }
    if (arg != "--fail-on" || ++*i >= argc) return false;
    for (const auto& [name, value] : kFailOn) {
      if (argv[*i] == name) {
        fail_on = value;
        return true;
      }
    }
    return false;
  };
  if (!parse_report_args(argc, argv, "--lint-json", own, &cmd)) {
    return usage();
  }
  cmd.severity = {3, 4, 5};  // error, warning, info
  cmd.input_error = 1;
  cmd.synthesis_failure = 3;
  cmd.synthesis.lint = true;
  cmd.graph_json_bare = true;
  if (strip) {
    cmd.graph_only = "--strip-redundant applies to .cg/.cgb inputs only";
  }
  cmd.report = [&](cg::ConstraintGraph& g,
                   const driver::GraphSynthesis* synthesized,
                   std::vector<std::string>* jsons) {
    const lint::Report report =
        synthesized != nullptr ? synthesized->lint_report : lint::analyze(g);
    if (strip) {
      if (report.count(lint::Severity::kError) > 0) {
        std::cerr << lint::render_text(report, g);
        return lint::exit_code(report, lint::FailOn::kError);
      }
      const auto stripped = lint::strip_redundant(g);
      std::cerr << "stripped " << stripped.size()
                << " redundant constraint(s)\n";
      std::cout << cg::to_text(g);
      return 0;
    }
    if (jsons != nullptr) {
      jsons->push_back(lint::to_json(report, g));
    } else {
      std::cout << lint::render_text(report, g);
    }
    return lint::exit_code(report, fail_on);
  };
  return run_report(cmd);
}

int analyze_main(int argc, char** argv) {
  bool extract = false;
  int top = 10;
  ReportCommand cmd;
  const auto own = [&](std::string_view arg, int* i) {
    if (arg == "--extract") {
      extract = true;
      return true;
    }
    long long v = 0;
    if (arg != "--top" || !int_arg(argc, argv, i, 0, 1'000'000'000, &v)) {
      return false;
    }
    top = static_cast<int>(v);
    return true;
  };
  if (!parse_report_args(argc, argv, "--analyze-json", own, &cmd)) {
    return usage();
  }
  // A certification failure (1) outranks every verdict, then
  // structural invalidity (2), ill-posedness (4), infeasibility (3).
  cmd.severity = {1, 2, 4, 3};
  cmd.input_error = 2;
  cmd.synthesis_failure = 2;
  cmd.report = [&](cg::ConstraintGraph& g,
                   const driver::GraphSynthesis* synthesized,
                   std::vector<std::string>* jsons) {
    const anchors::AnchorAnalysis* analysis =
        synthesized != nullptr && synthesized->schedule.ok()
            ? &synthesized->analysis
            : nullptr;
    const analyze::Report report = analyze::analyze(g, analysis);
    std::optional<analyze::Extraction> extraction;
    if (extract && report.status != analyze::Status::kInvalid) {
      extraction = analyze::extract_critical(g, report, analysis);
    }
    const analyze::Extraction* ex = extraction ? &*extraction : nullptr;
    if (jsons != nullptr) {
      jsons->push_back(analyze::to_json(report, g, ex));
    } else {
      std::cout << analyze::render_text(report, g, top);
      if (ex != nullptr) std::cout << analyze::render_text(*ex);
    }
    return analyze::exit_code(report, ex);
  };
  return run_report(cmd);
}

// ---- The main command -------------------------------------------------------

/// What the main command prints.
struct Outputs {
  bool report = false, schedule = false, stats = false, verilog = false,
       dot = false, counter = false, rtl = false, diag_json = false;

  [[nodiscard]] ctrl::ControlOptions control() const {
    ctrl::ControlOptions opts;
    opts.style = counter ? ctrl::ControlStyle::kCounter
                         : ctrl::ControlStyle::kShiftRegister;
    return opts;
  }
};

/// Crash-safety / cancellation settings (see the header comment).
struct RunOptions {
  std::string checkpoint_dir;
  bool resume = false;
  long long deadline_ms = -1;  // < 0: no deadline
  std::string diag_json_out;

  /// Any of the long-run options is set.
  [[nodiscard]] bool long_run() const {
    return !checkpoint_dir.empty() || resume || deadline_ms >= 0;
  }
};

/// Shared cancel flag flipped by the SIGINT/SIGTERM handler; the
/// handler only performs one lock-free atomic store.
base::CancelToken g_cancel;  // NOLINT(cert-err58-cpp)

extern "C" void request_cancel_handler(int) { g_cancel.request_cancel(); }

/// Exit codes (covered by tests/test_driver.cpp and the CLI tests):
/// 0 ok, 1 generic/structural error, 2 usage, 3 infeasible,
/// 4 ill-posed, 5 no schedule found, 6 cancelled/deadline exceeded
/// (partial results checkpointed when --checkpoint-dir is set).
int exit_code_for(wellposed::Status status) {
  return status == wellposed::Status::kInfeasible ? 3 : 4;
}

int exit_code_for(sched::ScheduleStatus status) {
  switch (status) {
    case sched::ScheduleStatus::kInfeasible:
      return 3;
    case sched::ScheduleStatus::kIllPosed:
      return 4;
    case sched::ScheduleStatus::kInconsistent:
      return 5;
    case sched::ScheduleStatus::kCancelled:
      return 6;
    default:
      return 1;
  }
}

/// Failure epilogue: the witness rendered human-readable on stderr,
/// with --diag-json the machine-readable diagnostic as a single JSON
/// object on stdout, and with --diag-json-out the same JSON written
/// atomically (temp + rename) so a crash mid-emit never leaves a
/// consumer half a document.
void emit_diag(const certify::Diag& diag, const cg::ConstraintGraph& g,
               bool diag_json, const std::string& diag_json_out) {
  if (diag.ok()) return;
  std::cerr << certify::render(diag, g) << "\n";
  if (diag_json) std::cout << certify::to_json(diag, g) << "\n";
  if (!diag_json_out.empty()) {
    if (persist::Error e = persist::atomic_write_file(
            diag_json_out, certify::to_json(diag, g) + "\n");
        !e.ok()) {
      std::cerr << "cannot write diagnostic JSON: " << e.render() << "\n";
    }
  }
}

/// Resolves a well-posed graph inside a SynthesisSession: with a
/// write-ahead journal and checkpoint/restore when --checkpoint-dir is
/// set, and a cancellation watchdog. Recovery order: snapshot -> WAL
/// tail -> certificate check.
int run_graph_session(cg::ConstraintGraph g, const RunOptions& run,
                      const Outputs& out) {
  engine::SessionOptions sopts;
  sopts.cancel = g_cancel;
  if (run.deadline_ms >= 0) {
    sopts.deadline = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(run.deadline_ms);
  }

  std::optional<engine::SynthesisSession> session;
  const bool checkpointing = !run.checkpoint_dir.empty();
  const std::string snap =
      checkpointing ? persist::snapshot_path(run.checkpoint_dir) : "";
  const std::string wal =
      checkpointing ? persist::wal_path(run.checkpoint_dir) : "";

  if (run.resume && checkpointing && ::access(snap.c_str(), F_OK) == 0) {
    engine::SynthesisSession::RestoreReport report;
    session = engine::SynthesisSession::restore(run.checkpoint_dir, sopts,
                                                &report);
    if (!session.has_value()) {
      std::cerr << "cannot resume: " << report.error.render() << "\n";
      return 1;
    }
    if (report.wal_torn_tail) {
      std::cerr << "note: dropped torn WAL tail (" << report.wal_torn_detail
                << ")\n";
    }
    if (report.cold_fallback) {
      std::cerr << "note: restored products failed certification; "
                   "recomputed cold\n";
    }
  } else {
    session.emplace(std::move(g), sopts);
    // Crash before the first checkpoint: no snapshot yet, but the WAL
    // may hold journaled edits. The fresh session is rebuilt from the
    // input deterministically, so the tail replays onto it exactly.
    if (checkpointing && ::access(wal.c_str(), F_OK) == 0) {
      engine::SynthesisSession::RestoreReport report;
      if (persist::Error e = session->replay_wal(wal, &report); !e.ok()) {
        std::cerr << "cannot replay journal: " << e.render() << "\n";
        return 1;
      }
      if (report.wal_torn_tail) {
        std::cerr << "note: dropped torn WAL tail (" << report.wal_torn_detail
                  << ")\n";
      }
    }
  }

  if (checkpointing) {
    if (persist::Error e = persist::ensure_dir(run.checkpoint_dir); !e.ok()) {
      std::cerr << "cannot create checkpoint directory: " << e.render()
                << "\n";
      return 1;
    }
    if (persist::Error e = session->attach_wal(wal); !e.ok()) {
      std::cerr << "cannot attach journal: " << e.render() << "\n";
      return 1;
    }
  }

  const engine::Products& products = session->resolve();

  // Final clean checkpoint: on success, on failure verdicts, and on
  // cancellation alike -- a later --resume picks up from here.
  if (checkpointing) {
    if (persist::Error e = session->checkpoint(run.checkpoint_dir); !e.ok()) {
      std::cerr << "cannot write checkpoint: " << e.render() << "\n";
    }
  }

  if (products.schedule.status == sched::ScheduleStatus::kCancelled) {
    std::cerr << "stopped: " << products.schedule.message << "\n";
    if (checkpointing) {
      std::cerr << "partial state checkpointed to '" << run.checkpoint_dir
                << "' (resume with --resume)\n";
    }
    emit_diag(products.schedule.diag, session->graph(), out.diag_json,
              run.diag_json_out);
    return 6;
  }
  if (!products.ok()) {
    std::cerr << "no schedule: " << products.schedule.message << "\n";
    emit_diag(products.schedule.diag, session->graph(), out.diag_json,
              run.diag_json_out);
    return exit_code_for(products.schedule.status);
  }
  const cg::ConstraintGraph& graph = session->graph();
  const sched::RelativeSchedule& schedule = products.schedule.schedule;
  std::cout << "scheduled in " << sched::iteration_count(graph, products.analysis)
            << " iteration(s)\n";
  if (out.schedule || (!out.verilog && !out.dot)) {
    driver::print_schedule_table(std::cout, graph, products.analysis,
                                 schedule);
  }
  if (out.verilog) {
    const auto unit = ctrl::generate_control(graph, products.analysis,
                                             schedule, out.control());
    std::cout << unit.to_verilog(graph, graph.name() + "_ctrl") << "\n";
  }
  if (out.dot) std::cout << graph.to_dot() << "\n";
  return 0;
}

/// --graph mode once a graph is in hand: validate, make well-posed,
/// then resolve in a session.
int run_graph(cg::ConstraintGraph g, const RunOptions& run,
              const Outputs& out) {
  if (const auto issues = g.validate(); !issues.empty()) {
    std::cerr << "invalid graph: " << issues.front().message << "\n";
    return 1;
  }
  const auto fix = wellposed::make_wellposed(g);
  if (fix.status != wellposed::Status::kWellPosed) {
    std::cerr << "cannot schedule: " << wellposed::to_string(fix.status)
              << " (" << fix.message << ")\n";
    // The failure rolled `g` back; the witness refers to the restored
    // graph with the pre-failure serializing edges re-applied.
    cg::ConstraintGraph wg = g;
    for (const auto& [a, v] : fix.added_edges) wg.add_sequencing_edge(a, v);
    emit_diag(fix.diag, wg, out.diag_json, run.diag_json_out);
    return exit_code_for(fix.status);
  }
  for (const auto& [from, to] : fix.added_edges) {
    std::cout << "serialized: " << g.vertex(from).name << " -> "
              << g.vertex(to).name << "\n";
  }
  return run_graph_session(std::move(g), run, out);
}

/// Synthesizes every process of a HardwareC design.
int run_hdl(const std::string& path, const std::string& text,
            const RunOptions& run, const Outputs& out) {
  auto compiled = hdl::compile(text);
  if (!compiled.ok()) {
    std::cerr << path << ":\n" << compiled.diagnostics.to_string();
    return 1;
  }
  for (const auto& diag : compiled.diagnostics.diagnostics()) {
    std::cerr << path << ":" << diag.loc << ": warning: " << diag.message
              << "\n";
  }
  for (seq::Design& design : compiled.designs) {
    const auto result = driver::synthesize(design);
    if (!result.ok()) {
      std::cerr << "process '" << design.name()
                << "': " << driver::to_string(result.status) << ": "
                << result.message << "\n";
      emit_diag(result.diag, result.diag_graph, out.diag_json,
                run.diag_json_out);
      return driver::exit_code(result.status);
    }
    if (out.report) {
      driver::print_design_report(std::cout, design, result);
      std::cout << "\n";
    }
    if (out.schedule) {
      for (const auto& gs : result.graphs) {
        std::cout << "graph '" << design.graph(gs.graph_id).name() << "':\n";
        driver::print_schedule_table(std::cout, gs.constraint_graph,
                                     gs.analysis, gs.schedule.schedule);
        std::cout << "\n";
      }
    }
    if (out.stats) {
      const auto s = driver::compute_stats(result);
      std::cout << "|A|/|V| = " << s.total_anchors << "/" << s.total_vertices
                << "\nsum |A(v)| = " << s.sum_full
                << " (avg " << s.avg_full() << ")"
                << "\nsum |IR(v)| = " << s.sum_irredundant << " (avg "
                << s.avg_irredundant() << ")"
                << "\nmax offset full/min = " << s.max_offset_full << "/"
                << s.max_offset_min
                << "\nsum of max offsets full/min = " << s.sum_max_offset_full
                << "/" << s.sum_max_offset_min << "\n\n";
    }
    if (out.verilog) {
      for (const auto& gs : result.graphs) {
        const auto unit = ctrl::generate_control(
            gs.constraint_graph, gs.analysis, gs.schedule.schedule,
            out.control());
        std::cout << unit.to_verilog(
                         gs.constraint_graph,
                         design.name() + "_" +
                             design.graph(gs.graph_id).name() + "_ctrl")
                  << "\n";
      }
    }
    if (out.dot) {
      for (const auto& gs : result.graphs) {
        std::cout << gs.constraint_graph.to_dot() << "\n";
      }
    }
    if (out.rtl) {
      const auto control =
          ctrl::generate_design_control(design, result, out.control());
      std::cout << control.to_verilog(design, result, design.name()) << "\n";
      const auto dp =
          rtl::generate_datapath(design, result, design.name() + "_dp");
      std::cout << dp.verilog << "\n// datapath stats: " << dp.stats.registers
                << " register bits, " << dp.stats.functional_units
                << " functional units, " << dp.stats.mux_inputs
                << " mux inputs\n";
    }
  }
  return 0;
}

int schedule_main(int argc, char** argv) {
  Outputs out;
  RunOptions run;
  bool graph_mode = false;
  std::string path;
  const std::pair<std::string_view, bool*> switches[] = {
      {"--report", &out.report},   {"--schedule", &out.schedule},
      {"--stats", &out.stats},     {"--verilog", &out.verilog},
      {"--dot", &out.dot},         {"--counter", &out.counter},
      {"--graph", &graph_mode},    {"--rtl", &out.rtl},
      {"--diag-json", &out.diag_json}, {"--resume", &run.resume},
  };
  const std::pair<std::string_view, std::string*> values[] = {
      {"--diag-json-out", &run.diag_json_out},
      {"--checkpoint-dir", &run.checkpoint_dir},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto on = std::find_if(std::begin(switches), std::end(switches),
                                 [&](const auto& s) { return s.first == arg; });
    const auto value = std::find_if(
        std::begin(values), std::end(values),
        [&](const auto& v) { return v.first == arg; });
    if (on != std::end(switches)) {
      *on->second = true;
    } else if (value != std::end(values)) {
      if (++i >= argc) return usage();
      *value->second = argv[i];
    } else if (arg == "--deadline-ms") {
      if (i + 1 >= argc) return usage();
      if (!int_arg(argc, argv, &i, 0, std::numeric_limits<long long>::max(),
                   &run.deadline_ms)) {
        std::cerr << "--deadline-ms expects a non-negative integer, got '"
                  << argv[i] << "'\n";
        return 2;
      }
    } else if (arg.starts_with('-')) {
      return usage();
    } else {
      path = arg;
    }
  }
  if (path.empty()) return usage();
  if (!out.report && !out.schedule && !out.stats && !out.verilog &&
      !out.dot && !out.rtl) {
    out.report = true;
  }
  if (run.resume && run.checkpoint_dir.empty()) {
    std::cerr << "--resume requires --checkpoint-dir\n";
    return 2;
  }
  if (run.long_run()) {
    // Ctrl-C / SIGTERM request cooperative cancellation so the run can
    // write its final checkpoint; the default disposition stays in
    // place for plain invocations.
    g_cancel = base::CancelToken::make();
    std::signal(SIGINT, request_cancel_handler);
    std::signal(SIGTERM, request_cancel_handler);
  }

  if (graph_mode || is_graph_file(path)) {
    std::optional<cg::ConstraintGraph> g = load_graph(path);
    if (!g.has_value()) return 1;
    return run_graph(std::move(*g), run, out);
  }
  std::string text;
  if (!read_file(path, &text)) return 1;
  if (run.long_run()) {
    std::cerr << "--checkpoint-dir/--resume/--deadline-ms apply to --graph "
                 "mode only\n";
    return 2;
  }
  return run_hdl(path, text, run, out);
}

struct Subcommand {
  std::string_view name;
  int (*main)(int argc, char** argv);
};

constexpr Subcommand kSubcommands[] = {
    {"lint", lint_main},
    {"analyze", analyze_main},
    {"gen", gen_main},
};

}  // namespace

int main(int argc, char** argv) {
  for (const Subcommand& sub : kSubcommands) {
    if (argc >= 2 && argv[1] == sub.name) return sub.main(argc, argv);
  }
  return schedule_main(argc, argv);
}
