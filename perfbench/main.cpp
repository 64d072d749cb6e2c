// perfbench: the repository's benchmark program. Runs one workload
// (hls_suite, edit_stream or serve_edits) for a fixed time, checks its
// outputs, and prints the metrics. perfbench/run.py builds this binary
// and is the entry point; see perfbench/README.md.
//
// Output (stdout): a human-readable table ("# " lines), one info line
// {"perfbench": {...}} with the env block, sample counts and gate
// errors, and last the result line
// {"correct", "attempted", "failed", "metrics"}. The metrics are the
// end-to-end ones without --trace, the per-layer ones with --trace 1.
// Exit code 0 only when every gate passed and no operation failed.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "base/json.hpp"
#include "base/thread_pool.hpp"
#include "common.hpp"

namespace {

using perfbench::Config;
using perfbench::Metric;
using perfbench::Result;

void append_number(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_kv_string(std::string& out, const char* key, std::string_view v) {
  relsched::base::append_json_string(out, key);
  out += ':';
  relsched::base::append_json_string(out, v);
}

int cores_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

double find(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0;
}

std::string render_metrics_array(const std::vector<Metric>& metrics) {
  std::string out = "[";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ',';
    out += '{';
    append_kv_string(out, "name", m.name);
    out += ",\"value\":";
    append_number(out, m.value);
    out += ',';
    append_kv_string(out, "unit", m.unit);
    out += ",\"samples\":" + std::to_string(m.samples) + '}';
  }
  return out + ']';
}

int usage() {
  std::cerr << "usage: perfbench --workload hls_suite|edit_stream|serve_edits"
               " --seed N --seconds S --trace 0|1 --serve-bin PATH"
               " --work-dir DIR --trace-path FILE [--commit C]"
               " [--source-digest D]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--hls-probe" && i + 1 < argc) {
      return perfbench::hls_setup_probe(std::atoll(argv[++i]));
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--serve-bin") {
      config.serve_bin = value;
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else if (arg == "--trace-path") {
      config.trace_path = value;
    } else if (arg == "--commit") {
      commit = value;
    } else if (arg == "--source-digest") {
      source_digest = value;
    } else {
      return usage();
    }
  }
  if (config.workload.empty() || config.work_dir.empty() ||
      !(config.seconds > 0)) {
    return usage();
  }
  std::error_code ec;
  config.self_exe = std::filesystem::read_symlink("/proc/self/exe", ec).string();
  std::filesystem::create_directories(config.work_dir, ec);

  Result result;
  int client_threads = 1;
  if (config.workload == "hls_suite") {
    result = perfbench::run_hls_suite(config);
  } else if (config.workload == "edit_stream") {
    result = perfbench::run_edit_stream(config);
  } else if (config.workload == "serve_edits") {
    client_threads = 3;
    result = perfbench::run_serve_edits(config);
  } else {
    std::cerr << "perfbench: unknown workload '" << config.workload << "'\n";
    return 2;
  }

  // A non-finite value is a defect of the benchmark or the program, not
  // a measurement: it fails the run and is left out of the output.
  const std::vector<Metric>& reported =
      config.trace ? result.per_layer : result.end_to_end;
  for (const std::vector<Metric>* list :
       {&result.end_to_end, &result.loop, &result.per_layer}) {
    for (const Metric& m : *list) {
      if (!std::isfinite(m.value)) {
        result.fail_gate("non-finite value for " + m.name);
      }
    }
  }

  const int cores = cores_available();

  // The human-readable table.
  for (const std::vector<Metric>* list :
       {&result.end_to_end, &result.loop, &result.per_layer}) {
    for (const Metric& m : *list) {
      std::printf("# %-8s %-30s %14.4f %-6s n=%lld\n",
                  list == &result.end_to_end ? "e2e"
                  : list == &result.loop     ? "loop"
                                             : "layer",
                  m.name.c_str(), m.value, m.unit.c_str(), m.samples);
    }
  }
  for (const std::string& e : result.errors) {
    std::printf("# GATE FAILED: %s\n", e.c_str());
    std::fprintf(stderr, "perfbench: %s: %s\n", config.workload.c_str(),
                 e.c_str());
  }

  // Info line: env block, every metric with its sample count, errors.
  std::string info = "{\"perfbench\":{";
  append_kv_string(info, "workload", config.workload);
  info += ",\"env\":{";
  append_kv_string(info, "git_commit", commit);
  info += ',';
  append_kv_string(info, "source_digest", source_digest);
  info += ',';
  append_kv_string(info, "compiler", PERFBENCH_COMPILER);
  info += ',';
  append_kv_string(info, "flags", PERFBENCH_FLAGS);
  info += ',';
  append_kv_string(info, "build_type", PERFBENCH_BUILD_TYPE);
  info += ",\"nproc\":" +
          std::to_string(std::thread::hardware_concurrency()) +
          ",\"cores_available\":" + std::to_string(cores) +
          ",\"client_threads\":" + std::to_string(client_threads) +
          ",\"engine_pool_threads\":" +
          std::to_string(
              relsched::base::WorkStealingPool::default_thread_count()) +
          ",\"probe_pool_threads\":" + std::to_string(result.pool_threads) +
          ",\"seed\":" + std::to_string(config.seed) + ",\"seconds\":";
  append_number(info, config.seconds);
  info += std::string(",\"trace\":") + (config.trace ? "true" : "false") + "}";
  // The pool's speedup is only a measurement of the parallel design
  // when every pool thread has a core of its own.
  if (config.trace) {
    const double seq = find(result.per_layer, "anchors.compute_seq_us");
    const double pool = find(result.per_layer, "anchors.compute_pool_us");
    info += ",\"anchors_pool_speedup\":";
    if (cores < result.pool_threads) {
      relsched::base::append_json_string(
          info, "refused: " + std::to_string(cores) + " cores < " +
                    std::to_string(result.pool_threads) + " pool threads");
    } else if (seq > 0 && pool > 0) {
      append_number(info, seq / pool);
    } else {
      info += "null";
    }
  }
  info += ",\"end_to_end\":" + render_metrics_array(result.end_to_end);
  info += ",\"loop\":" + render_metrics_array(result.loop);
  info += ",\"per_layer\":" + render_metrics_array(result.per_layer);
  for (const auto& [key, value] : result.info) {
    info += ',';
    relsched::base::append_json_string(info, key);
    info += ':' + value;
  }
  info += ",\"errors\":[";
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    if (i > 0) info += ',';
    relsched::base::append_json_string(info, result.errors[i]);
  }
  info += "]}}";
  std::printf("%s\n", info.c_str());

  std::string line = "{\"correct\":";
  line += result.correct ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(result.attempted) +
          ",\"failed\":" + std::to_string(result.failed) + ",\"metrics\":{";
  bool first = true;
  for (const Metric& m : reported) {
    if (!std::isfinite(m.value)) continue;
    if (!first) line += ',';
    first = false;
    relsched::base::append_json_string(line, m.name);
    line += ":{\"value\":";
    append_number(line, m.value);
    line += ',';
    append_kv_string(line, "unit", m.unit);
    line += '}';
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.correct && result.failed == 0 && result.attempted > 0 ? 0 : 1;
}
