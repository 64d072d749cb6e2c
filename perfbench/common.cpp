#include "common.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include "base/json.hpp"

namespace perfbench {

long long monotonic_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<long long>(ts.tv_sec) * 1'000'000'000LL + ts.tv_nsec;
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  // Nearest rank: the smallest value with at least q of the samples at
  // or below it.
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Samples::mean() const {
  if (values_.empty()) return 0;
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

double median_window_rate(std::vector<double> done_s, double phase_s) {
  constexpr std::size_t kWindows = 16;
  std::sort(done_s.begin(), done_s.end());
  const std::size_t per = done_s.size() / kWindows;
  if (per < 2) {
    return static_cast<double>(done_s.size()) / std::max(phase_s, 1e-9);
  }
  Samples rates;
  double window_start = 0;
  for (std::size_t w = 0; w < kWindows; ++w) {
    const double window_end = done_s[(w + 1) * per - 1];
    rates.add(static_cast<double>(per) /
              std::max(window_end - window_start, 1e-9));
    window_start = window_end;
  }
  return rates.median();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = static_cast<int>(tracer_.spans_.size());
  Span span;
  span.name = name;
  span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  span.op = tracer_.op_;
  tracer_.open_.push_back(index_);
  span.start_ns = monotonic_ns();
  tracer_.spans_.push_back(span);
}

void Tracer::Scope::rename(const char* name) {
  if (index_ >= 0) tracer_.spans_[static_cast<std::size_t>(index_)].name = name;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(index_)].end_ns = monotonic_ns();
  tracer_.open_.pop_back();
}

SelfTimes::SelfTimes(const std::vector<const Tracer*>& tracers) {
  for (const Tracer* tracer : tracers) {
    const auto& spans = tracer->spans();
    std::vector<double> child_us(spans.size(), 0.0);
    for (const auto& s : spans) {
      if (s.parent >= 0) {
        child_us[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      const double self =
          static_cast<double>(s.end_ns - s.start_ns) / 1000.0 - child_us[i];
      Per& per = per_name_[s.name];
      per.by_op[s.op] += self;
      per.each.add(self);
      per.total += self;
    }
  }
}

double SelfTimes::per_op_us(const std::string& name) const {
  const auto it = per_name_.find(name);
  if (it == per_name_.end() || it->second.by_op.empty()) return 0;
  return it->second.total / static_cast<double>(it->second.by_op.size());
}

double SelfTimes::p50_us(const std::string& name) const {
  const auto it = per_name_.find(name);
  return it == per_name_.end() ? 0 : it->second.each.median();
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers) {
  long long origin = 0;
  bool first_span = true;
  for (const Tracer* t : tracers) {
    for (const auto& s : t->spans()) {
      if (first_span || s.start_ns < origin) origin = s.start_ns;
      first_span = false;
    }
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[160];
  std::size_t budget = kMaxTraceEvents;
  for (const Tracer* t : tracers) {
    const auto& spans = t->spans();
    for (const auto& s : spans) {
      if (budget == 0) break;
      --budget;
      if (!first) out += ",\n";
      first = false;
      out += "{\"name\":";
      relsched::base::append_json_string(out, s.name);
      std::snprintf(buf, sizeof(buf),
                    ",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"op\":%lld,\"parent\":",
                    t->tid(), static_cast<double>(s.start_ns - origin) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.op);
      out += buf;
      relsched::base::append_json_string(
          out, s.parent >= 0 ? spans[static_cast<std::size_t>(s.parent)].name
                             : "");
      out += "}}";
    }
  }
  out += "]}\n";
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << out;
  return static_cast<bool>(file.flush());
}

void report_loop(Result& result, const Samples& op_ms, const Samples& query_ms,
                 double ops_per_s) {
  const auto ops = static_cast<long long>(op_ms.count());
  result.timing("op_p50_ms", op_ms.median(), "ms", ops);
  result.timing("op_p99_ms", op_ms.quantile(0.99), "ms", ops);
  result.timing("ops_per_s", ops_per_s, "1/s", ops);
  result.timing("query_p50_ms", query_ms.median(), "ms",
                static_cast<long long>(query_ms.count()));
  const bool resolved = ops >= 1000;
  result.info.emplace_back("p99_resolved", resolved ? "true" : "false");
  if (!resolved) {
    std::fprintf(stderr,
                 "perfbench: only %lld ops measured; op_p99_ms has fewer than "
                 "ten samples beyond it\n",
                 ops);
  }
}

double peak_rss_mb_self() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      // every workload: the closed loop's timings, without a bound
      {"loop.op_p50_ms", "ms"},
      {"loop.op_p99_ms", "ms"},
      {"loop.ops_per_s", "1/s"},
      {"loop.query_p50_ms", "ms"},
      // hls_suite
      {"hdl.compile_us", "us"},
      {"driver.synthesize_us", "us"},
      {"ctrl.control_us", "us"},
      {"rtl.datapath_us", "us"},
      {"lint.analyze_us", "us"},
      {"analyze.analyze_us", "us"},
      {"lint.json_us", "us"},
      {"analyze.json_us", "us"},
      // hls_suite and edit_stream
      {"engine.cold_resolve_us", "us"},
      {"anchors.compute_seq_us", "us"},
      {"anchors.compute_pool_us", "us"},
      // edit_stream
      {"cg.parse_us", "us"},
      {"analyze.full_us", "us"},
      {"engine.warm_resolve_us", "us"},
      {"engine.topo_us", "us"},
      {"wellposed.spfa_us", "us"},
      {"anchors.patch_us", "us"},
      {"sched.resched_us", "us"},
      {"engine.dirty_cone_vertices", "count"},
      {"anchors.rows_recomputed_ratio", "ratio"},
      {"engine.cold_resolves", "count"},
      {"engine.flips", "count"},
      {"analyze.reanalyze_us", "us"},
      {"analyze.cone_share", "ratio"},
      // serve_edits
      {"serve.requests", "count"},
      {"serve.shed", "count"},
      {"serve.evictions", "count"},
      {"serve.restores", "count"},
      {"serve.restore_cold_rebuilds", "count"},
      {"serve.deadline_trips", "count"},
      {"serve.internal_errors", "count"},
      {"serve.evict_rtt_us", "us"},
      {"serve.json_parse_us", "us"},
      {"serve.json_render_us", "us"},
      {"serve.frame_rtt_us", "us"},
      {"engine.txn_commit_us", "us"},
      {"persist.wal_commit_us", "us"},
      {"persist.checkpoint_us", "us"},
      {"persist.restore_us", "us"},
      {"certify.check_products_us", "us"},
      // every workload
      {"trace.overhead_pct", "%"},
  };
  return catalog;
}

void emit_per_layer(Result& result,
                    const std::map<std::string, double>& values) {
  std::map<std::string, double> all = values;
  for (const Metric& m : result.loop) all["loop." + m.name] = m.value;
  for (const auto& [name, unit] : per_layer_catalog()) {
    const auto it = all.find(name);
    result.layer(name, it == all.end() ? 0.0 : it->second, unit);
  }
}

}  // namespace perfbench
