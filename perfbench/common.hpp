// Shared pieces of the perfbench binary: clocks, latency samples, the
// span tracer behind the per-layer metrics, and the result record every
// workload fills in. See perfbench/README.md for what is measured.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double us_since(Clock::time_point start,
                                     Clock::time_point end = Clock::now()) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

/// CLOCK_MONOTONIC in nanoseconds. System-wide, so a parent can hand its
/// reading to a child process it spawns and the child can measure
/// "time since it was spawned".
[[nodiscard]] long long monotonic_ns();

/// Latency samples of one kind of operation.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  [[nodiscard]] std::size_t count() const { return values_.size(); }
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double mean() const;

 private:
  std::vector<double> values_;
};

/// Throughput of a closed-loop phase of `phase_s` seconds whose
/// operations completed at `done_s` (seconds since the phase started):
/// the phase is cut into 16 windows of equal operation count and the
/// median of their rates is reported, so a stall of the shared machine
/// moves a window or two, not the figure. Phases of fewer than 32
/// operations report the plain mean rate.
[[nodiscard]] double median_window_rate(std::vector<double> done_s,
                                        double phase_s);

/// Spans recorded around each call into a layer, kept in memory and
/// written at exit as Chrome trace-event JSON. A disabled tracer reads
/// no clocks and records nothing. One tracer per thread.
class Tracer {
 public:
  /// Operation id of spans outside any measured operation (set-up).
  static constexpr long long kSetupOp = -1;

  Tracer(bool enabled, int tid) : enabled_(enabled), tid_(tid) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Subsequent spans belong to operation `op`.
  void set_op(long long op) { op_ = op; }

  /// RAII span; its parent is the innermost span open on this tracer.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Names the span after the fact (e.g. warm vs cold resolve).
    void rename(const char* name);

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  struct Span {
    const char* name = "";
    long long start_ns = 0;
    long long end_ns = 0;
    int parent = -1;
    long long op = 0;
  };
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] int tid() const { return tid_; }

 private:
  bool enabled_;
  int tid_;
  long long op_ = kSetupOp;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Self times (span duration minus the part covered by its children),
/// grouped by span name, over the spans of several tracers.
class SelfTimes {
 public:
  explicit SelfTimes(const std::vector<const Tracer*>& tracers);
  /// Mean over the operations that called the layer of the layer's
  /// total self time within that operation, in microseconds.
  [[nodiscard]] double per_op_us(const std::string& name) const;
  /// Median self time of one span of this name, in microseconds.
  [[nodiscard]] double p50_us(const std::string& name) const;

 private:
  struct Per {
    std::map<long long, double> by_op;  // op id -> summed self time (us)
    Samples each;
    double total = 0;
  };
  std::map<std::string, Per> per_name_;
};

/// Most spans one trace file holds (about 30 MB of JSON); the per-layer
/// metrics always use every span.
inline constexpr std::size_t kMaxTraceEvents = 200000;

/// Writes the spans of `tracers`, in order and up to kMaxTraceEvents of
/// them per tracer list, as Chrome trace-event JSON ("X" events; args
/// carry the op id and the parent span's name). False on I/O failure.
[[nodiscard]] bool write_chrome_trace(const std::string& path,
                                      const std::vector<const Tracer*>& tracers);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Samples behind the value (0 for counts and single measurements).
  long long samples = 0;
};

/// What one workload run reports.
struct Result {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  /// Bounded: set-up time and peak memory.
  std::vector<Metric> end_to_end;
  /// The closed loop's latencies and rate (op_p50_ms, op_p99_ms,
  /// ops_per_s, query_p50_ms). Always printed; reported without a bound
  /// as the per-layer metrics loop.* (see README.md, "Why the loop
  /// timings carry no bound").
  std::vector<Metric> loop;
  std::vector<Metric> per_layer;
  /// Gate failures and other problems, one line each.
  std::vector<std::string> errors;
  /// Workers of the pool anchors.compute_pool_us ran on.
  int pool_threads = 0;
  /// Extra facts for the info line (already-rendered JSON values).
  std::vector<std::pair<std::string, std::string>> info;

  void fail_gate(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
  void e2e(std::string name, double value, std::string unit,
           long long samples = 0) {
    end_to_end.push_back({std::move(name), value, std::move(unit), samples});
  }
  void timing(std::string name, double value, std::string unit,
              long long samples = 0) {
    loop.push_back({std::move(name), value, std::move(unit), samples});
  }
  void layer(std::string name, double value, std::string unit,
             long long samples = 0) {
    per_layer.push_back({std::move(name), value, std::move(unit), samples});
  }
};

/// Command-line settings shared by the workloads.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// This executable (re-executed for process-cold set-up probes).
  std::string self_exe;
  /// The built relsched_serve daemon.
  std::string serve_bin;
  /// Scratch directory for state dirs, sockets and WAL files; a
  /// relative path, so socket names stay short.
  std::string work_dir;
  /// Where the traced run writes its Chrome trace.
  std::string trace_path;
};

/// Records the closed loop's timings (op_p50_ms, op_p99_ms, ops_per_s,
/// query_p50_ms, with their sample counts) and, in the info line,
/// whether the ops resolve a p99 (at least ten samples beyond it).
void report_loop(Result& result, const Samples& op_ms, const Samples& query_ms,
                 double ops_per_s);

/// Peak resident set of this process so far, in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb_self();

/// Set-ups per run before and after the measured phase, so their median
/// samples the host at both ends of the run (hls_suite also runs one
/// every second of the phase).
inline constexpr int kSetupsBefore = 4;
inline constexpr int kSetupsAfter = 5;

/// Ops after which an in-process workload reads its peak RSS: a fixed
/// amount of work, so the figure does not grow with how many ops the
/// host's speed let the run complete.
inline constexpr long long kRssAfterOps = 1000;

/// Every per-layer metric name with its unit, in report order. Each
/// workload reports all of them; a layer the workload never calls
/// reports 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_catalog();

/// Fills `result.per_layer` in catalog order from `values` (missing
/// names read 0); the loop.* entries come from `result.loop`.
void emit_per_layer(Result& result, const std::map<std::string, double>& values);

Result run_hls_suite(const Config& config);
Result run_edit_stream(const Config& config);
Result run_serve_edits(const Config& config);

/// Child mode of hls_suite's set-up probe: one process-cold pass over
/// the suite; prints the microseconds since `spawn_ns` on stdout.
int hls_setup_probe(long long spawn_ns);

}  // namespace perfbench
