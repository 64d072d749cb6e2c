// Incremental synthesis engine.
//
// A SynthesisSession owns one constraint graph plus every product the
// pipeline derives from it -- forward topological order, anchor
// analysis, well-posedness verdict, relative schedule -- cached and
// keyed by the graph's revision counter. Edits flow through the
// graph's journaled edit API (cg::ConstraintGraph::edits()); resolve()
// replays the journal suffix since the last resolve and chooses:
//
//   cold  - any structural edit (new vertex / sequencing edge /
//           anchor-status flip), an invalid cached state, or a patch
//           failure: recompute everything from scratch.
//   warm  - constraint-only edits on top of a scheduled state: patch
//           the dynamic topological order (Pearce-Kelly), flood the
//           dirty cone from the journal's seed vertices, re-establish
//           feasibility by label-correcting the previous schedule's
//           start-time potentials, update the anchor analysis on the
//           cone only, re-check containment on touched backward edges,
//           and warm-start the scheduler from the previous offsets.
//
// Warm results are bit-identical to a cold recompute of the edited
// graph (property-tested in tests/property_engine.cpp). Every resolve
// runs sequentially on the calling thread and schedules against the
// full anchor sets A(v); consumers that want R(v)/IR(v) offsets
// project them with sched::restrict_schedule (Theorems 4 and 6).
//
// Two batching mechanisms sit on top of single-edit resolves:
//
//   Transactions -- begin_txn()/commit() group a batch of edits into
//   one resolve. The commit floods ONE merged dirty cone (the union of
//   the per-edit cones) and dedupes touched anchor rows across the
//   whole batch, so a k-edit transaction pays for the union, not the
//   sum, of its edits. Intermediate states inside a transaction are
//   never materialized: edits may pass through infeasible or ill-posed
//   configurations as long as the committed graph resolves.
//
//   Forks -- fork() copies a resolved session with copy-on-write
//   products: the per-anchor path rows (the O(|anchors| * |V|) bulk)
//   stay physically shared with the parent until a fork's own warm
//   resolve patches them, so a forked candidate costs memory
//   proportional to its dirty cone, not the design. fork() is const
//   and thread-safe against concurrent fork() calls on the same
//   parent; the parent must not be edited or resolved while forks are
//   being taken (the explore::Explorer forks from an immutable base).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "anchors/anchor_analysis.hpp"
#include "base/vertex_mask.hpp"
#include "base/watchdog.hpp"
#include "cg/constraint_graph.hpp"
#include "graph/dynamic_topo.hpp"
#include "persist/serialize.hpp"
#include "persist/wal.hpp"
#include "sched/scheduler.hpp"
#include "wellposed/wellposed.hpp"

namespace relsched::engine {

/// True when the RELSCHED_CERTIFY environment variable parses as a
/// true boolean (read once per process, via the hardened base::env
/// parser: unrecognized values warn once on stderr and fall back to
/// off). The default for SessionOptions::certify, so CI can certify
/// every session of an existing test binary without touching its code.
[[nodiscard]] bool certify_default();

struct SessionOptions {
  /// Independently certify every resolve: successful products pass
  /// through certify::check_products (schedule valid over all delay
  /// profiles, Theorem 3 minimality, and the IR(v) sets control is
  /// built from), failure verdicts are cross-checked against a cold
  /// wellposed::check. A certificate failure increments
  /// SessionStats::certificate_failures, records the caught diag in
  /// Products::certificate, and transparently falls back to a cold
  /// recompute.
  bool certify = certify_default();

  // ---- Cooperative cancellation ------------------------------------------
  // Each resolve runs under a base::Watchdog built from these three
  // knobs; the SPFA/Bellman-Ford inner loops poll it once per quantum.
  // A stopped resolve yields products with ScheduleStatus::kCancelled
  // and a certify::Code::kTimeout diag (undecided, not a verdict), and
  // the next resolve recomputes cold.

  /// Shared cancel flag (e.g. flipped by the driver's signal handler).
  base::CancelToken cancel;
  /// Absolute wall-clock deadline for each resolve; kNoDeadline = none.
  std::chrono::steady_clock::time_point deadline =
      base::Watchdog::kNoDeadline;
  /// Iteration budget per resolve for the relaxation loops (0 = none):
  /// the safety net against a pathological graph whose O(V*E) feasibility
  /// check would outlive any wall-clock budget between polls.
  std::uint64_t step_limit = 0;
};

/// Deterministic fault-injection hook (tests/fuzz_certify.cpp). One
/// fault is armed via SynthesisSession::arm_fault() and fires at its
/// injection point during the next resolve()/commit(), then disarms.
/// Every fault class must be either caught by certification (cold
/// fallback, counter bumped) or provably harmless to the products.
struct FaultInjector {
  enum class Kind {
    kNone,
    /// Raise one cached start-time potential, masking relaxations the
    /// SPFA feasibility repair should have propagated.
    kCorruptPotential,
    /// Clear one vertex's dirty bit after the cone flood, so the
    /// anchor-analysis patch and containment recheck skip it.
    kFlipDirtyBit,
    /// Skip one journal entry's seeds when folding the edit suffix,
    /// as if the edit had never been journaled.
    kDropJournalEntry,
    /// Truncate one anchor's longest-path row (kNegInf tail), as if a
    /// row recompute had been interrupted.
    kTruncateAnchorRow,
    /// Flip one IR(v) bit of the patched analysis, as if the
    /// redundancy test had misjudged one (vertex, anchor) pair.
    kFlipIrredundantBit,
  };
  Kind kind = Kind::kNone;
  /// Selects the victim (vertex / journal entry / anchor) by modular
  /// arithmetic, so every seed is valid for every graph.
  std::uint64_t seed = 0;
};

/// Everything resolve() derives from the graph at one revision.
/// Wellposed/feasibility failures surface through `schedule.status`
/// exactly like sched::schedule's prechecks would report them.
struct Products {
  /// Graph revision these products were computed at.
  std::uint64_t revision = 0;
  anchors::AnchorAnalysis analysis;
  sched::ScheduleResult schedule;
  /// Forward topological order the schedule was computed with.
  std::vector<int> topo;
  /// What certification caught, when it caught anything (kNone
  /// otherwise): these products then come from the cold fallback, and
  /// `certificate` records why the warm results were rejected.
  certify::Diag certificate;

  [[nodiscard]] bool ok() const { return schedule.ok(); }
};

struct SessionStats {
  int cold_resolves = 0;
  int warm_resolves = 0;
  /// Per-anchor path rows recomputed across warm resolves, vs. the
  /// rows a cold recompute would have rebuilt each time.
  long long anchor_rows_recomputed = 0;
  long long anchor_rows_cold_equivalent = 0;
  /// Dirty-cone size of the most recent warm resolve.
  int last_affected_vertices = 0;

  // ---- Transactions ------------------------------------------------------
  /// commit() calls served.
  int transactions = 0;
  /// Journaled edits folded into committed transactions.
  long long edits_coalesced = 0;
  /// Edits in the most recent commit().
  int last_txn_edits = 0;
  /// Cone accounting of the most recent commit(): the merged cone the
  /// batch actually floods (|union of per-edit cones|) vs. the sum of
  /// the per-edit cones that one-resolve-per-edit would have flooded.
  /// merged <= sum always, with equality exactly when the per-edit
  /// cones are pairwise disjoint.
  int last_merged_cone_vertices = 0;
  long long last_cone_vertices_sum = 0;

  // ---- Forks -------------------------------------------------------------
  /// fork() calls served by this session.
  long long forks_taken = 0;
  /// Value arrays of products().analysis (length cells, defining
  /// cells: at most 2) still physically shared with a fork relative
  /// (copy-on-write), at the time stats() was called.
  int anchor_rows_shared = 0;

  // ---- Crash safety ------------------------------------------------------
  /// Resolves stopped by the cancellation watchdog (deadline, cancel
  /// token, or step limit). Counted separately from cold/warm: a
  /// cancelled resolve produces no usable products.
  int cancelled_resolves = 0;
  /// checkpoint() calls that wrote a snapshot.
  int checkpoints = 0;
  /// Sessions recovered through restore() into this session (0 or 1).
  int restores = 0;
  /// Restores whose recovered products failed certification and were
  /// discarded in favor of a cold re-resolve.
  int restore_cold_fallbacks = 0;
  /// Write-ahead-log traffic since the WAL was attached or last reset.
  long long wal_records = 0;
  long long wal_fsyncs = 0;
  /// Transient WAL write failures (EINTR/EAGAIN/partial writes)
  /// absorbed by the bounded-backoff retry loop. Nonzero without a WAL
  /// error means appends survived a flaky filesystem.
  long long wal_retries = 0;

  // ---- Certification -----------------------------------------------------
  /// Resolves whose products (or failure verdicts) passed independent
  /// certification.
  long long certified_resolves = 0;
  /// Certificates that failed; each forced a transparent cold
  /// fallback. Nonzero on a clean run indicates an engine bug (or an
  /// injected fault that was caught, which is the point).
  int certificate_failures = 0;
  /// Cumulative certification time (microseconds).
  double certify_us = 0;

  // ---- Warm-path phase breakdown (cumulative microseconds) ---------------
  /// Pearce-Kelly topological-order patching plus the dirty-cone flood.
  double warm_topo_us = 0;
  /// SPFA feasibility repair of the start-time potentials.
  double warm_spfa_us = 0;
  /// In-place anchor-analysis patch plus backward-edge containment
  /// recheck.
  double warm_anchor_us = 0;
  /// Warm-started rescheduling.
  double warm_resched_us = 0;
};

class SynthesisSession {
 public:
  explicit SynthesisSession(cg::ConstraintGraph graph,
                            SessionOptions options = {});

  SynthesisSession(SynthesisSession&&) = default;
  SynthesisSession& operator=(SynthesisSession&&) = default;

  [[nodiscard]] const cg::ConstraintGraph& graph() const { return graph_; }

  /// Escape hatch for mutations outside the journaled edit API below;
  /// the next resolve() is forced cold. Incompatible with an attached
  /// WAL: out-of-band mutations would not be logged, so recovery would
  /// replay onto a graph the log has never seen.
  cg::ConstraintGraph& mutable_graph() {
    RELSCHED_CHECK(wal_ == nullptr,
                   "mutable_graph() bypasses the write-ahead log; detach or "
                   "avoid it on journaled sessions");
    force_cold_ = true;
    return graph_;
  }

  // ---- Edits (forwarded to the graph's journaled edit API) ---------------
  // Each wrapper appends a WAL record after the graph mutation succeeds
  // (no-op without an attached WAL), carrying the post-edit revision so
  // recovery can line records up against a snapshot.

  EdgeId add_min_constraint(VertexId from, VertexId to, int min_cycles) {
    const EdgeId e = graph_.add_min_constraint(from, to, min_cycles);
    wal_edit(persist::WalRecord::Op::kAddMin, from.value(), to.value(),
             min_cycles);
    return e;
  }
  EdgeId add_max_constraint(VertexId from, VertexId to, int max_cycles) {
    const EdgeId e = graph_.add_max_constraint(from, to, max_cycles);
    wal_edit(persist::WalRecord::Op::kAddMax, from.value(), to.value(),
             max_cycles);
    return e;
  }
  void remove_constraint(EdgeId e) {
    graph_.remove_constraint(e);
    wal_edit(persist::WalRecord::Op::kRemoveConstraint, e.value(), 0, 0);
  }
  void set_constraint_bound(EdgeId e, int cycles) {
    graph_.set_constraint_bound(e, cycles);
    wal_edit(persist::WalRecord::Op::kSetBound, e.value(), 0, cycles);
  }
  void set_delay(VertexId v, cg::Delay delay) {
    graph_.set_delay(v, delay);
    wal_edit(persist::WalRecord::Op::kSetDelay, v.value(), 0,
             delay.is_bounded() ? static_cast<std::int64_t>(delay.cycles())
                                : std::int64_t{-1});
  }

  // ---- Transactions ------------------------------------------------------

  /// Opens an edit transaction. Edits are journaled as usual but must
  /// not be resolved until commit(); the commit folds the whole batch
  /// into one merged-cone resolve. Transactions do not nest.
  void begin_txn();

  /// Closes the transaction opened by begin_txn(), records the batch's
  /// cone-coalescing statistics, and resolves. Returns the products of
  /// the committed graph.
  const Products& commit();

  [[nodiscard]] bool in_txn() const { return in_txn_; }

  // ---- Forking -----------------------------------------------------------

  /// Copies this session for an independent what-if exploration. The
  /// fork starts resolved at the same revision with copy-on-write
  /// products (anchor path rows shared until patched) and an empty
  /// journal (the parent graph's retained journal is rebased away).
  /// Requires a current resolve() and no open transaction. Thread-safe
  /// against concurrent fork() calls on the same parent as long as the
  /// parent is not concurrently edited or resolved.
  [[nodiscard]] SynthesisSession fork() const;

  // ---- Resolution --------------------------------------------------------

  /// Brings the cached products up to the graph's current revision and
  /// returns them. No-op when already current. Must not be called with
  /// a transaction open (commit() instead).
  const Products& resolve();

  /// Last resolved products (resolve() must have run at least once).
  [[nodiscard]] const Products& products() const { return products_; }

  /// True when the most recent resolve()/commit() was served by the
  /// warm path and its products survived certification (no cold
  /// fallback, no cancellation).
  [[nodiscard]] bool last_resolve_was_warm() const {
    return last_resolve_was_warm_;
  }

  /// Arms one fault to fire during the next resolve()/commit()
  /// (tests only; see FaultInjector). Overwrites any pending fault.
  void arm_fault(FaultInjector fault) { fault_ = fault; }

  /// Total resolves served so far (cold + warm + cancelled): a cheap
  /// monotone staleness token for consumers caching reports derived
  /// from products (analyze::IncrementalAnalyzer). Together with the
  /// products' revision it tells whether the products changed since a
  /// report was built.
  [[nodiscard]] long long resolve_count() const {
    return static_cast<long long>(stats_.cold_resolves) +
           stats_.warm_resolves + stats_.cancelled_resolves;
  }

  /// Counters and timings. Returned by value: the fork counter is
  /// updated from const fork() calls and folded in here, and the
  /// shared-row count is sampled at call time.
  [[nodiscard]] SessionStats stats() const;

  /// Replaces the cancellation knobs (cancel token, deadline, step
  /// limit) for subsequent resolves; the other options are untouched.
  void set_cancellation(base::CancelToken cancel,
                        std::chrono::steady_clock::time_point deadline =
                            base::Watchdog::kNoDeadline,
                        std::uint64_t step_limit = 0) {
    options_.cancel = std::move(cancel);
    options_.deadline = deadline;
    options_.step_limit = step_limit;
  }

  /// Forces the next resolve() to recompute everything from scratch
  /// instead of patching cached products. Unlike mutable_graph() the
  /// graph itself is untouched, so this is safe on journaled sessions;
  /// the serving layer uses it to run quarantined (suspect) sessions
  /// in certified-cold mode.
  void force_cold() { force_cold_ = true; }

  /// Toggles independent certification for subsequent resolves (see
  /// SessionOptions::certify). The serving layer switches it on when a
  /// poison request marks a session suspect.
  void set_certify(bool on) { options_.certify = on; }

  [[nodiscard]] bool certify_enabled() const { return options_.certify; }

  // ---- Crash safety ------------------------------------------------------

  /// Attaches a write-ahead log at `path` (created empty at the current
  /// revision if absent, appended to otherwise). From then on every
  /// journaled edit is appended to the log, and each resolve()/commit()
  /// writes a commit marker and makes the log durable (per the sync
  /// policy) *before* products are recomputed. Precondition: any
  /// existing log at `path` has already been replayed into this session
  /// (replay_wal()), so its tail lines up with the current revision.
  /// Returns a non-ok Error (and attaches nothing) on I/O failure.
  [[nodiscard]] persist::Error attach_wal(
      const std::string& path,
      persist::WalOptions options = persist::WalOptions::from_env());

  [[nodiscard]] bool wal_attached() const { return wal_ != nullptr; }

  /// Error state of the attached WAL (ok() when healthy or when no WAL
  /// is attached). A dead log keeps the session serving -- appends
  /// become no-ops -- but recovery would lose the un-logged suffix, so
  /// callers that promise durability must watch this and rebuild.
  [[nodiscard]] persist::Error wal_error() const {
    return wal_ != nullptr ? wal_->error() : persist::Error{};
  }

  /// Drops the attached WAL (closing its file) without touching the
  /// graph or products. Subsequent edits are no longer journaled. The
  /// serving layer uses this to rebuild durability after a WAL hard
  /// error: detach the dead log, snapshot the live state, re-attach a
  /// fresh log.
  void detach_wal() { wal_.reset(); }

  /// Writes a crash-consistent snapshot of the whole session (graph,
  /// products, stats, topological order) into `dir` via
  /// write-temp-then-rename, then truncates the attached WAL (if any):
  /// a snapshot subsumes every record before it. Must not be called
  /// inside an open transaction. Pending unresolved edits are captured;
  /// the restored session recomputes them cold on its first resolve.
  [[nodiscard]] persist::Error checkpoint(const std::string& dir);

  /// What restore()/replay_wal() found. `error` is the fatal verdict;
  /// the rest is forensic detail for logs and tests.
  struct RestoreReport {
    persist::Error error;
    /// The WAL ended in an incomplete record (interrupted append). The
    /// tail was dropped -- that edit never committed -- and the log was
    /// truncated back to its last durable record.
    bool wal_torn_tail = false;
    std::string wal_torn_detail;
    int replayed_edits = 0;
    int replayed_resolves = 0;
    /// Restored products failed re-certification; they were discarded
    /// and recomputed cold (counted in SessionStats too).
    bool cold_fallback = false;

    [[nodiscard]] bool ok() const { return error.ok(); }
  };

  /// Recovers a session from checkpoint directory `dir`: loads the
  /// snapshot, replays the WAL tail (if a WAL file exists), and runs
  /// certify::check_products on the recovered products before trusting
  /// them -- on certificate failure the products are recomputed cold
  /// and the fallback is counted. Returns nullopt (with report->error
  /// set) when the snapshot or WAL is missing, torn mid-file, corrupt
  /// (a nonzero schedule-mode byte included), or out of step with each
  /// other. Does not attach the WAL; call
  /// attach_wal() afterwards to keep journaling.
  [[nodiscard]] static std::optional<SynthesisSession> restore(
      const std::string& dir, SessionOptions options, RestoreReport* report);

  /// Replays a WAL's records on top of this session's current state:
  /// edits with revisions the session has not seen are re-applied
  /// through the edit API, and each commit marker past the resolved
  /// revision triggers a resolve(). A torn tail is reported, not fatal;
  /// mid-file corruption is. Precondition: no WAL attached yet.
  [[nodiscard]] persist::Error replay_wal(const std::string& path,
                                          RestoreReport* report = nullptr);

  /// Applies a batch of WAL records (already parsed, e.g. streamed from
  /// a replication primary) on top of the current state: edits with
  /// revisions the session has not seen are re-applied through the
  /// journaled edit API -- so with a WAL attached, replicated edits are
  /// re-journaled into *this* session's own log -- and each commit
  /// marker past the resolved revision triggers a resolve(). `origin`
  /// labels errors (a path or peer name). replay_wal() is this plus
  /// reading the file.
  [[nodiscard]] persist::Error apply_records(
      const std::vector<persist::WalRecord>& records, const std::string& origin,
      RestoreReport* report = nullptr);

  /// Flushes the attached WAL's buffered records to the kernel without
  /// fsync (no-op when detached). Replication tails the log file at
  /// commit points; the durability policy still owns fsync timing.
  void flush_wal() {
    if (wal_ != nullptr) wal_->flush_now();
  }

 private:
  void cold_resolve();
  /// Warm path; returns false when it must defer to cold_resolve()
  /// (e.g. a min-constraint insertion closed a forward cycle).
  bool try_incremental(const std::vector<VertexId>& seeds,
                       bool forward_changed);
  /// Independent certification of the just-computed warm products
  /// (successful products and failure verdicts alike). Returns the
  /// diag certification caught -- ok() when everything checked out.
  [[nodiscard]] certify::Diag certify_warm_products();
  /// Certifies cold products when options_.certify is set. There is no
  /// slower path to fall back to, so a failure here is a hard error
  /// (RELSCHED_CHECK).
  void certify_cold_products();
  /// Refreshes topo/potentials after a successful schedule.
  void adopt_schedule();
  /// |reachable set| from `seeds` over the current full graph; the
  /// cone-accounting primitive behind commit()'s statistics.
  [[nodiscard]] int flood_count(std::span<const VertexId> seeds) const;
  /// Replaces products_ with a kCancelled/kTimeout verdict carrying the
  /// watchdog's stop reason; the next resolve recomputes cold.
  void cancelled_products();
  /// Appends one edit record to the attached WAL (no-op without one).
  void wal_edit(persist::WalRecord::Op op, std::int32_t a, std::int32_t b,
                std::int64_t value) {
    if (wal_ == nullptr) return;
    persist::WalRecord rec;
    rec.op = op;
    rec.revision = graph_.revision();
    rec.a = a;
    rec.b = b;
    rec.value = value;
    wal_->append(rec);
  }
  /// Re-certifies just-restored products; discards them (cold
  /// re-resolve) when the certificate fails.
  void verify_restored(RestoreReport& report);

  cg::ConstraintGraph graph_;
  SessionOptions options_;
  Products products_;
  SessionStats stats_;
  /// Forks served, shared-pointer-boxed so fork() can stay const (and
  /// concurrently callable) while the session object remains movable.
  std::shared_ptr<std::atomic<long long>> forks_taken_ =
      std::make_shared<std::atomic<long long>>(0);
  /// Pearce-Kelly order over Gf, patched per forward-edge edit.
  graph::DynamicTopoOrder topo_;
  /// Zero-profile start times of the last valid schedule: a potential
  /// function satisfying every G0 edge, re-used as the starting point
  /// for incremental feasibility.
  std::vector<graph::Weight> potentials_;
  /// Dirty cone of the last warm resolve: every vertex whose derived
  /// products (anchor sets, path rows, offsets) may differ from the
  /// previous resolve. The warm path's work list.
  std::vector<VertexId> last_dirty_cone_;
  // ---- Pooled warm-path scratch ------------------------------------------
  // Reset per resolve, never shrunk: a warm resolve at 10^5 vertices
  // must not pay O(V) allocations before touching its (small) cone.
  /// Membership mask of the merged dirty cone in flight.
  base::VertexMask affected_mask_;
  /// The cone listed in forward topological order (UpdatePlan /
  /// cone-restricted reschedule input).
  std::vector<VertexId> affected_topo_;
  /// Seed dedup for the journal-suffix fold.
  base::VertexMask fold_seen_;
  /// SPFA feasibility scratch, scrubbed incrementally across resolves.
  wellposed::SpfaWorkspace spfa_ws_;
  /// Dense per-anchor sweep rows for the warm anchor patch.
  anchors::SweepWorkspace anchor_ws_;
  /// flood_count() scratch; mutable because cone accounting runs from
  /// the const statistics helper.
  mutable base::VertexMask flood_mask_;
  mutable std::vector<VertexId> flood_worklist_;
  bool last_resolve_was_warm_ = false;
  /// Journal entries already folded into `products_`, as an absolute
  /// revision (survives the graph's journal rebases).
  std::uint64_t consumed_edits_ = 0;
  bool resolved_once_ = false;
  bool force_cold_ = false;
  bool in_txn_ = false;
  /// Pending injected fault (tests); disarmed at its injection point.
  FaultInjector fault_;
  /// Attached write-ahead log (crash safety); null when not journaling.
  std::unique_ptr<persist::Wal> wal_;
  /// Watchdog of the resolve in flight, rebuilt from options_ at the
  /// top of each resolve() and threaded into the relaxation loops.
  base::Watchdog watchdog_;
};

// ---- Checkpoint payload helpers -------------------------------------------
// Shared with the exploration layer's own checkpoint format.

void save_products(persist::Writer& w, const Products& products);
[[nodiscard]] bool load_products(persist::Reader& r, Products* out);
void save_stats(persist::Writer& w, const SessionStats& stats);
[[nodiscard]] bool load_stats(persist::Reader& r, SessionStats* out);

}  // namespace relsched::engine
