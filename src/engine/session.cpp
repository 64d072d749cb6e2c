#include "engine/session.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "base/env.hpp"
#include "base/error.hpp"
#include "base/strings.hpp"
#include "certify/certify.hpp"
#include "persist/snapshot.hpp"

namespace relsched::engine {

namespace {

using Clock = std::chrono::steady_clock;

/// Framed-file identity of session snapshots (see persist/serialize.hpp).
constexpr std::string_view kSnapshotMagic = "RSNAP001";
// v2: anchor analysis serialized as anchor-domain + bitset rows (the
// struct-of-arrays core refactor). v3: SessionStats grew wal_retries
// (the serving layer's flaky-filesystem counter). Older snapshots are
// not readable.
constexpr std::uint32_t kSnapshotVersion = 4;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

bool certify_default() {
  static const bool enabled = base::env_flag("RELSCHED_CERTIFY", false);
  return enabled;
}

SynthesisSession::SynthesisSession(cg::ConstraintGraph graph,
                                   SessionOptions options)
    : graph_(std::move(graph)), options_(options) {
  // Construction-time history is irrelevant: the first resolve is cold.
  // Drop it (and its capacity) instead of holding one entry per vertex
  // and edge for the session's lifetime; revision() is unchanged.
  graph_.rebase_journal();
  consumed_edits_ = graph_.revision();
}

SessionStats SynthesisSession::stats() const {
  SessionStats s = stats_;
  s.forks_taken = forks_taken_->load(std::memory_order_relaxed);
  s.anchor_rows_shared = products_.analysis.cell_arrays_shared();
  if (wal_ != nullptr) {
    s.wal_records = wal_->appended_records();
    s.wal_fsyncs = wal_->fsyncs();
    s.wal_retries = wal_->retries();
  }
  return s;
}

void SynthesisSession::begin_txn() {
  RELSCHED_CHECK(!in_txn_, "transactions do not nest");
  in_txn_ = true;
}

const Products& SynthesisSession::commit() {
  RELSCHED_CHECK(in_txn_, "commit() without begin_txn()");
  in_txn_ = false;

  // Cone accounting for the batch: what one-resolve-per-edit would have
  // flooded (sum of per-edit cones) vs. the single merged cone this
  // commit floods. Both are measured on the committed graph so the
  // comparison is apples-to-apples; skipped when the batch contains a
  // structural edit, which forces a cold resolve with no cone at all.
  const std::vector<cg::Edit>& edits = graph_.edits();
  const std::uint64_t base = graph_.journal_base();
  RELSCHED_CHECK(consumed_edits_ >= base, "journal rebased past consumer");
  const std::size_t begin = static_cast<std::size_t>(consumed_edits_ - base);
  stats_.last_txn_edits = static_cast<int>(edits.size() - begin);
  ++stats_.transactions;
  stats_.edits_coalesced += stats_.last_txn_edits;
  stats_.last_merged_cone_vertices = 0;
  stats_.last_cone_vertices_sum = 0;

  bool structural = false;
  for (std::size_t i = begin; i < edits.size(); ++i) {
    structural = structural || edits[i].structural;
  }
  if (!structural && resolved_once_) {
    long long sum = 0;
    std::vector<VertexId> merged_seeds;
    for (std::size_t i = begin; i < edits.size(); ++i) {
      const cg::Edit::Seeds seeds = edits[i].seeds();
      sum += flood_count(seeds);
      merged_seeds.insert(merged_seeds.end(), seeds.begin(), seeds.end());
    }
    stats_.last_cone_vertices_sum = sum;
    stats_.last_merged_cone_vertices = flood_count(merged_seeds);
  }
  return resolve();
}

int SynthesisSession::flood_count(std::span<const VertexId> seeds) const {
  flood_mask_.reset(graph_.vertex_count());
  flood_worklist_.clear();
  for (VertexId s : seeds) {
    if (!flood_mask_.contains(s)) {
      flood_mask_.insert(s);
      flood_worklist_.push_back(s);
    }
  }
  for (std::size_t i = 0; i < flood_worklist_.size(); ++i) {
    for (EdgeId eid : graph_.out_edges(flood_worklist_[i])) {
      const VertexId next = graph_.edge(eid).to;
      if (!flood_mask_.contains(next)) {
        flood_mask_.insert(next);
        flood_worklist_.push_back(next);
      }
    }
  }
  return static_cast<int>(flood_worklist_.size());
}

SynthesisSession SynthesisSession::fork() const {
  RELSCHED_CHECK(resolved_once_ && !force_cold_ && !in_txn_ &&
                     products_.revision == graph_.revision(),
                 "fork() requires a current resolve() and no open transaction");
  // Branch point: the constructor starts the fork's journal empty at
  // the same revision, so the parent's consumed edit history is not
  // dragged along.
  SynthesisSession f(graph_, options_);
  // Copy-on-write product copy: the anchor analysis's value arrays stay
  // shared with this session until the fork's own resolves patch them.
  f.products_ = products_;
  f.topo_ = topo_;
  f.potentials_ = potentials_;
  f.resolved_once_ = true;
  forks_taken_->fetch_add(1, std::memory_order_relaxed);
  return f;
}

const Products& SynthesisSession::resolve() {
  RELSCHED_CHECK(!in_txn_, "resolve() inside an open transaction");
  if (resolved_once_ && !force_cold_ &&
      products_.revision == graph_.revision()) {
    return products_;
  }
  last_resolve_was_warm_ = false;

  // Write-ahead commit point: the resolve marker -- and transitively
  // every buffered edit record before it -- reaches the log (durably,
  // per the sync policy) before any product is recomputed, so recovery
  // can never observe products the log has not heard of.
  if (wal_ != nullptr) {
    persist::WalRecord marker;
    marker.op = persist::WalRecord::Op::kResolve;
    marker.revision = graph_.revision();
    wal_->append(marker);
    wal_->sync_for_commit();
  }

  // One watchdog per resolve: the relaxation loops below charge their
  // work to it and the resolve degrades to kCancelled products when it
  // trips (deadline, cancel token, or step budget).
  watchdog_ =
      base::Watchdog(options_.cancel, options_.deadline, options_.step_limit);

  // Fold the journal suffix into one dirty description: the union of
  // the edits' seed vertices, deduped, floods a single merged cone in
  // try_incremental() no matter how many edits the suffix holds.
  const std::vector<cg::Edit>& edits = graph_.edits();
  const std::uint64_t base = graph_.journal_base();
  RELSCHED_CHECK(consumed_edits_ >= base, "journal rebased past consumer");
  bool structural = force_cold_ || !resolved_once_ || !products_.ok();
  bool forward_changed = false;
  std::vector<VertexId> seeds;
  fold_seen_.reset(graph_.vertex_count());
  const std::size_t fold_begin =
      static_cast<std::size_t>(consumed_edits_ - base);
  // Fault injection (tests): pretend one suffix entry was never
  // journaled, so its seeds are missing from the merged dirty cone.
  std::size_t dropped_entry = edits.size();
  if (fault_.kind == FaultInjector::Kind::kDropJournalEntry &&
      edits.size() > fold_begin) {
    dropped_entry = fold_begin + static_cast<std::size_t>(
                                     fault_.seed % (edits.size() - fold_begin));
    fault_.kind = FaultInjector::Kind::kNone;
  }
  for (std::size_t i = fold_begin; i < edits.size(); ++i) {
    if (i == dropped_entry) continue;
    const cg::Edit& e = edits[i];
    if (e.structural) structural = true;
    if (e.forward && (e.kind == cg::Edit::Kind::kAddMinConstraint ||
                      e.kind == cg::Edit::Kind::kRemoveConstraint)) {
      forward_changed = true;
    }
    for (VertexId s : e.seeds()) {
      // A structural edit may have grown the vertex set past the mask;
      // irrelevant, since structural forces the cold path anyway.
      if (structural) break;
      if (!fold_seen_.contains(s)) {
        fold_seen_.insert(s);
        seeds.push_back(s);
      }
    }
  }
  consumed_edits_ = graph_.revision();

  // A watchdog-stopped resolve leaves kCancelled products (set by the
  // path that observed the stop); those are never certified -- "stopped
  // early" is not a verdict a cold cross-check could agree with -- and
  // the next resolve recomputes cold (kCancelled products are not ok()).
  if (structural || !try_incremental(seeds, forward_changed)) {
    cold_resolve();
    if (watchdog_.stopped()) {
      ++stats_.cancelled_resolves;
    } else {
      ++stats_.cold_resolves;
      certify_cold_products();
    }
  } else if (watchdog_.stopped()) {
    ++stats_.cancelled_resolves;
  } else {
    ++stats_.warm_resolves;
    if (const certify::Diag caught = certify_warm_products(); !caught.ok()) {
      // Graceful degradation: the warm products failed independent
      // certification. The graph itself is untouched (only cached
      // products are suspect), so a full cold recompute transparently
      // restores correct products; `certificate` records the catch.
      ++stats_.certificate_failures;
      cold_resolve();
      if (watchdog_.stopped()) {
        ++stats_.cancelled_resolves;
      } else {
        ++stats_.cold_resolves;
        products_.certificate = caught;
        certify_cold_products();
      }
    } else {
      last_resolve_was_warm_ = true;
    }
  }
  resolved_once_ = true;
  // A stopped resolve keeps force_cold_ set: its kCancelled products
  // are stamped current (so checkpoints capture them as pending-cold),
  // but the next resolve must recompute instead of early-returning the
  // stale verdict.
  force_cold_ = watchdog_.stopped();
  products_.revision = graph_.revision();
  return products_;
}

void SynthesisSession::adopt_schedule() {
  products_.topo = topo_.order();
  potentials_ =
      products_.schedule.schedule.start_times(graph_, {}, topo_.order());
}

void SynthesisSession::cold_resolve() {
  last_resolve_was_warm_ = false;
  last_dirty_cone_.clear();
  products_ = Products{};
  sched::ScheduleResult& out = products_.schedule;

  // One projection of Gf and one topological order serve the whole
  // cold pass: validation, anchor sets and the schedule all read them.
  // The order is reset first, on every exit path, so it stays coherent
  // with the graph: failed resolves (invalid, infeasible, ill-posed,
  // cancelled) do not patch the order edge-by-edge the way the warm
  // path does, so without this reset a checkpoint taken after
  // edit -> failed-resolve would persist an order the edited graph no
  // longer satisfies, and restore would reject its own snapshot. (On a
  // forward cycle the reset fails, flagging the order invalid.)
  {
    const graph::Digraph forward = graph_.project_forward();
    const bool acyclic = topo_.reset(forward);
    if (const auto issues = graph_.validate(forward, acyclic);
        !issues.empty()) {
      out.status = sched::ScheduleStatus::kInvalidGraph;
      out.message = issues.front().message;
      return;
    }
  }
  // AnchorAnalysis::compute requires feasibility, so check() cannot be
  // deferred past it.
  if (!wellposed::is_feasible(graph_, &watchdog_)) {
    if (watchdog_.stopped()) {
      // Aborted, not infeasible: feasibility is undecided.
      cancelled_products();
      return;
    }
    out.status = sched::ScheduleStatus::kInfeasible;
    out.message = "positive cycle with unbounded delays set to 0";
    out.diag = certify::find_positive_cycle(graph_);
    return;
  }
  products_.analysis =
      anchors::AnchorAnalysis::compute(graph_, topo_.order());
  const wellposed::CheckResult wp =
      wellposed::check(graph_, products_.analysis.anchor_sets());
  if (wp.status == wellposed::Status::kIllPosed) {
    out.status = sched::ScheduleStatus::kIllPosed;
    out.message = wp.message;
    out.diag = wp.diag;
    return;
  }

  sched::ScheduleOptions sopts;
  sopts.prechecks = false;
  out = sched::schedule(graph_, products_.analysis, topo_.order(), sopts);
  stats_.anchor_rows_recomputed += products_.analysis.rows_recomputed();
  stats_.anchor_rows_cold_equivalent += products_.analysis.rows_recomputed();
  if (out.ok()) adopt_schedule();
}

bool SynthesisSession::try_incremental(const std::vector<VertexId>& seeds,
                                       bool forward_changed) {
  // Patch the topological order edge by edge, in journal order. A
  // min-constraint insertion that closes a forward cycle makes the
  // graph invalid; defer to the cold path, which reports it.
  if (!topo_.valid()) return false;
  const Clock::time_point t_begin = Clock::now();
  // The journal suffix since the last resolve: products_.revision is
  // the absolute revision the cached products were computed at.
  const std::vector<cg::Edit>& edits = graph_.edits();
  const std::uint64_t base = graph_.journal_base();
  for (std::size_t i = static_cast<std::size_t>(products_.revision - base);
       i < edits.size(); ++i) {
    const cg::Edit& e = edits[i];
    switch (e.kind) {
      case cg::Edit::Kind::kAddMinConstraint:
        if (!topo_.add_arc(e.from.value(), e.to.value())) return false;
        break;
      case cg::Edit::Kind::kRemoveConstraint:
        if (e.forward) {
          RELSCHED_CHECK(topo_.remove_arc(e.from.value(), e.to.value()),
                         "topo mirror out of sync with the graph");
        }
        break;
      default:
        break;  // backward edges and re-weights never touch Gf's order
    }
  }

  // Dirty cone: everything reachable from a seed in the current full
  // graph. One flood covers the whole journal suffix -- k edits, one
  // merged cone. (Removal edits seed their endpoints: the surviving
  // suffix of any killed path hangs off some removal's head, so shrunk
  // paths are covered too; see cg::Edit::seeds().) The mask is pooled and
  // the worklist doubles as the published cone: the flood costs
  // O(|cone|), not O(V).
  affected_mask_.reset(graph_.vertex_count());
  last_dirty_cone_.clear();
  for (VertexId s : seeds) {
    if (!affected_mask_.contains(s)) {
      affected_mask_.insert(s);
      last_dirty_cone_.push_back(s);
    }
  }
  for (std::size_t i = 0; i < last_dirty_cone_.size(); ++i) {
    for (EdgeId eid : graph_.out_edges(last_dirty_cone_[i])) {
      const VertexId next = graph_.edge(eid).to;
      if (!affected_mask_.contains(next)) {
        affected_mask_.insert(next);
        last_dirty_cone_.push_back(next);
      }
    }
  }
  stats_.last_affected_vertices = static_cast<int>(last_dirty_cone_.size());
  // Fault injection (tests): clear one dirty bit, so the anchor patch
  // and containment recheck below skip a vertex whose products may
  // have changed.
  if (fault_.kind == FaultInjector::Kind::kFlipDirtyBit &&
      !last_dirty_cone_.empty()) {
    affected_mask_.erase(
        last_dirty_cone_[fault_.seed % last_dirty_cone_.size()]);
    fault_.kind = FaultInjector::Kind::kNone;
  }
  // The cone in forward topological order: the anchor patch's
  // relaxation sweeps and the cone-restricted reschedule both walk it
  // front-to-back instead of scanning all V positions for dirty bits.
  // (Filtered through the mask so an injected kFlipDirtyBit victim is
  // skipped by every downstream consumer, like the old bit-scan was.)
  affected_topo_.clear();
  for (VertexId v : last_dirty_cone_) {
    if (affected_mask_.contains(v)) affected_topo_.push_back(v);
  }
  std::sort(affected_topo_.begin(), affected_topo_.end(),
            [this](VertexId a, VertexId b) {
              return topo_.position(a.value()) < topo_.position(b.value());
            });
  const Clock::time_point t_topo = Clock::now();
  stats_.warm_topo_us += us_between(t_begin, t_topo);

  // Feasibility: repair the previous potentials from the seeds, in
  // place. On any failure path below, products_ is not ok(), so the
  // next resolve goes cold and recomputes potentials_ before the warm
  // path can read them again.
  // Fault injection (tests): raise one cached potential, absorbing
  // relaxations the SPFA repair should have propagated through it
  // (can mask a positive cycle behind the victim).
  if (fault_.kind == FaultInjector::Kind::kCorruptPotential &&
      !potentials_.empty()) {
    potentials_[fault_.seed % potentials_.size()] =
        graph::saturating_add(potentials_[fault_.seed % potentials_.size()],
                              1000);
    fault_.kind = FaultInjector::Kind::kNone;
  }
  if (!wellposed::is_feasible_incremental(graph_, potentials_, seeds, spfa_ws_,
                                          &watchdog_)) {
    stats_.warm_spfa_us += us_between(t_topo, Clock::now());
    if (watchdog_.stopped()) {
      // Aborted, not infeasible: feasibility is undecided.
      cancelled_products();
      return true;
    }
    // Equivalent to the cold path's is_feasible() == false verdict
    // (the SPFA cycle detector is exact); produce the same products.
    products_ = Products{};
    products_.schedule.status = sched::ScheduleStatus::kInfeasible;
    products_.schedule.message = "positive cycle with unbounded delays set to 0";
    products_.schedule.diag = certify::find_positive_cycle(graph_);
    return true;
  }
  const Clock::time_point t_spfa = Clock::now();
  stats_.warm_spfa_us += us_between(t_topo, t_spfa);

  anchors::UpdatePlan plan;
  plan.affected = &affected_mask_;
  plan.affected_topo = affected_topo_;
  plan.seeds = seeds;
  plan.forward_changed = forward_changed;
  plan.workspace = &anchor_ws_;
  // In place: the cached analysis holds valid pre-edit products (the
  // incremental path is only taken when the last resolve succeeded).
  anchors::AnchorAnalysis& analysis = products_.analysis;
  analysis.update(graph_, plan);
  stats_.anchor_rows_recomputed += analysis.rows_recomputed();
  stats_.anchor_rows_cold_equivalent +=
      static_cast<long long>(analysis.anchors().size());
  // Fault injection (tests): truncate one anchor's freshly patched
  // longest-path row, as if its recompute had been interrupted.
  if (fault_.kind == FaultInjector::Kind::kTruncateAnchorRow &&
      !analysis.anchors().empty()) {
    analysis.corrupt_length_row_for_testing(
        analysis.anchors()[fault_.seed % analysis.anchors().size()],
        graph_.vertex_count() / 2);
    fault_.kind = FaultInjector::Kind::kNone;
  }
  // Fault injection (tests): flip one IR(v) bit of the patched analysis.
  if (fault_.kind == FaultInjector::Kind::kFlipIrredundantBit &&
      !analysis.anchors().empty()) {
    const std::uint64_t n = static_cast<std::uint64_t>(graph_.vertex_count());
    analysis.flip_irredundant_bit_for_testing(
        VertexId(static_cast<int>(fault_.seed % n)),
        analysis.anchors()[(fault_.seed / n) % analysis.anchors().size()]);
    fault_.kind = FaultInjector::Kind::kNone;
  }

  const wellposed::CheckResult wp =
      wellposed::recheck(graph_, analysis.anchor_sets(), affected_mask_);
  const Clock::time_point t_anchor = Clock::now();
  stats_.warm_anchor_us += us_between(t_spfa, t_anchor);
  if (wp.status == wellposed::Status::kIllPosed) {
    // Mirrors the cold path: keep the analysis, drop the schedule.
    products_.topo.clear();
    products_.schedule = sched::ScheduleResult{};
    products_.schedule.status = sched::ScheduleStatus::kIllPosed;
    products_.schedule.message = wp.message;
    products_.schedule.diag = wp.diag;
    return true;
  }

  sched::ScheduleOptions sopts;
  sopts.prechecks = false;
  sched::ScheduleResult rescheduled = sched::reschedule(
      graph_, analysis, std::move(products_.schedule.schedule),
      affected_mask_, affected_topo_, sopts);
  products_.schedule = std::move(rescheduled);
  if (products_.ok()) adopt_schedule();
  stats_.warm_resched_us += us_between(t_anchor, Clock::now());
  return true;
}

certify::Diag SynthesisSession::certify_warm_products() {
  if (!options_.certify) return certify::Diag{};
  const Clock::time_point t0 = Clock::now();
  certify::Diag caught;
  if (products_.ok()) {
    // The schedule validated over all delay profiles plus the
    // Theorem 3 minimality cross-check against the patched analysis,
    // with zero dependence on the warm path's data structures.
    caught = certify::check_products(graph_, products_.analysis,
                                     products_.schedule.schedule);
  } else {
    // A warm failure verdict is cross-checked against an independent
    // cold check of the same graph, which also extracts the
    // authoritative witness for the verdict.
    const wellposed::CheckResult wp = wellposed::check(graph_);
    sched::ScheduleStatus expect = sched::ScheduleStatus::kScheduled;
    if (wp.status == wellposed::Status::kInfeasible) {
      expect = sched::ScheduleStatus::kInfeasible;
    } else if (wp.status == wellposed::Status::kIllPosed) {
      expect = sched::ScheduleStatus::kIllPosed;
    }
    if (products_.schedule.status == expect) {
      products_.schedule.message = wp.message;
      products_.schedule.diag = wp.diag;
    } else {
      caught.code = certify::Code::kVerdictMismatch;
      caught.message =
          cat("warm verdict '", sched::to_string(products_.schedule.status),
              "' disagrees with an independent cold check ('",
              wellposed::to_string(wp.status), "')");
    }
  }
  stats_.certify_us += us_between(t0, Clock::now());
  if (caught.ok()) ++stats_.certified_resolves;
  return caught;
}

void SynthesisSession::certify_cold_products() {
  if (!options_.certify || !products_.ok()) {
    // Cold failure verdicts ARE the independent check (there is no
    // second implementation to cross-check them against); nothing to
    // do.
    return;
  }
  const Clock::time_point t0 = Clock::now();
  const certify::Diag caught = certify::check_products(
      graph_, products_.analysis, products_.schedule.schedule);
  stats_.certify_us += us_between(t0, Clock::now());
  // No slower path exists to fall back to: a cold product that fails
  // its certificate means the pipeline itself is broken.
  RELSCHED_CHECK(caught.ok(),
                 cat("cold products failed certification: ", caught.message));
  ++stats_.certified_resolves;
}

void SynthesisSession::cancelled_products() {
  products_ = Products{};
  sched::ScheduleResult& out = products_.schedule;
  out.status = sched::ScheduleStatus::kCancelled;
  out.message = cat("resolve stopped early: ", watchdog_.reason());
  out.diag.code = certify::Code::kTimeout;
  out.diag.message = out.message;
}

// ---- Crash safety ----------------------------------------------------------

persist::Error SynthesisSession::attach_wal(const std::string& path,
                                            persist::WalOptions options) {
  RELSCHED_CHECK(wal_ == nullptr, "a write-ahead log is already attached");
  persist::Error error;
  wal_ = persist::Wal::open(path, graph_.revision(), options, &error);
  return error;
}

persist::Error SynthesisSession::checkpoint(const std::string& dir) {
  RELSCHED_CHECK(!in_txn_, "checkpoint() inside an open transaction");
  if (persist::Error e = persist::ensure_dir(dir); !e.ok()) return e;

  persist::Writer w;
  persist::save_graph(w, graph_);
  // Mode byte: sessions always schedule against the full anchor sets
  // (AnchorMode::kFull == 0). Kept so the RSNAP001 layout is unchanged.
  w.u8(0);
  w.b(resolved_once_);
  // Pending state (unresolved edits or a forced-cold marker) cannot be
  // warm-resumed: the restored session recomputes cold on its first
  // resolve, which yields bit-identical products (warm == cold).
  w.b(force_cold_ || products_.revision != graph_.revision());
  save_products(w, products_);
  w.b(topo_.valid());
  static const std::vector<int> kNoOrder;
  w.vec_i32(topo_.valid() ? topo_.order() : kNoOrder);
  // Potentials are only a warm-start seed; after a structural edit they
  // can be stale at the old cardinality, and restore would reject them.
  static const std::vector<graph::Weight> kNoPotentials;
  w.vec_i64(potentials_.size() ==
                    static_cast<std::size_t>(graph_.vertex_count())
                ? potentials_
                : kNoPotentials);
  save_stats(w, stats_);

  if (persist::Error e =
          persist::write_framed_file(persist::snapshot_path(dir),
                                     kSnapshotMagic, kSnapshotVersion,
                                     w.buffer());
      !e.ok()) {
    return e;
  }
  ++stats_.checkpoints;
  // The snapshot subsumes every record at or before this revision, so
  // the log restarts empty: replay time and disk growth stay bounded by
  // the checkpoint cadence. A crash between the snapshot rename and
  // this reset is benign -- replay skips records the snapshot covers.
  if (wal_ != nullptr) return wal_->reset(graph_.revision());
  return {};
}

std::optional<SynthesisSession> SynthesisSession::restore(
    const std::string& dir, SessionOptions options, RestoreReport* report) {
  RestoreReport local;
  RestoreReport& rep = report != nullptr ? *report : local;
  rep = RestoreReport{};
  const std::string snap = persist::snapshot_path(dir);

  std::string payload;
  rep.error =
      persist::read_framed_file(snap, kSnapshotMagic, kSnapshotVersion,
                                &payload);
  if (!rep.error.ok()) return std::nullopt;
  persist::Reader r(payload);

  auto reject = [&](std::string why) {
    rep.error = persist::Error::make(persist::ErrorCode::kFormat,
                                     std::move(why), snap);
    return std::nullopt;
  };

  cg::ConstraintGraph g;
  if (!persist::load_graph(r, &g)) {
    return reject("snapshot graph payload is invalid");
  }
  if (const std::uint8_t mode = r.u8(); !r.ok() || mode != 0) {
    return reject("snapshot schedule mode is not full anchor sets");
  }

  SynthesisSession s(std::move(g), options);
  const bool resolved_once = r.b();
  const bool pending_cold = r.b();
  if (!load_products(r, &s.products_)) {
    return reject("snapshot products payload is invalid");
  }
  const bool topo_valid = r.b();
  std::vector<int> topo_order = r.vec_i32();
  std::vector<graph::Weight> potentials = r.vec_i64();
  if (!load_stats(r, &s.stats_) || !r.at_end()) {
    return reject("snapshot payload is truncated or oversized");
  }
  if (s.products_.revision > s.graph_.revision()) {
    return reject("snapshot products are newer than the snapshot graph");
  }
  if (topo_valid &&
      !s.topo_.restore(s.graph_.project_forward(), std::move(topo_order))) {
    return reject("snapshot topological order is inconsistent with the graph");
  }
  if (!potentials.empty() &&
      potentials.size() != static_cast<std::size_t>(s.graph_.vertex_count())) {
    return reject("snapshot potentials have the wrong cardinality");
  }

  s.resolved_once_ = resolved_once;
  s.force_cold_ = pending_cold || !topo_valid;
  if (resolved_once && !s.force_cold_ && s.products_.ok()) {
    // Recomputed, not trusted: the potentials seed future warm SPFA
    // repairs, and recomputing them from the certified schedule is as
    // cheap as validating the serialized copy.
    s.potentials_ =
        s.products_.schedule.schedule.start_times(s.graph_, {},
                                                  s.topo_.order());
  } else {
    s.potentials_ = std::move(potentials);
  }
  s.consumed_edits_ = s.graph_.revision();
  ++s.stats_.restores;

  const std::string wal = persist::wal_path(dir);
  if (::access(wal.c_str(), F_OK) == 0) {
    if (persist::Error e = s.replay_wal(wal, &rep); !e.ok()) {
      rep.error = std::move(e);
      return std::nullopt;
    }
  }

  s.verify_restored(rep);
  return s;
}

persist::Error SynthesisSession::replay_wal(const std::string& path,
                                            RestoreReport* report) {
  RELSCHED_CHECK(wal_ == nullptr, "replay_wal() must run before attach_wal()");
  persist::Wal::ReadResult rr = persist::Wal::read(path);
  if (!rr.ok()) return rr.error;
  if (report != nullptr) {
    report->wal_torn_tail = rr.torn_tail;
    report->wal_torn_detail = rr.torn_detail;
  }
  return apply_records(rr.records, path, report);
}

persist::Error SynthesisSession::apply_records(
    const std::vector<persist::WalRecord>& records, const std::string& origin,
    RestoreReport* report) {
  RELSCHED_CHECK(!in_txn_, "apply_records() inside an open transaction");
  const std::string& path = origin;

  using Op = persist::WalRecord::Op;
  for (const persist::WalRecord& rec : records) {
    if (rec.op == Op::kResolve) {
      // A marker the snapshot's products already cover is a no-op.
      if (resolved_once_ && products_.revision >= rec.revision) continue;
      resolve();
      if (report != nullptr) ++report->replayed_resolves;
      continue;
    }
    if (rec.revision <= graph_.revision()) continue;  // snapshot covers it
    if (rec.revision != graph_.revision() + 1) {
      return persist::Error::make(
          persist::ErrorCode::kStateMismatch,
          cat("WAL record at revision ", rec.revision,
              " does not follow the session's revision ", graph_.revision()),
          path);
    }
    const std::int32_t vertices = graph_.vertex_count();
    const std::int32_t edges = graph_.edge_count();
    auto bad = [&](const char* what) {
      return persist::Error::make(persist::ErrorCode::kFormat,
                                  cat("WAL record carries ", what), path);
    };
    // The edit API double-checks semantic invariants the id-range checks
    // here cannot see (polarity, edge kinds); its rejection of a record
    // means the log does not describe this graph's history.
    try {
      switch (rec.op) {
        case Op::kAddMin:
        case Op::kAddMax:
          if (rec.a < 0 || rec.a >= vertices || rec.b < 0 ||
              rec.b >= vertices) {
            return bad("an out-of-range vertex id");
          }
          if (rec.op == Op::kAddMin) {
            add_min_constraint(VertexId(rec.a), VertexId(rec.b),
                               static_cast<int>(rec.value));
          } else {
            add_max_constraint(VertexId(rec.a), VertexId(rec.b),
                               static_cast<int>(rec.value));
          }
          break;
        case Op::kRemoveConstraint:
          if (rec.a < 0 || rec.a >= edges) return bad("an out-of-range edge id");
          remove_constraint(EdgeId(rec.a));
          break;
        case Op::kSetBound:
          if (rec.a < 0 || rec.a >= edges) return bad("an out-of-range edge id");
          set_constraint_bound(EdgeId(rec.a), static_cast<int>(rec.value));
          break;
        case Op::kSetDelay:
          if (rec.a < 0 || rec.a >= vertices) {
            return bad("an out-of-range vertex id");
          }
          set_delay(VertexId(rec.a),
                    rec.value < 0
                        ? cg::Delay::unbounded()
                        : cg::Delay::bounded(static_cast<int>(rec.value)));
          break;
        case Op::kResolve:
          break;  // handled above
      }
    } catch (const ApiError& e) {
      return persist::Error::make(
          persist::ErrorCode::kFormat,
          cat("WAL record rejected by the edit API: ", e.what()), path);
    }
    if (report != nullptr) ++report->replayed_edits;
  }
  return {};
}

void SynthesisSession::verify_restored(RestoreReport& report) {
  if (!resolved_once_ || force_cold_ ||
      products_.revision != graph_.revision()) {
    // Nothing current to trust; the first resolve recomputes cold.
    force_cold_ = true;
    return;
  }
  bool trusted = true;
  if (products_.ok()) {
    trusted = certify::check_products(graph_, products_.analysis,
                                      products_.schedule.schedule)
                  .ok();
  } else {
    // Failure verdicts (and any restored kCancelled placeholder) are
    // cross-checked against an independent cold check, mirroring
    // certify_warm_products().
    const wellposed::CheckResult wp = wellposed::check(graph_);
    sched::ScheduleStatus expect = sched::ScheduleStatus::kScheduled;
    if (wp.status == wellposed::Status::kInfeasible) {
      expect = sched::ScheduleStatus::kInfeasible;
    } else if (wp.status == wellposed::Status::kIllPosed) {
      expect = sched::ScheduleStatus::kIllPosed;
    }
    trusted = products_.schedule.status == expect;
  }
  if (!trusted) {
    ++stats_.restore_cold_fallbacks;
    report.cold_fallback = true;
    force_cold_ = true;
    resolve();
  }
}

// ---- Checkpoint payload helpers --------------------------------------------

void save_products(persist::Writer& w, const Products& products) {
  w.u64(products.revision);
  persist::save_analysis(w, products.analysis);
  persist::save_schedule_result(w, products.schedule);
  w.vec_i32(products.topo);
  persist::save_diag(w, products.certificate);
}

bool load_products(persist::Reader& r, Products* out) {
  out->revision = r.u64();
  if (!persist::load_analysis(r, &out->analysis)) return false;
  if (!persist::load_schedule_result(r, &out->schedule)) return false;
  out->topo = r.vec_i32();
  if (!persist::load_diag(r, &out->certificate)) return false;
  return r.ok();
}

void save_stats(persist::Writer& w, const SessionStats& stats) {
  w.i32(stats.cold_resolves);
  w.i32(stats.warm_resolves);
  w.i64(stats.anchor_rows_recomputed);
  w.i64(stats.anchor_rows_cold_equivalent);
  w.i32(stats.last_affected_vertices);
  w.i32(stats.transactions);
  w.i64(stats.edits_coalesced);
  w.i32(stats.last_txn_edits);
  w.i32(stats.last_merged_cone_vertices);
  w.i64(stats.last_cone_vertices_sum);
  w.i64(stats.forks_taken);
  w.i32(stats.anchor_rows_shared);
  w.i32(stats.cancelled_resolves);
  w.i32(stats.checkpoints);
  w.i32(stats.restores);
  w.i32(stats.restore_cold_fallbacks);
  w.i64(stats.wal_records);
  w.i64(stats.wal_fsyncs);
  w.i64(stats.wal_retries);
  w.i64(stats.certified_resolves);
  w.i32(stats.certificate_failures);
  w.f64(stats.certify_us);
  w.f64(stats.warm_topo_us);
  w.f64(stats.warm_spfa_us);
  w.f64(stats.warm_anchor_us);
  w.f64(stats.warm_resched_us);
}

bool load_stats(persist::Reader& r, SessionStats* out) {
  out->cold_resolves = r.i32();
  out->warm_resolves = r.i32();
  out->anchor_rows_recomputed = r.i64();
  out->anchor_rows_cold_equivalent = r.i64();
  out->last_affected_vertices = r.i32();
  out->transactions = r.i32();
  out->edits_coalesced = r.i64();
  out->last_txn_edits = r.i32();
  out->last_merged_cone_vertices = r.i32();
  out->last_cone_vertices_sum = r.i64();
  out->forks_taken = r.i64();
  out->anchor_rows_shared = r.i32();
  out->cancelled_resolves = r.i32();
  out->checkpoints = r.i32();
  out->restores = r.i32();
  out->restore_cold_fallbacks = r.i32();
  out->wal_records = r.i64();
  out->wal_fsyncs = r.i64();
  out->wal_retries = r.i64();
  out->certified_resolves = r.i64();
  out->certificate_failures = r.i32();
  out->certify_us = r.f64();
  out->warm_topo_us = r.f64();
  out->warm_spfa_us = r.f64();
  out->warm_anchor_us = r.f64();
  out->warm_resched_us = r.f64();
  return r.ok();
}

}  // namespace relsched::engine
