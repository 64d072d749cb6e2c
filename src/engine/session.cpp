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
// (the serving layer's flaky-filesystem counter). v5: products store no
// schedule cells (a view of the analysis's, rebound on load), iteration
// count, order copy or length(a, a) cells. v6: no schedule-mode byte
// (sessions always track the full anchor sets) and no potentials (the
// source's length cells on ok products; otherwise the next resolve is
// cold and recomputes them). Older snapshots are not readable.
constexpr std::uint32_t kSnapshotVersion = 6;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Loaded products index only vertices of the loaded graph: the
/// analysis covers all `n` of them (or, unless the products are ok,
/// none). An ok product's schedule is a view of that analysis, and the
/// restored potentials are its source column, so the source must be
/// one of its anchors.
bool products_fit(const Products& p, const cg::ConstraintGraph& g) {
  const std::size_t rows = p.analysis.anchor_sets().domain.index.size();
  const bool covers = rows == static_cast<std::size_t>(g.vertex_count());
  if (!p.ok()) return covers || rows == 0;
  return covers && p.analysis.is_anchor(g.source());
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
  s.anchor_rows_shared = products_.analysis.cell_arrays_shared(
      products_.schedule.schedule.views(products_.analysis) ? 1 : 0);
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

void SynthesisSession::publish_schedule() {
  products_.schedule.status = sched::ScheduleStatus::kScheduled;
  products_.schedule.schedule =
      sched::RelativeSchedule::from_lengths(products_.analysis);
}

void SynthesisSession::cold_resolve() {
  last_resolve_was_warm_ = false;
  last_dirty_cone_.clear();
  products_ = Products{};
  sched::ScheduleResult& out = products_.schedule;

  // One Gf adjacency and one topological order serve the whole cold
  // check (validation, feasibility, the anchor analysis and
  // containment). The order is reset first, on every exit path, so it
  // stays coherent with the graph: failed resolves (invalid,
  // infeasible, ill-posed, cancelled) do not patch the order
  // edge-by-edge the way the warm path does, so without this reset a
  // checkpoint taken after edit -> failed-resolve would persist an order
  // the edited graph no longer satisfies, and restore would reject its
  // own snapshot. (On a forward cycle the reset fails, flagging the
  // order invalid.)
  const bool acyclic = topo_.reset(graph_);
  wellposed::ColdCheck check = wellposed::cold_check(
      graph_,
      acyclic ? std::span<const int>(topo_.order()) : std::span<const int>(),
      nullptr, &watchdog_);
  if (check.verdict.status == wellposed::Status::kUndecided) {
    cancelled_products();
    return;
  }
  // The potentials are the zero-profile start times the warm SPFA
  // repairs from; an ill-posed verdict keeps its analysis.
  potentials_ = std::move(check.potentials);
  products_.analysis = std::move(check.analysis);
  out = sched::verdict_result(check.verdict);
  if (!out.ok()) return;

  // Theorem 3: the minimum schedule is the length cells just computed.
  publish_schedule();
  stats_.anchor_rows_recomputed += products_.analysis.rows_recomputed();
  stats_.anchor_rows_cold_equivalent += products_.analysis.rows_recomputed();
}

bool SynthesisSession::try_incremental(const std::vector<VertexId>& seeds,
                                       bool forward_changed) {
  // Patch the topological order edge by edge, in journal order. A
  // min-constraint insertion that closes a forward cycle makes the
  // graph invalid; defer to the cold path, which reports it.
  if (!topo_.valid()) return false;
  const Clock::time_point t_begin = Clock::now();
  if (!replay_forward_insertions()) return false;

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
  // relaxation sweeps walk it front-to-back instead of scanning all V
  // positions for dirty bits. (Filtered through the mask so an injected
  // kFlipDirtyBit victim is skipped by every downstream consumer, like
  // the old bit-scan was.)
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

  // Drop the schedule's view of the length cells first, so the patch
  // below writes them in place instead of cloning them away from it.
  products_.schedule.schedule = {};
  anchors::UpdatePlan plan;
  plan.affected = &affected_mask_;
  plan.affected_topo = affected_topo_;
  plan.seeds = seeds;
  plan.forward_changed = forward_changed;
  plan.workspace = &anchor_ws_;
  plan.watchdog = &watchdog_;
  // In place: the cached analysis holds valid pre-edit products (the
  // incremental path is only taken when the last resolve succeeded).
  anchors::AnchorAnalysis& analysis = products_.analysis;
  analysis.update(graph_, plan);
  if (watchdog_.stopped()) {
    // The patch stopped midway; the analysis is unusable.
    stats_.warm_anchor_us += us_between(t_spfa, Clock::now());
    cancelled_products();
    return true;
  }
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
    products_.schedule = sched::verdict_result(wp);
    return true;
  }

  // The patched length cells are the new minimum schedule (Theorem 3).
  // The potentials are refreshed from the source's cells at every
  // vertex: the SPFA repair leaves valid potentials, not the longest
  // paths, and a corrupted one outside the cone is re-derived here.
  publish_schedule();
  analysis.length_column(graph_.source(), potentials_);
  stats_.warm_resched_us += us_between(t_anchor, Clock::now());
  return true;
}

bool SynthesisSession::replay_forward_insertions() {
  // The journal suffix since the last resolve: products_.revision is
  // the absolute revision the cached products were computed at. The
  // order reads the edited graph, which already holds every arc of the
  // suffix. An insertion that a later edit of the suffix removes never
  // reaches the final Gf, so it is not replayed; the others stay
  // pending -- skipped by the discovery walks -- until their turn.
  // Removals need nothing: deleting an arc keeps any order valid.
  using Arc = graph::DynamicTopoOrder::Arc;
  const std::vector<cg::Edit>& edits = graph_.edits();
  const std::size_t first =
      static_cast<std::size_t>(products_.revision - graph_.journal_base());
  std::vector<Arc> removed_later;
  std::vector<Arc> replay;  // surviving insertions, last first
  for (std::size_t i = edits.size(); i-- > first;) {
    const cg::Edit& e = edits[i];
    if (!e.forward) continue;
    const Arc arc{e.from.value(), e.to.value()};
    if (e.kind == cg::Edit::Kind::kRemoveConstraint) {
      removed_later.push_back(arc);
    } else if (e.kind == cg::Edit::Kind::kAddMinConstraint) {
      const auto it =
          std::find(removed_later.begin(), removed_later.end(), arc);
      if (it != removed_later.end()) {
        removed_later.erase(it);
      } else {
        replay.push_back(arc);
      }
    }
  }
  // `replay` doubles as the pending multiset: its not-yet-replayed
  // prefix holds exactly the later insertions.
  for (std::size_t k = replay.size(); k-- > 0;) {
    const Arc arc = replay[k];
    if (!topo_.add_arc(arc.from, arc.to, graph_,
                       std::span<const Arc>(replay.data(), k))) {
      return false;
    }
  }
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
    sched::ScheduleResult expect = sched::verdict_result(wp);
    if (products_.schedule.status == expect.status) {
      products_.schedule = std::move(expect);
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
  w.b(resolved_once_);
  // Pending state (unresolved edits or a forced-cold marker) cannot be
  // warm-resumed: the restored session recomputes cold on its first
  // resolve, which yields bit-identical products (warm == cold).
  w.b(force_cold_ || products_.revision != graph_.revision());
  save_products(w, products_);
  w.b(topo_.valid());
  static const std::vector<int> kNoOrder;
  w.vec_i32(topo_.valid() ? topo_.order() : kNoOrder);
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

  SynthesisSession s(std::move(g), options);
  const bool resolved_once = r.b();
  const bool pending_cold = r.b();
  if (!load_products(r, &s.products_)) {
    return reject("snapshot products payload is invalid");
  }
  const bool topo_valid = r.b();
  std::vector<int> topo_order = r.vec_i32();
  if (!load_stats(r, &s.stats_) || !r.at_end()) {
    return reject("snapshot payload is truncated or oversized");
  }
  if (s.products_.revision > s.graph_.revision()) {
    return reject("snapshot products are newer than the snapshot graph");
  }
  if (!products_fit(s.products_, s.graph_)) {
    return reject("snapshot products do not fit the snapshot graph");
  }
  if (topo_valid &&
      !s.topo_.restore(s.graph_, std::move(topo_order))) {
    return reject("snapshot topological order is inconsistent with the graph");
  }

  s.resolved_once_ = resolved_once;
  s.force_cold_ = pending_cold || !topo_valid;
  if (resolved_once && !s.force_cold_ && s.products_.ok()) {
    // The potentials that seed future warm SPFA repairs are the
    // source's length cells (which verify_restored certifies); the
    // snapshot stores none.
    s.products_.analysis.length_column(s.graph_.source(), s.potentials_);
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

const char* Edit::refusal(const cg::ConstraintGraph& g) const {
  const auto vertex = [&g](std::int64_t id) {
    return id >= 0 && id < g.vertex_count();
  };
  const bool bound = value >= 0 && value <= kMaxEditCycles;
  switch (op) {
    case Op::kAddMin:
    case Op::kAddMax:
      if (!vertex(a) || !vertex(b)) return "an out-of-range vertex id";
      if (a == b) return "a constraint from a vertex to itself";
      return bound ? nullptr : "an out-of-range bound";
    case Op::kRemoveConstraint:
    case Op::kSetBound:
      if (a < 0 || a >= g.edge_count()) return "an out-of-range edge id";
      return bound || op == Op::kRemoveConstraint ? nullptr
                                                  : "an out-of-range bound";
    case Op::kSetDelay:
      if (!vertex(a)) return "an out-of-range vertex id";
      return value >= -1 && value <= kMaxEditCycles ? nullptr
                                                    : "an out-of-range delay";
    case Op::kResolve:
      break;
  }
  return "no edit op";
}

void SynthesisSession::apply(const Edit& edit) {
  if (const char* why = edit.refusal(graph_); why != nullptr) {
    throw ApiError(cat("edit carries ", why));
  }
  // refusal() has range-checked every operand, so each narrows exactly.
  const auto a = static_cast<int>(edit.a);
  const auto b = static_cast<int>(edit.b);
  const auto cycles = static_cast<int>(edit.value);
  using Op = Edit::Op;
  switch (edit.op) {
    case Op::kAddMin:
      add_min_constraint(VertexId(a), VertexId(b), cycles);
      return;
    case Op::kAddMax:
      add_max_constraint(VertexId(a), VertexId(b), cycles);
      return;
    case Op::kRemoveConstraint:
      remove_constraint(EdgeId(a));
      return;
    case Op::kSetBound:
      set_constraint_bound(EdgeId(a), cycles);
      return;
    case Op::kSetDelay:
      set_delay(VertexId(a), cycles < 0 ? cg::Delay::unbounded()
                                        : cg::Delay::bounded(cycles));
      return;
    case Op::kResolve:
      return;  // refused above
  }
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
          origin);
    }
    // A record apply() or the edit API refuses does not describe this
    // graph's history.
    try {
      apply(Edit::from_record(rec));
    } catch (const ApiError& e) {
      return persist::Error::make(persist::ErrorCode::kFormat,
                                  cat("WAL record rejected: ", e.what()),
                                  origin);
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
    trusted = products_.schedule.status ==
              sched::verdict_result(wellposed::check(graph_)).status;
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
  // The schedule's cells are the analysis's (Theorem 3): only the
  // verdict is stored, and load_products rebinds the view.
  w.u8(static_cast<std::uint8_t>(products.schedule.status));
  w.str(products.schedule.message);
  persist::save_diag(w, products.schedule.diag);
  persist::save_diag(w, products.certificate);
}

bool load_products(persist::Reader& r, Products* out) {
  out->revision = r.u64();
  if (!persist::load_analysis(r, &out->analysis)) return false;
  const std::uint8_t status = r.u8();
  if (!r.ok() ||
      status > static_cast<std::uint8_t>(sched::ScheduleStatus::kCancelled)) {
    r.fail();
    return false;
  }
  out->schedule = sched::ScheduleResult{};
  out->schedule.status = static_cast<sched::ScheduleStatus>(status);
  out->schedule.message = r.str();
  if (!persist::load_diag(r, &out->schedule.diag) ||
      !persist::load_diag(r, &out->certificate)) {
    return false;
  }
  if (out->ok()) {
    out->schedule.schedule =
        sched::RelativeSchedule::from_lengths(out->analysis);
  }
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
  // Counters resume from the snapshot and keep counting. One that is
  // negative or in the top half of its type was never written by a
  // session and would overflow on a later increment: the stats are
  // corrupt.
  const auto count32 = [&r]() {
    const std::int32_t v = r.i32();
    if (v < 0 || v > INT32_MAX / 2) r.fail();
    return v;
  };
  const auto count64 = [&r]() {
    const std::int64_t v = r.i64();
    if (v < 0 || v > INT64_MAX / 2) r.fail();
    return v;
  };
  out->cold_resolves = count32();
  out->warm_resolves = count32();
  out->anchor_rows_recomputed = count64();
  out->anchor_rows_cold_equivalent = count64();
  out->last_affected_vertices = count32();
  out->transactions = count32();
  out->edits_coalesced = count64();
  out->last_txn_edits = count32();
  out->last_merged_cone_vertices = count32();
  out->last_cone_vertices_sum = count64();
  out->forks_taken = count64();
  out->anchor_rows_shared = count32();
  out->cancelled_resolves = count32();
  out->checkpoints = count32();
  out->restores = count32();
  out->restore_cold_fallbacks = count32();
  out->wal_records = count64();
  out->wal_fsyncs = count64();
  out->wal_retries = count64();
  out->certified_resolves = count64();
  out->certificate_failures = count32();
  out->certify_us = r.f64();
  out->warm_topo_us = r.f64();
  out->warm_spfa_us = r.f64();
  out->warm_anchor_us = r.f64();
  out->warm_resched_us = r.f64();
  return r.ok();
}

}  // namespace relsched::engine
