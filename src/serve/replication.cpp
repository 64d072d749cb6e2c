#include "serve/replication.hpp"

#include <algorithm>

#include "base/strings.hpp"
#include "persist/wal.hpp"

namespace relsched::serve {

namespace {

Json number(std::uint64_t v) {
  return Json::number(static_cast<long long>(v));
}

}  // namespace

Replicator::Replicator(ReplicatorOptions options, Hooks hooks)
    : options_(std::move(options)), hooks_(std::move(hooks)) {}

Replicator::~Replicator() { stop(); }

void Replicator::start() {
  if (started_) return;
  started_ = true;
  client_.set_io_timeout(options_.io_timeout);
  thread_ = std::thread([this] { run(); });
}

void Replicator::stop() {
  {
    base::MutexLock lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  ack_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Replicator::note_commit(std::uint64_t hash, std::uint64_t revision,
                             std::uint64_t digest) {
  base::MutexLock lock(mutex_);
  ReplState& s = states_[hash];
  if (revision <= s.acked_revision) return;  // standby already past it
  s.commit_digests.emplace_back(revision, digest);
  // Cap against a wedged standby; dropping the oldest entries only
  // costs divergence checks on revisions a snapshot will subsume.
  while (s.commit_digests.size() > 1024) s.commit_digests.pop_front();
  dirty_ = true;
  work_cv_.notify_one();
}

bool Replicator::await_ack(std::uint64_t hash, std::uint64_t revision) {
  base::UniqueMutexLock lock(mutex_);
  const auto deadline = std::chrono::steady_clock::now() + options_.ack_timeout;
  while (true) {
    if (stop_) {
      ++counters_.degraded_acks;
      return false;
    }
    auto it = states_.find(hash);
    if (it != states_.end() && it->second.acked_revision >= revision) {
      return true;
    }
    if (ack_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      ++counters_.degraded_acks;
      return false;
    }
  }
}

ReplicatorCounters Replicator::counters() const {
  base::MutexLock lock(mutex_);
  ReplicatorCounters c = counters_;
  c.connected = connected_;
  return c;
}

void Replicator::mark_disconnected() {
  client_.close();
  base::MutexLock lock(mutex_);
  connected_ = false;
  ack_cv_.notify_all();  // waiters re-check against the deadline
}

bool Replicator::connect_and_subscribe() {
  std::string error;
  if (!client_.connect(options_.target, std::chrono::milliseconds(250),
                       &error)) {
    return false;
  }
  Json request = Json::object();
  request.set("op", Json::string("repl_subscribe"));
  Json reply;
  if (!client_.call(request, &reply, &error)) return false;
  const Json* ok = reply.get("ok");
  if (ok == nullptr || !ok->as_bool()) {
    // Not (or no longer) a standby; back off and keep probing. An
    // operator pointing two primaries at each other should see a
    // stream that never forms, not corruption.
    client_.close();
    return false;
  }

  base::MutexLock lock(mutex_);
  // Whatever the standby does not report, it does not have: those
  // sessions (re-)bootstrap from a snapshot.
  for (auto& [hash, s] : states_) {
    s.need_snapshot = true;
    s.wal_base_known = false;
  }
  if (const Json* sessions = reply.get("sessions");
      sessions != nullptr && sessions->is_array()) {
    for (std::size_t i = 0; i < sessions->size(); ++i) {
      const Json& e = *sessions->at(i);
      const Json* sid = e.get("session");
      std::uint64_t hash = 0;
      if (sid == nullptr || !parse_hex16(sid->as_string(), &hash)) continue;
      ReplState& s = states_[hash];
      auto field = [&e](const char* name) {
        const Json* v = e.get(name);
        return v != nullptr && v->is_number()
                   ? static_cast<std::uint64_t>(v->as_int())
                   : std::uint64_t{0};
      };
      s.epoch = field("epoch");
      s.next_seq = field("next_seq");
      s.wal_base = field("wal_base");
      s.wal_base_known = true;
      s.acked_revision = std::max(s.acked_revision, field("revision"));
      s.need_snapshot = false;
      while (!s.commit_digests.empty() &&
             s.commit_digests.front().first <= s.acked_revision) {
        s.commit_digests.pop_front();
      }
    }
  }
  ack_cv_.notify_all();
  return true;
}

bool Replicator::ship_snapshot(std::uint64_t hash) {
  SnapshotPayload payload;
  std::string error;
  if (!hooks_.snapshot_session(hash, &payload, &error)) {
    return true;  // session busy/gone; retried on the next pass
  }
  std::uint64_t new_epoch = 0;
  {
    base::MutexLock lock(mutex_);
    new_epoch = states_[hash].epoch + 1;
  }
  Json request = Json::object();
  request.set("op", Json::string("repl_snapshot"));
  request.set("session", Json::string(hex16(hash)));
  request.set("epoch", number(new_epoch));
  request.set("revision", number(payload.revision));
  request.set("digest", Json::string(hex16(payload.digest)));
  request.set("design_text", Json::string(payload.design_text));
  request.set("snapshot_hex",
              Json::string(hex_encode(payload.snapshot_bytes)));
  Json reply;
  if (!client_.call(request, &reply, &error)) return false;

  base::MutexLock lock(mutex_);
  ReplState& s = states_[hash];
  const Json* ok = reply.get("ok");
  if (ok == nullptr || !ok->as_bool()) return true;  // retried next pass
  std::uint64_t standby_digest = 0;
  const Json* dig = reply.get("digest");
  if (dig != nullptr && parse_hex16(dig->as_string(), &standby_digest) &&
      standby_digest != payload.digest) {
    // A snapshot installed byte-for-byte cannot restore to a different
    // digest unless something corrupted it in flight; count and retry.
    ++counters_.divergences;
    return true;  // need_snapshot stays set
  }
  ++counters_.snapshots_shipped;
  s.epoch = new_epoch;
  s.next_seq = 0;
  // The checkpoint that produced the snapshot reset the session's WAL
  // to base = its revision; the stream resumes from there.
  s.wal_base = payload.revision;
  s.wal_base_known = true;
  s.acked_revision = std::max(s.acked_revision, payload.revision);
  s.need_snapshot = false;
  while (!s.commit_digests.empty() &&
         s.commit_digests.front().first <= s.acked_revision) {
    s.commit_digests.pop_front();
  }
  ack_cv_.notify_all();
  return true;
}

void Replicator::absorb_ack(std::uint64_t hash, const Json& reply) {
  base::MutexLock lock(mutex_);
  ReplState& s = states_[hash];
  const Json* ok = reply.get("ok");
  if (ok == nullptr || !ok->as_bool()) {
    // The standby hit trouble applying (or was promoted under us);
    // re-bootstrap when the stream re-forms.
    s.need_snapshot = true;
    return;
  }
  if (const Json* resync = reply.get("resync");
      resync != nullptr && resync->as_bool()) {
    ++counters_.resyncs;
    if (const Json* diverged = reply.get("diverged");
        diverged != nullptr && diverged->as_bool()) {
      ++counters_.divergences;
    }
    s.need_snapshot = true;
    return;
  }
  if (const Json* next = reply.get("next_seq");
      next != nullptr && next->is_number()) {
    s.next_seq = static_cast<std::uint64_t>(next->as_int());
  }
  std::uint64_t acked = s.acked_revision;
  if (const Json* rev = reply.get("revision");
      rev != nullptr && rev->is_number()) {
    acked = static_cast<std::uint64_t>(rev->as_int());
  }
  // Divergence oracle: the standby's digest at the acked revision must
  // match the digest this process recorded when it committed it.
  std::uint64_t standby_digest = 0;
  const Json* dig = reply.get("digest");
  const bool have_digest =
      dig != nullptr && parse_hex16(dig->as_string(), &standby_digest);
  if (have_digest) {
    for (const auto& [revision, digest] : s.commit_digests) {
      if (revision == acked && digest != standby_digest) {
        ++counters_.divergences;
        s.need_snapshot = true;
        return;
      }
    }
  }
  s.acked_revision = std::max(s.acked_revision, acked);
  while (!s.commit_digests.empty() &&
         s.commit_digests.front().first <= s.acked_revision) {
    s.commit_digests.pop_front();
  }
  ack_cv_.notify_all();
}

bool Replicator::step_session(const SessionView& view) {
  while (true) {
    bool need_snapshot = false;
    std::uint64_t epoch = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t wal_base = 0;
    {
      base::MutexLock lock(mutex_);
      if (stop_) return true;
      ReplState& s = states_[view.hash];
      need_snapshot = s.need_snapshot;
      epoch = s.epoch;
      next_seq = s.next_seq;
      wal_base = s.wal_base;
    }
    if (need_snapshot) return ship_snapshot(view.hash);

    persist::Wal::TailResult tail =
        persist::Wal::read_tail(view.wal_path, next_seq);
    if (!tail.ok()) {
      // Missing or mid-file-corrupt log: nothing streamable; the
      // snapshot path re-establishes a trustworthy base.
      base::MutexLock lock(mutex_);
      states_[view.hash].need_snapshot = true;
      continue;
    }
    if (tail.base_revision != wal_base || tail.next_seq < next_seq) {
      // The WAL was reset by a checkpoint since the last poll: new
      // epoch. A standby already sitting at the new base adopts it in
      // place; anything else needs the snapshot that caused the reset.
      base::MutexLock lock(mutex_);
      ReplState& s = states_[view.hash];
      if (s.acked_revision == tail.base_revision) {
        ++s.epoch;
        s.next_seq = 0;
        s.wal_base = tail.base_revision;
        s.wal_base_known = true;
      } else {
        s.need_snapshot = true;
      }
      continue;
    }
    if (tail.records.empty()) return true;  // caught up
    if (static_cast<long long>(tail.records.size()) >
        static_cast<long long>(options_.queue_cap)) {
      // Backpressure: the standby is too far behind to stream at;
      // bounded catch-up via snapshot instead of an unbounded queue.
      base::MutexLock lock(mutex_);
      ++counters_.queue_overflows;
      states_[view.hash].need_snapshot = true;
      continue;
    }

    const std::size_t n = std::min(static_cast<std::size_t>(options_.batch_max),
                                   tail.records.size());
    Json request = Json::object();
    request.set("op", Json::string("repl_append"));
    request.set("session", Json::string(hex16(view.hash)));
    request.set("epoch", number(epoch));
    request.set("wal_base", number(wal_base));
    request.set("seq", number(next_seq));
    Json records = Json::array();
    std::uint64_t last_marker_revision = 0;
    for (std::size_t i = 0; i < n; ++i) {
      persist::WalRecord rec = tail.records[i];
      if (rec.op != persist::WalRecord::Op::kResolve) {
        ++shipped_edit_records_;
        if (!corruption_injected_ && options_.corrupt_record_at > 0 &&
            shipped_edit_records_ >= options_.corrupt_record_at &&
            rec.op == persist::WalRecord::Op::kAddMin) {
          // Chaos knob: stretch one streamed min constraint far past
          // anything the design asks for. Restricted to kAddMin so the
          // corruption is guaranteed *observable* (a +1 on a slack max
          // bound or an unused delay can be absorbed without changing
          // the schedule); the standby still applies it cleanly -- only
          // the digest oracle can tell, which is what the bench gates.
          rec.value += 1000;
          corruption_injected_ = true;
        }
      } else {
        last_marker_revision = rec.revision;
      }
      records.push(record_json(rec));
    }
    request.set("records", std::move(records));
    if (last_marker_revision != 0) {
      base::MutexLock lock(mutex_);
      const ReplState& s = states_[view.hash];
      for (const auto& [revision, digest] : s.commit_digests) {
        if (revision == last_marker_revision) {
          request.set("digest", Json::string(hex16(digest)));
          request.set("digest_revision", number(revision));
          break;
        }
      }
    }

    Json reply;
    std::string error;
    if (!client_.call(request, &reply, &error)) return false;
    {
      base::MutexLock lock(mutex_);
      counters_.records_shipped += static_cast<long long>(n);
      ++counters_.batches_shipped;
    }
    absorb_ack(view.hash, reply);
    // Loop: the refreshed cursor decides whether to keep streaming,
    // re-bootstrap, or stop (caught up).
  }
}

void Replicator::run() {
  bool ever_connected = false;
  while (true) {
    {
      base::MutexLock lock(mutex_);
      if (stop_) return;
    }
    if (!client_.connected()) {
      if (!connect_and_subscribe()) {
        // Reconnect backoff. No predicate: the lambda would be
        // analyzed without the capability held, and a spurious wakeup
        // only shortens the backoff before the next probe.
        base::UniqueMutexLock lock(mutex_);
        if (!stop_) work_cv_.wait_for(lock, std::chrono::milliseconds(100));
        continue;
      }
      {
        base::MutexLock lock(mutex_);
        connected_ = true;
        if (ever_connected) ++counters_.reconnects;
      }
      ever_connected = true;
    }
    {
      // Commits wake the loop immediately; the timed fallback catches
      // WAL activity that never notified (e.g. heal paths). No wait
      // predicate (see the backoff above): a spurious wakeup just
      // costs one early pass over the session views.
      base::UniqueMutexLock lock(mutex_);
      if (!dirty_ && !stop_) {
        work_cv_.wait_for(lock, std::chrono::milliseconds(50));
      }
      if (stop_) return;
      dirty_ = false;
    }
    const std::vector<SessionView> views = hooks_.list_sessions();
    for (const SessionView& view : views) {
      if (view.quarantined) continue;
      if (!step_session(view)) {
        mark_disconnected();
        break;
      }
      base::MutexLock lock(mutex_);
      if (stop_) return;
    }
  }
}

}  // namespace relsched::serve
