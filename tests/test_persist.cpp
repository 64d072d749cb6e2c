// Crash-safe persistence: serialization primitives, framed-file
// envelope, write-ahead log torn-tail vs. corruption semantics, and
// the engine's checkpoint/restore cycle (including WAL tail replay,
// structured rejection of damaged state, and cancellation verdicts).
#include <gtest/gtest.h>

#include <dirent.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "base/env.hpp"
#include "base/fault_fs.hpp"
#include "certify/certify.hpp"
#include "cg/graph_io.hpp"
#include "engine/session.hpp"
#include "persist/serialize.hpp"
#include "persist/snapshot.hpp"
#include "persist/wal.hpp"
#include "testutil.hpp"

namespace relsched::persist {
namespace {

/// A fresh empty directory under the test temp root.
std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "relsched_" + name;
  std::remove((dir + "/snapshot.bin").c_str());
  std::remove((dir + "/wal.bin").c_str());
  std::remove((dir + "/explore.bin").c_str());
  EXPECT_TRUE(ensure_dir(dir).ok());
  return dir;
}

std::string slurp(const std::string& path) {
  std::string data;
  EXPECT_TRUE(read_file(path, &data).ok()) << path;
  return data;
}

void dump(const std::string& path, const std::string& data) {
  ASSERT_TRUE(atomic_write_file(path, data, /*durable=*/false).ok()) << path;
}

TEST(Serialize, WriterReaderRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFULL);
  w.i32(-7);
  w.i64(-1234567890123LL);
  w.f64(3.5);
  w.b(true);
  w.str("hello");
  w.vec_i32({1, -2, 3});
  w.vec_i64({});

  Reader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i32(), -7);
  EXPECT_EQ(r.i64(), -1234567890123LL);
  EXPECT_EQ(r.f64(), 3.5);
  EXPECT_TRUE(r.b());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.vec_i32(), (std::vector<std::int32_t>{1, -2, 3}));
  EXPECT_TRUE(r.vec_i64().empty());
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(Serialize, ReaderRejectsOversizedLength) {
  // A length field larger than the bytes present must fail the stream,
  // not allocate: readers never trust a length further than the data.
  Writer w;
  w.u32(1u << 30);  // claims a gigabyte of payload
  Reader r(w.buffer());
  const std::string s = r.str();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(r.ok());
}

TEST(Serialize, ReaderUnderrunIsStickyAndZero) {
  Reader r(std::string_view("\x01", 1));
  EXPECT_EQ(r.u8(), 1);
  EXPECT_EQ(r.u64(), 0u);  // under-run
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u32(), 0u);  // sticky: everything after is zero
}

TEST(FramedFile, RoundTripAndTamperRejection) {
  const std::string dir = temp_dir("framed");
  const std::string path = dir + "/frame.bin";
  const std::string payload = "framed payload bytes";
  ASSERT_TRUE(write_framed_file(path, "RSTEST01", 3, payload, false).ok());

  std::string out;
  ASSERT_TRUE(read_framed_file(path, "RSTEST01", 3, &out).ok());
  EXPECT_EQ(out, payload);

  // Wrong kind of file.
  EXPECT_EQ(read_framed_file(path, "RSOTHER1", 3, &out).code,
            ErrorCode::kBadMagic);
  // Incompatible version.
  EXPECT_EQ(read_framed_file(path, "RSTEST01", 4, &out).code,
            ErrorCode::kBadVersion);

  // A flipped payload bit fails the checksum.
  std::string bytes = slurp(path);
  bytes[bytes.size() - 3] ^= 0x40;
  dump(path, bytes);
  EXPECT_EQ(read_framed_file(path, "RSTEST01", 3, &out).code,
            ErrorCode::kChecksum);

  // A torn (short) file is reported as truncated, not parsed.
  dump(path, slurp(path).substr(0, 10));
  EXPECT_EQ(read_framed_file(path, "RSTEST01", 3, &out).code,
            ErrorCode::kTruncated);
}

TEST(FramedFile, AtomicWriteLeavesNoTempBehind) {
  const std::string dir = temp_dir("atomic");
  const std::string path = dir + "/data.bin";
  ASSERT_TRUE(atomic_write_file(path, "v1", false).ok());
  ASSERT_TRUE(atomic_write_file(path, "v2", false).ok());
  EXPECT_EQ(slurp(path), "v2");
  std::string tmp;
  EXPECT_EQ(read_file(path + ".tmp", &tmp).code, ErrorCode::kIo);
}

WalOptions always_sync() {
  WalOptions o;
  o.sync = WalOptions::Sync::kAlways;
  return o;
}

TEST(WalTest, AppendReadRoundTrip) {
  const std::string dir = temp_dir("wal_roundtrip");
  const std::string path = wal_path(dir);
  Error error;
  auto wal = Wal::open(path, /*base_revision_if_new=*/7, always_sync(), &error);
  ASSERT_NE(wal, nullptr) << error.render();

  WalRecord edit;
  edit.op = WalRecord::Op::kSetBound;
  edit.revision = 8;
  edit.a = 3;
  edit.value = 42;
  wal->append(edit);
  WalRecord marker;
  marker.op = WalRecord::Op::kResolve;
  marker.revision = 8;
  wal->append(marker);
  wal->sync_for_commit();
  EXPECT_EQ(wal->appended_records(), 2);
  EXPECT_GE(wal->fsyncs(), 1);
  wal.reset();

  const Wal::ReadResult read = Wal::read(path);
  ASSERT_TRUE(read.ok()) << read.error.render();
  EXPECT_FALSE(read.torn_tail);
  EXPECT_EQ(read.base_revision, 7u);
  ASSERT_EQ(read.records.size(), 2u);
  EXPECT_EQ(read.records[0].op, WalRecord::Op::kSetBound);
  EXPECT_EQ(read.records[0].revision, 8u);
  EXPECT_EQ(read.records[0].a, 3);
  EXPECT_EQ(read.records[0].value, 42);
  EXPECT_EQ(read.records[1].op, WalRecord::Op::kResolve);
}

TEST(WalTest, TornTailDroppedMidFileCorruptionFatal) {
  const std::string dir = temp_dir("wal_torn");
  const std::string path = wal_path(dir);
  Error error;
  auto wal = Wal::open(path, 0, always_sync(), &error);
  ASSERT_NE(wal, nullptr) << error.render();
  for (std::uint64_t rev = 1; rev <= 3; ++rev) {
    WalRecord rec;
    rec.op = WalRecord::Op::kSetBound;
    rec.revision = rev;
    rec.a = 0;
    rec.value = static_cast<std::int64_t>(rev);
    wal->append(rec);
  }
  wal->sync_now();
  wal.reset();
  const std::string intact = slurp(path);

  // Crash mid-append: an incomplete final record is a torn tail. The
  // intact prefix survives; the tail is dropped and reported.
  dump(path, intact.substr(0, intact.size() - 5));
  Wal::ReadResult read = Wal::read(path);
  ASSERT_TRUE(read.ok()) << read.error.render();
  EXPECT_TRUE(read.torn_tail);
  ASSERT_EQ(read.records.size(), 2u);
  EXPECT_EQ(read.records.back().revision, 2u);

  // Re-opening for append truncates the torn tail away.
  wal = Wal::open(path, 0, always_sync(), &error);
  ASSERT_NE(wal, nullptr) << error.render();
  wal.reset();
  read = Wal::read(path);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read.torn_tail);
  EXPECT_EQ(read.records.size(), 2u);

  // A bit flip in acknowledged history (records follow it) is
  // corruption, not a torn tail: fatal, structured rejection.
  std::string corrupt = intact;
  corrupt[intact.size() / 2] ^= 0x01;
  dump(path, corrupt);
  read = Wal::read(path);
  EXPECT_FALSE(read.ok());
  EXPECT_TRUE(read.records.empty());
}

/// Disarms the process-wide fault injector even when a test assertion
/// bails out early, so later tests never run against a faulty "disk".
struct ScopedFaults {
  explicit ScopedFaults(const base::FaultFsConfig& config) {
    base::fault_fs().arm(config);
  }
  ~ScopedFaults() { base::fault_fs().disarm(); }
};

TEST(WalTest, TransientWriteFaultsAreRetriedAndCounted) {
  const std::string dir = temp_dir("wal_faults");
  const std::string path = wal_path(dir);

  // A hostile but survivable disk: ~30% of writes are faulted, all of
  // them transient (short writes, EINTR, EAGAIN -- no ENOSPC), fsync
  // and rename untouched. The WAL's bounded-backoff retry loop must
  // absorb every one of them.
  base::FaultFsConfig config;
  config.seed = 11;
  config.write_per10k = 3000;
  ScopedFaults faults(config);

  Error error;
  auto wal = Wal::open(path, /*base_revision_if_new=*/0, always_sync(),
                       &error);
  ASSERT_NE(wal, nullptr) << error.render();
  constexpr int kRecords = 200;
  for (int i = 1; i <= kRecords; ++i) {
    WalRecord rec;
    rec.op = WalRecord::Op::kSetBound;
    rec.revision = static_cast<std::uint64_t>(i);
    rec.a = 0;
    rec.value = i;
    wal->append(rec);
    wal->sync_for_commit();
  }
  ASSERT_TRUE(wal->error().ok()) << wal->error().render();
  // The schedule fired (deterministic from the seed) and the log fought
  // through it: retries nonzero, zero lost records.
  EXPECT_GT(wal->retries(), 0);
  EXPECT_GT(base::fault_fs().counters().short_writes +
                base::fault_fs().counters().eintr +
                base::fault_fs().counters().eagain,
            0);
  wal.reset();
  base::fault_fs().disarm();

  const Wal::ReadResult read = Wal::read(path);
  ASSERT_TRUE(read.ok()) << read.error.render();
  EXPECT_FALSE(read.torn_tail);
  ASSERT_EQ(read.records.size(), static_cast<std::size_t>(kRecords));
  EXPECT_EQ(read.records.back().revision,
            static_cast<std::uint64_t>(kRecords));
}

TEST(FramedFile, RenameFaultFailsCleanlyAndLeavesNoTemp) {
  const std::string dir = temp_dir("rename_fault");
  const std::string path = dir + "/data.bin";
  ASSERT_TRUE(atomic_write_file(path, "v1", false).ok());

  {
    // Every rename fails EIO: the atomic write must surface the error,
    // keep the previous content intact, and clean up its temp file.
    base::FaultFsConfig config;
    config.seed = 5;
    config.rename_per10k = 10000;
    ScopedFaults faults(config);
    const Error error = atomic_write_file(path, "v2", false);
    EXPECT_FALSE(error.ok());
    EXPECT_EQ(error.code, ErrorCode::kIo);
  }
  EXPECT_EQ(slurp(path), "v1");

  DIR* d = ::opendir(dir.c_str());
  ASSERT_NE(d, nullptr);
  while (const dirent* entry = ::readdir(d)) {
    EXPECT_EQ(std::string(entry->d_name).find(".tmp"), std::string::npos)
        << "leaked temp file: " << entry->d_name;
  }
  ::closedir(d);

  // With the disk healthy again the same write goes through.
  ASSERT_TRUE(atomic_write_file(path, "v3", false).ok());
  EXPECT_EQ(slurp(path), "v3");
}

TEST(WalTest, ResetTruncatesToNewBase) {
  const std::string dir = temp_dir("wal_reset");
  Error error;
  auto wal = Wal::open(wal_path(dir), 1, always_sync(), &error);
  ASSERT_NE(wal, nullptr);
  WalRecord rec;
  rec.op = WalRecord::Op::kResolve;
  rec.revision = 2;
  wal->append(rec);
  wal->sync_now();
  ASSERT_TRUE(wal->reset(9).ok());
  EXPECT_EQ(wal->base_revision(), 9u);
  wal.reset();

  const Wal::ReadResult read = Wal::read(wal_path(dir));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.base_revision, 9u);
  EXPECT_TRUE(read.records.empty());
}

/// Appends `count` kSetBound records with revisions first..first+count-1
/// and flushes them to the kernel (no fsync -- read_tail reads the page
/// cache, which is the replication tailing contract).
void append_records(Wal& wal, std::uint64_t first, int count) {
  for (int i = 0; i < count; ++i) {
    WalRecord rec;
    rec.op = WalRecord::Op::kSetBound;
    rec.revision = first + static_cast<std::uint64_t>(i);
    rec.a = 0;
    rec.value = static_cast<std::int64_t>(rec.revision);
    wal.append(rec);
  }
  wal.flush_now();
}

TEST(WalTail, StreamsFromCursorAndReportsNextSeq) {
  const std::string dir = temp_dir("wal_tail");
  const std::string path = wal_path(dir);
  Error error;
  auto wal = Wal::open(path, /*base_revision_if_new=*/3, always_sync(),
                       &error);
  ASSERT_NE(wal, nullptr) << error.render();
  append_records(*wal, 4, 5);

  // From the start: everything, next_seq = total.
  Wal::TailResult tail = Wal::read_tail(path, 0);
  ASSERT_TRUE(tail.ok()) << tail.error.render();
  EXPECT_EQ(tail.base_revision, 3u);
  EXPECT_FALSE(tail.torn_tail);
  ASSERT_EQ(tail.records.size(), 5u);
  EXPECT_EQ(tail.records.front().revision, 4u);
  EXPECT_EQ(tail.next_seq, 5u);

  // From a mid-log cursor: only the suffix.
  tail = Wal::read_tail(path, 2);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail.records.size(), 3u);
  EXPECT_EQ(tail.records.front().revision, 6u);
  EXPECT_EQ(tail.next_seq, 5u);

  // At the end: nothing new, cursor confirmed -- the steady state of a
  // caught-up follower polling an idle log.
  tail = Wal::read_tail(path, 5);
  ASSERT_TRUE(tail.ok());
  EXPECT_TRUE(tail.records.empty());
  EXPECT_EQ(tail.next_seq, 5u);

  // New appends become visible to the same cursor after a flush, with
  // no fsync required.
  append_records(*wal, 9, 2);
  tail = Wal::read_tail(path, 5);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail.records.size(), 2u);
  EXPECT_EQ(tail.records.front().revision, 9u);
  EXPECT_EQ(tail.next_seq, 7u);
}

TEST(WalTail, TornTailToleratedMidFileCorruptionFatal) {
  const std::string dir = temp_dir("wal_tail_torn");
  const std::string path = wal_path(dir);
  Error error;
  auto wal = Wal::open(path, 0, always_sync(), &error);
  ASSERT_NE(wal, nullptr) << error.render();
  append_records(*wal, 1, 3);
  wal->sync_now();
  wal.reset();
  const std::string intact = slurp(path);

  // An incomplete final record is an append that may still be in
  // flight: the intact prefix streams, the tail is flagged but NOT
  // fatal -- the follower simply polls again.
  dump(path, intact.substr(0, intact.size() - 5));
  Wal::TailResult tail = Wal::read_tail(path, 0);
  ASSERT_TRUE(tail.ok()) << tail.error.render();
  EXPECT_TRUE(tail.torn_tail);
  ASSERT_EQ(tail.records.size(), 2u);
  EXPECT_EQ(tail.next_seq, 2u);

  // A cursor already past the intact prefix sees no new records.
  tail = Wal::read_tail(path, 2);
  ASSERT_TRUE(tail.ok());
  EXPECT_TRUE(tail.records.empty());
  EXPECT_EQ(tail.next_seq, 2u);

  // A bit flip in acknowledged history is fatal for streaming: the
  // caller must re-bootstrap from a snapshot, not ship damaged edits.
  std::string corrupt = intact;
  corrupt[intact.size() / 2] ^= 0x01;
  dump(path, corrupt);
  tail = Wal::read_tail(path, 0);
  EXPECT_FALSE(tail.ok());
  EXPECT_TRUE(tail.records.empty());

  // So is a missing file.
  ASSERT_EQ(std::remove(path.c_str()), 0);
  tail = Wal::read_tail(path, 0);
  EXPECT_FALSE(tail.ok());
}

TEST(WalTail, ResetSignaledByBaseRevisionAndRegressedNextSeq) {
  const std::string dir = temp_dir("wal_tail_reset");
  const std::string path = wal_path(dir);
  Error error;
  auto wal = Wal::open(path, 1, always_sync(), &error);
  ASSERT_NE(wal, nullptr) << error.render();
  append_records(*wal, 2, 4);

  Wal::TailResult tail = Wal::read_tail(path, 4);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail.base_revision, 1u);
  EXPECT_EQ(tail.next_seq, 4u);

  // A checkpoint truncates the log to a fresh header. A follower
  // holding the old cursor must see both epoch-change signals: the
  // base_revision changed and next_seq regressed below its from_seq.
  ASSERT_TRUE(wal->reset(5).ok());
  tail = Wal::read_tail(path, 4);
  ASSERT_TRUE(tail.ok()) << tail.error.render();
  EXPECT_EQ(tail.base_revision, 5u);
  EXPECT_TRUE(tail.records.empty());
  EXPECT_LT(tail.next_seq, 4u);
  EXPECT_EQ(tail.next_seq, 0u);

  // Records appended in the new epoch stream from seq 0.
  append_records(*wal, 6, 2);
  tail = Wal::read_tail(path, 0);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail.records.size(), 2u);
  EXPECT_EQ(tail.records.front().revision, 6u);
  EXPECT_EQ(tail.next_seq, 2u);
}

}  // namespace
}  // namespace relsched::persist

namespace relsched::engine {
namespace {

using persist::ErrorCode;
using persist::snapshot_path;
using persist::wal_path;

EdgeId find_max_edge(const cg::ConstraintGraph& g) {
  for (const cg::Edge& e : g.edges()) {
    if (e.kind == cg::EdgeKind::kMaxConstraint) return e.id;
  }
  ADD_FAILURE() << "graph has no max constraint";
  return EdgeId::invalid();
}

void expect_same_products(const SynthesisSession& a,
                          const SynthesisSession& b) {
  const Products& pa = a.products();
  const Products& pb = b.products();
  EXPECT_EQ(pa.revision, pb.revision);
  EXPECT_EQ(pa.schedule.status, pb.schedule.status);
  EXPECT_EQ(pa.topo, pb.topo);
  ASSERT_EQ(a.graph().vertex_count(), b.graph().vertex_count());
  for (int vi = 0; vi < a.graph().vertex_count(); ++vi) {
    EXPECT_EQ(pa.schedule.schedule.offsets(VertexId(vi)),
              pb.schedule.schedule.offsets(VertexId(vi)))
        << "v" << vi;
  }
}

persist::WalOptions always_sync() {
  persist::WalOptions o;
  o.sync = persist::WalOptions::Sync::kAlways;
  return o;
}

/// The committed generated corpus (seed-stamped fixtures from
/// `relsched_cli gen`) must survive the full persistence cycle: parse,
/// certified resolve, checkpoint (v2 snapshot: anchor-domain + bitset
/// rows), restore, bit-identical products, and a post-restore edit.
TEST(SessionCheckpoint, GeneratedFixturesRoundTripThroughSnapshotV2) {
  const std::string fixtures[] = {"gen_s11_v200.cg", "gen_s22_v500.cg",
                                  "gen_s33_v1000.cg"};
  for (const std::string& name : fixtures) {
    const std::string text =
        persist::slurp(std::string(RELSCHED_TEST_DATA_DIR) + "/" + name);
    cg::ParseResult parsed = cg::from_text(text);
    ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.error;
    // The corpus must actually exercise the anchor machinery the v2
    // snapshot serializes; a fixture without anchors pins nothing.
    ASSERT_GT(parsed.graph->anchors().size(), 1u) << name;

    engine::SessionOptions opts;
    opts.certify = true;
    engine::SynthesisSession session(std::move(*parsed.graph), opts);
    ASSERT_TRUE(session.resolve().ok()) << name;

    const std::string dir = persist::temp_dir("gen_fixture");
    ASSERT_TRUE(session.checkpoint(dir).ok()) << name;
    engine::SynthesisSession::RestoreReport report;
    auto restored = engine::SynthesisSession::restore(dir, opts, &report);
    ASSERT_TRUE(restored.has_value()) << name << ": " << report.error.render();
    EXPECT_FALSE(report.cold_fallback) << name;
    expect_same_products(session, *restored);

    // The recovered session keeps working warm: loosen one max bound
    // on both and re-resolve to the same products.
    EdgeId max_edge = EdgeId::invalid();
    for (const cg::Edge& e : session.graph().edges()) {
      if (e.kind == cg::EdgeKind::kMaxConstraint) {
        max_edge = e.id;
        break;
      }
    }
    ASSERT_TRUE(max_edge.is_valid()) << name;
    const int bound = std::abs(session.graph().edge(max_edge).fixed_weight);
    session.set_constraint_bound(max_edge, bound + 1);
    restored->set_constraint_bound(max_edge, bound + 1);
    ASSERT_TRUE(session.resolve().ok()) << name;
    ASSERT_TRUE(restored->resolve().ok()) << name;
    expect_same_products(session, *restored);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SessionCheckpoint, RoundTripRestoresBitIdenticalProducts) {
  const std::string dir = persist::temp_dir("ckpt_roundtrip");
  testing::Fig2Graph fig;
  SynthesisSession session(std::move(fig.g), {});
  ASSERT_TRUE(session.resolve().ok());
  ASSERT_TRUE(session.attach_wal(wal_path(dir), always_sync()).ok());
  EXPECT_TRUE(session.wal_attached());

  session.set_constraint_bound(find_max_edge(session.graph()), 3);
  ASSERT_TRUE(session.resolve().ok());
  ASSERT_TRUE(session.checkpoint(dir).ok());
  EXPECT_EQ(session.stats().checkpoints, 1);

  SynthesisSession::RestoreReport report;
  auto restored = SynthesisSession::restore(dir, {}, &report);
  ASSERT_TRUE(restored.has_value()) << report.error.render();
  EXPECT_EQ(report.replayed_edits, 0);  // checkpoint truncated the WAL
  EXPECT_FALSE(report.cold_fallback);
  EXPECT_EQ(restored->stats().restores, 1);
  expect_same_products(session, *restored);

  // The recovered session keeps working: same edit stream, same result.
  session.set_constraint_bound(find_max_edge(session.graph()), 4);
  restored->set_constraint_bound(find_max_edge(restored->graph()), 4);
  ASSERT_TRUE(session.resolve().ok());
  ASSERT_TRUE(restored->resolve().ok());
  expect_same_products(session, *restored);
}

TEST(SessionCheckpoint, EnospcCheckpointFailsCleanlyThenRecovers) {
  const std::string dir = persist::temp_dir("ckpt_enospc");
  testing::Fig2Graph fig;
  const VertexId v0 = fig.v0, v4 = fig.v4;
  SynthesisSession session(std::move(fig.g), {});
  session.add_min_constraint(v0, v4, 4);
  ASSERT_TRUE(session.resolve().ok());

  {
    // Disk full: every write fails hard with ENOSPC. The checkpoint
    // must surface a structured error and leave no temp file behind.
    base::FaultFsConfig config;
    config.seed = 3;
    config.write_per10k = 10000;
    config.write_enospc_per10k = 10000;
    persist::ScopedFaults faults(config);
    const persist::Error error = session.checkpoint(dir);
    EXPECT_FALSE(error.ok());
    EXPECT_EQ(error.code, ErrorCode::kIo);
    EXPECT_GT(base::fault_fs().counters().enospc, 0);
  }
  DIR* d = ::opendir(dir.c_str());
  ASSERT_NE(d, nullptr);
  while (const dirent* entry = ::readdir(d)) {
    EXPECT_EQ(std::string(entry->d_name).find(".tmp."), std::string::npos)
        << "leaked temp file: " << entry->d_name;
  }
  ::closedir(d);

  // The failed checkpoint cost nothing: the session keeps serving, and
  // with the disk healthy the same checkpoint goes through and restores
  // bit-identically.
  ASSERT_TRUE(session.resolve().ok());
  ASSERT_TRUE(session.checkpoint(dir).ok());
  SynthesisSession::RestoreReport report;
  auto restored = SynthesisSession::restore(dir, {}, &report);
  ASSERT_TRUE(restored.has_value()) << report.error.render();
  expect_same_products(session, *restored);
}

TEST(SessionCheckpoint, WalTailReplaysEditsPastSnapshot) {
  const std::string dir = persist::temp_dir("ckpt_tail");
  testing::Fig2Graph fig;
  const VertexId v0 = fig.v0, v4 = fig.v4;
  SynthesisSession session(std::move(fig.g), {});
  ASSERT_TRUE(session.resolve().ok());
  ASSERT_TRUE(session.attach_wal(wal_path(dir), always_sync()).ok());
  ASSERT_TRUE(session.checkpoint(dir).ok());

  // Two journaled edits and a resolve after the snapshot: they exist
  // only in the WAL when the "crash" happens.
  session.add_min_constraint(v0, v4, 4);
  session.set_constraint_bound(find_max_edge(session.graph()), 3);
  ASSERT_TRUE(session.resolve().ok());

  SynthesisSession::RestoreReport report;
  auto restored = SynthesisSession::restore(dir, {}, &report);
  ASSERT_TRUE(restored.has_value()) << report.error.render();
  EXPECT_EQ(report.replayed_edits, 2);
  EXPECT_EQ(report.replayed_resolves, 1);
  EXPECT_FALSE(report.wal_torn_tail);
  expect_same_products(session, *restored);
}

TEST(SessionCheckpoint, TornWalTailDroppedAndReported) {
  const std::string dir = persist::temp_dir("ckpt_torn");
  testing::Fig2Graph fig;
  const VertexId v0 = fig.v0, v4 = fig.v4;
  SynthesisSession session(std::move(fig.g), {});
  ASSERT_TRUE(session.resolve().ok());
  ASSERT_TRUE(session.attach_wal(wal_path(dir), always_sync()).ok());
  ASSERT_TRUE(session.checkpoint(dir).ok());
  const std::uint64_t checkpoint_revision = session.graph().revision();
  session.add_min_constraint(v0, v4, 4);
  ASSERT_TRUE(session.resolve().ok());

  // Crash mid-append of the trailing record: recovery drops the torn
  // tail (that edit never committed) and reports it.
  std::string bytes;
  ASSERT_TRUE(persist::read_file(wal_path(dir), &bytes).ok());
  ASSERT_TRUE(persist::atomic_write_file(
                  wal_path(dir), bytes.substr(0, bytes.size() - 3), false)
                  .ok());
  SynthesisSession::RestoreReport report;
  auto restored = SynthesisSession::restore(dir, {}, &report);
  ASSERT_TRUE(restored.has_value()) << report.error.render();
  EXPECT_TRUE(report.wal_torn_tail);
  EXPECT_FALSE(report.wal_torn_detail.empty());

  // Re-applying the lost edit converges with the uninterrupted run.
  EXPECT_LE(restored->graph().revision(), checkpoint_revision + 1);
  if (restored->graph().revision() == checkpoint_revision) {
    restored->add_min_constraint(v0, v4, 4);
  }
  ASSERT_TRUE(restored->resolve().ok());
  expect_same_products(session, *restored);
}

TEST(SessionCheckpoint, PendingUnresolvedEditsRecomputeColdOnRestore) {
  const std::string dir = persist::temp_dir("ckpt_pending");
  testing::Fig2Graph fig;
  SynthesisSession session(std::move(fig.g), {});
  ASSERT_TRUE(session.resolve().ok());
  // Edit journaled but NOT resolved when the checkpoint lands.
  session.set_constraint_bound(find_max_edge(session.graph()), 3);
  ASSERT_TRUE(session.checkpoint(dir).ok());

  SynthesisSession::RestoreReport report;
  auto restored = SynthesisSession::restore(dir, {}, &report);
  ASSERT_TRUE(restored.has_value()) << report.error.render();
  ASSERT_TRUE(session.resolve().ok());
  ASSERT_TRUE(restored->resolve().ok());
  EXPECT_GE(restored->stats().cold_resolves, 1);
  expect_same_products(session, *restored);
}

TEST(SessionCheckpoint, CorruptSnapshotRejectedStructurally) {
  const std::string dir = persist::temp_dir("ckpt_corrupt");
  testing::Fig2Graph fig;
  SynthesisSession session(std::move(fig.g), {});
  ASSERT_TRUE(session.resolve().ok());
  ASSERT_TRUE(session.checkpoint(dir).ok());

  std::string bytes;
  ASSERT_TRUE(persist::read_file(snapshot_path(dir), &bytes).ok());
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x10;
  ASSERT_TRUE(persist::atomic_write_file(snapshot_path(dir), flipped, false)
                  .ok());
  SynthesisSession::RestoreReport report;
  EXPECT_FALSE(SynthesisSession::restore(dir, {}, &report).has_value());
  EXPECT_EQ(report.error.code, ErrorCode::kChecksum);

  // Torn short file: truncated, never parsed.
  ASSERT_TRUE(persist::atomic_write_file(snapshot_path(dir),
                                         bytes.substr(0, 12), false)
                  .ok());
  EXPECT_FALSE(SynthesisSession::restore(dir, {}, &report).has_value());
  EXPECT_EQ(report.error.code, ErrorCode::kTruncated);

  // Missing snapshot: a clean io rejection, not a crash.
  std::remove(snapshot_path(dir).c_str());
  EXPECT_FALSE(SynthesisSession::restore(dir, {}, &report).has_value());
  EXPECT_EQ(report.error.code, ErrorCode::kIo);
}

// Sessions only schedule against full anchor sets, so a snapshot whose
// mode byte (right after the graph payload) names a restricted mode is
// malformed. The framing is rewritten around the patched payload so the
// checksum passes and the mode check itself is reached.
TEST(SessionCheckpoint, ScheduleModeMismatchRejected) {
  const std::string dir = persist::temp_dir("ckpt_mode");
  testing::Fig2Graph fig;
  SynthesisSession session(std::move(fig.g), {});
  ASSERT_TRUE(session.resolve().ok());
  ASSERT_TRUE(session.checkpoint(dir).ok());

  constexpr std::string_view kMagic = "RSNAP001";
  constexpr std::uint32_t kVersion = 4;
  std::string payload;
  ASSERT_TRUE(
      persist::read_framed_file(snapshot_path(dir), kMagic, kVersion, &payload)
          .ok());
  persist::Writer graph_bytes;
  persist::save_graph(graph_bytes, session.graph());
  const std::size_t mode_at = graph_bytes.buffer().size();
  ASSERT_LT(mode_at, payload.size());
  ASSERT_EQ(payload[mode_at], '\0');  // the one mode sessions write

  SynthesisSession::RestoreReport report;
  for (const char mode : {'\1', '\2', '\xff'}) {
    std::string patched = payload;
    patched[mode_at] = mode;
    ASSERT_TRUE(persist::write_framed_file(snapshot_path(dir), kMagic,
                                           kVersion, patched, false)
                    .ok());
    EXPECT_FALSE(SynthesisSession::restore(dir, {}, &report).has_value());
    EXPECT_EQ(report.error.code, ErrorCode::kFormat);
  }
  // The untouched payload still restores.
  ASSERT_TRUE(persist::write_framed_file(snapshot_path(dir), kMagic, kVersion,
                                         payload, false)
                  .ok());
  EXPECT_TRUE(SynthesisSession::restore(dir, {}, &report).has_value())
      << report.error.message;
}

// ---- Snapshot v4: cone-restricted anchor cells -------------------------
//
// Since v4 the analysis payload ends with two cell arrays (length
// cells, then defining cells), each a u64 count and that many i64s.
// The counts are fixed by the bit rows loaded before them.

/// Byte offsets of the two cell counts inside persist::save_analysis() bytes.
struct CellCountOffsets {
  std::size_t length = 0;
  std::size_t defining = 0;
};

CellCountOffsets cell_count_offsets(const anchors::AnchorAnalysis& a,
                                    std::size_t analysis_size) {
  const std::size_t length_cells =
      a.total_anchor_set_size(anchors::AnchorMode::kFull) + a.anchors().size();
  const std::size_t defining_cells =
      a.total_anchor_set_size(anchors::AnchorMode::kRelevant);
  CellCountOffsets at;
  at.defining = analysis_size - 8 * defining_cells - 8;
  at.length = at.defining - 8 * length_cells - 8;
  return at;
}

void put_u64(std::string& bytes, std::size_t at, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

anchors::AnchorAnalysis resolved_fig2_analysis() {
  testing::Fig2Graph fig;
  SynthesisSession session(std::move(fig.g), {});
  EXPECT_TRUE(session.resolve().ok());
  return session.products().analysis;
}

TEST(SnapshotV4, Version3SnapshotIsRefused) {
  const std::string dir = persist::temp_dir("ckpt_v3");
  testing::Fig2Graph fig;
  SynthesisSession session(std::move(fig.g), {});
  ASSERT_TRUE(session.resolve().ok());
  ASSERT_TRUE(session.checkpoint(dir).ok());
  std::string payload;
  ASSERT_TRUE(
      persist::read_framed_file(snapshot_path(dir), "RSNAP001", 4, &payload).ok());
  // The same payload framed as a version-3 file: dense anchor rows are
  // no longer readable, and the framing says so before any parsing.
  ASSERT_TRUE(
      persist::write_framed_file(snapshot_path(dir), "RSNAP001", 3, payload, false)
          .ok());
  SynthesisSession::RestoreReport report;
  EXPECT_FALSE(SynthesisSession::restore(dir, {}, &report).has_value());
  EXPECT_EQ(report.error.code, ErrorCode::kBadVersion);
}

TEST(SnapshotV4, CellCountsMustMatchTheBitRows) {
  const anchors::AnchorAnalysis a = resolved_fig2_analysis();
  persist::Writer w;
  persist::save_analysis(w, a);
  const std::string bytes = w.buffer();
  const CellCountOffsets at = cell_count_offsets(a, bytes.size());
  {
    persist::Reader r(bytes);
    anchors::AnchorAnalysis loaded;
    ASSERT_TRUE(persist::load_analysis(r, &loaded));
    ASSERT_TRUE(r.at_end());
  }
  const std::uint64_t length_count = a.total_anchor_set_size(
                                         anchors::AnchorMode::kFull) +
                                     a.anchors().size();
  const std::uint64_t defining_count =
      a.total_anchor_set_size(anchors::AnchorMode::kRelevant);
  struct Patch {
    std::size_t at;
    std::uint64_t count;
  };
  // Off by one either way, and counts far past the payload (no
  // allocation may be sized from them).
  const Patch patches[] = {
      {at.length, length_count + 1},
      {at.length, length_count - 1},
      {at.length, std::uint64_t{1} << 60},
      {at.length, ~std::uint64_t{0}},
      {at.defining, defining_count + 1},
      {at.defining, defining_count == 0 ? 1 : defining_count - 1},
      {at.defining, std::uint64_t{1} << 61},
  };
  for (const Patch& p : patches) {
    std::string patched = bytes;
    put_u64(patched, p.at, p.count);
    persist::Reader r(patched);
    anchors::AnchorAnalysis loaded;
    EXPECT_FALSE(persist::load_analysis(r, &loaded))
        << "count " << p.count << " at " << p.at;
    EXPECT_FALSE(r.ok());
  }
}

TEST(SnapshotV4, TruncatedCellArraysFail) {
  const anchors::AnchorAnalysis a = resolved_fig2_analysis();
  persist::Writer w;
  persist::save_analysis(w, a);
  const std::string bytes = w.buffer();
  const CellCountOffsets at = cell_count_offsets(a, bytes.size());
  // Every cut from the first count's first byte to one byte short of
  // the end: inside a count, between cells, and mid-cell.
  for (std::size_t cut = at.length; cut < bytes.size(); ++cut) {
    persist::Reader r(std::string_view(bytes).substr(0, cut));
    anchors::AnchorAnalysis loaded;
    EXPECT_FALSE(persist::load_analysis(r, &loaded)) << "cut at " << cut;
  }
}

TEST(SnapshotV4, CorruptCellCountFailsRestoreWithFormatError) {
  const std::string dir = persist::temp_dir("ckpt_cells");
  testing::Fig2Graph fig;
  SynthesisSession session(std::move(fig.g), {});
  ASSERT_TRUE(session.resolve().ok());
  ASSERT_TRUE(session.checkpoint(dir).ok());
  std::string payload;
  ASSERT_TRUE(
      persist::read_framed_file(snapshot_path(dir), "RSNAP001", 4, &payload).ok());
  // Payload: graph, mode byte, two flags, products revision, analysis.
  persist::Writer graph_bytes;
  persist::save_graph(graph_bytes, session.graph());
  persist::Writer analysis_bytes;
  persist::save_analysis(analysis_bytes, session.products().analysis);
  const std::size_t analysis_at = graph_bytes.buffer().size() + 1 + 2 + 8;
  ASSERT_EQ(payload.substr(analysis_at, analysis_bytes.buffer().size()),
            analysis_bytes.buffer());
  const CellCountOffsets at = cell_count_offsets(
      session.products().analysis, analysis_bytes.buffer().size());
  for (const std::size_t count_at : {at.length, at.defining}) {
    std::string patched = payload;
    put_u64(patched, analysis_at + count_at, std::uint64_t{1} << 40);
    ASSERT_TRUE(persist::write_framed_file(snapshot_path(dir), "RSNAP001", 4, patched,
                                  false)
                    .ok());
    SynthesisSession::RestoreReport report;
    EXPECT_FALSE(SynthesisSession::restore(dir, {}, &report).has_value());
    EXPECT_EQ(report.error.code, ErrorCode::kFormat);
  }
}

/// Regression: a checkpoint taken after edit -> *failed* resolve used
/// to persist the pre-edit topological order (failure exits skipped the
/// order reset), and restore then rejected the snapshot as
/// inconsistent -- silently discarding acknowledged edits at the serve
/// layer. The persisted order must track the graph even when no resolve
/// has succeeded since the last edit.
TEST(SessionCheckpoint, EditsAfterFailedResolveSurviveCheckpointRestore) {
  const std::string dir = persist::temp_dir("ckpt_failed_resolve");
  testing::Fig2Graph fig;
  const VertexId v0 = fig.v0, a = fig.a, v1 = fig.v1, v4 = fig.v4;
  SynthesisSession session(std::move(fig.g), {});
  ASSERT_TRUE(session.resolve().ok());

  // A max constraint whose forward path runs through the unbounded
  // anchor `a` (the Fig. 3(a) pattern): ill-posed, resolve fails.
  const EdgeId bad = session.add_max_constraint(v0, v4, 20);
  EXPECT_FALSE(session.resolve().ok());

  // Another edit after the failed resolve -- one that contradicts the
  // stale order (v1 now precedes `a`) -- then a second failed resolve
  // and a checkpoint.
  session.add_min_constraint(v1, a, 1);
  EXPECT_FALSE(session.resolve().ok());
  ASSERT_TRUE(session.checkpoint(dir).ok());

  SynthesisSession::RestoreReport report;
  auto restored = SynthesisSession::restore(dir, {}, &report);
  ASSERT_TRUE(restored.has_value()) << report.error.render();

  // Both sides drop the ill-posed max and converge bit-identically.
  session.remove_constraint(bad);
  restored->remove_constraint(bad);
  ASSERT_TRUE(session.resolve().ok());
  ASSERT_TRUE(restored->resolve().ok());
  expect_same_products(session, *restored);
}

/// Two sessions sharing one checkpoint directory, deterministically
/// interleaved: A journals and snapshots; B restores mid-stream,
/// tracks the same edits independently, then takes over the WAL when A
/// detaches. Every handoff point must restore bit-identically.
TEST(SessionCheckpoint, TwoSessionsInterleavedOnOneCheckpointDir) {
  const std::string dir = persist::temp_dir("ckpt_shared");
  testing::Fig2Graph fig;
  const VertexId v0 = fig.v0, v1 = fig.v1, v2 = fig.v2, v3 = fig.v3,
                 v4 = fig.v4;
  SynthesisSession a(std::move(fig.g), {});
  ASSERT_TRUE(a.resolve().ok());
  ASSERT_TRUE(a.attach_wal(wal_path(dir), always_sync()).ok());
  a.add_min_constraint(v0, v4, 4);
  ASSERT_TRUE(a.resolve().ok());
  ASSERT_TRUE(a.checkpoint(dir).ok());

  // B restores from the dir while A stays live on it.
  SynthesisSession::RestoreReport report;
  auto b = SynthesisSession::restore(dir, {}, &report);
  ASSERT_TRUE(b.has_value()) << report.error.render();
  expect_same_products(a, *b);

  // Both apply the same edit; A (still owning the WAL) checkpoints.
  a.add_min_constraint(v1, v3, 1);
  b->add_min_constraint(v1, v3, 1);
  ASSERT_TRUE(a.resolve().ok());
  ASSERT_TRUE(b->resolve().ok());
  expect_same_products(a, *b);
  ASSERT_TRUE(a.checkpoint(dir).ok());

  // Handoff: A detaches, B attaches the same log at the same revision
  // and continues the history. A third session restoring the dir sees
  // B's post-handoff edit replayed from the WAL tail.
  a.detach_wal();
  ASSERT_TRUE(b->attach_wal(wal_path(dir), always_sync()).ok());
  b->add_min_constraint(v2, v4, 2);
  ASSERT_TRUE(b->resolve().ok());

  auto c = SynthesisSession::restore(dir, {}, &report);
  ASSERT_TRUE(c.has_value()) << report.error.render();
  EXPECT_EQ(report.replayed_edits, 1);
  expect_same_products(*b, *c);
}

/// Concurrent checkpoint vs. restore on one directory: the writer
/// snapshots after every edit while the reader restores continuously.
/// Atomic temp+rename publication means every restore sees a complete
/// old-or-new snapshot -- never a torn one -- and each restored session
/// must resolve on its own.
TEST(SessionCheckpoint, ConcurrentCheckpointAndRestoreNeverTearState) {
  const std::string dir = persist::temp_dir("ckpt_concurrent");
  testing::Fig2Graph fig;
  SynthesisSession session(std::move(fig.g), {});
  const EdgeId max_edge = find_max_edge(session.graph());
  ASSERT_TRUE(session.resolve().ok());
  ASSERT_TRUE(session.checkpoint(dir).ok());

  std::atomic<bool> done{false};
  std::atomic<int> restores_ok{0};
  std::atomic<int> restores_failed{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      SynthesisSession::RestoreReport report;
      auto restored = SynthesisSession::restore(dir, {}, &report);
      if (!restored.has_value()) {
        restores_failed.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      restores_ok.fetch_add(1, std::memory_order_relaxed);
      EXPECT_TRUE(restored->resolve().ok());
    }
  });
  for (int i = 0; i < 20; ++i) {
    session.set_constraint_bound(max_edge, 3 + (i % 2));
    ASSERT_TRUE(session.resolve().ok());
    ASSERT_TRUE(session.checkpoint(dir).ok());
  }
  done.store(true, std::memory_order_release);
  reader.join();
  // Without a WAL in play every published snapshot is self-contained:
  // restores may race a rename but must always land on a whole file.
  EXPECT_GT(restores_ok.load(), 0);
  EXPECT_EQ(restores_failed.load(), 0);
}

TEST(SessionCancellation, ExpiredDeadlineYieldsCancelledVerdict) {
  testing::Fig2Graph fig;
  SessionOptions opts;
  opts.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  SynthesisSession session(std::move(fig.g), opts);

  const Products& p = session.resolve();
  EXPECT_EQ(p.schedule.status, sched::ScheduleStatus::kCancelled);
  EXPECT_EQ(p.schedule.diag.code, certify::Code::kTimeout);
  EXPECT_NE(p.schedule.message.find("deadline exceeded"), std::string::npos)
      << p.schedule.message;
  EXPECT_EQ(session.stats().cancelled_resolves, 1);

  // Lifting the deadline lets the next resolve recompute cold.
  session.set_cancellation(base::CancelToken{});
  EXPECT_TRUE(session.resolve().ok());
  EXPECT_EQ(session.stats().cancelled_resolves, 1);
}

TEST(SessionCancellation, CancelTokenStopsResolve) {
  testing::Fig2Graph fig;
  SessionOptions opts;
  base::CancelToken token = base::CancelToken::make();
  token.request_cancel();
  opts.cancel = token;
  SynthesisSession session(std::move(fig.g), opts);
  const Products& p = session.resolve();
  EXPECT_EQ(p.schedule.status, sched::ScheduleStatus::kCancelled);
  EXPECT_NE(p.schedule.message.find("cancellation requested"),
            std::string::npos)
      << p.schedule.message;
}

TEST(SessionEnv, CertifyFlagParsersAreStrict) {
  // certify_default() caches its first read, so the parser itself is
  // exercised through the pure base::parse_* functions it delegates to.
  EXPECT_EQ(base::parse_env_flag("1"), true);
  EXPECT_EQ(base::parse_env_flag("TRUE"), true);
  EXPECT_EQ(base::parse_env_flag("on"), true);
  EXPECT_EQ(base::parse_env_flag("Yes"), true);
  EXPECT_EQ(base::parse_env_flag("0"), false);
  EXPECT_EQ(base::parse_env_flag("off"), false);
  EXPECT_EQ(base::parse_env_flag(""), std::nullopt);
  EXPECT_EQ(base::parse_env_flag("yse"), std::nullopt);
  EXPECT_EQ(base::parse_env_flag("1 "), std::nullopt);
  EXPECT_EQ(base::parse_env_flag("2"), std::nullopt);

  EXPECT_EQ(base::parse_env_int("50"), 50);
  EXPECT_EQ(base::parse_env_int("-3"), -3);
  EXPECT_EQ(base::parse_env_int("50ms"), std::nullopt);
  EXPECT_EQ(base::parse_env_int(""), std::nullopt);

  EXPECT_EQ(base::parse_env_choice("ALWAYS", {"interval", "always", "none"}),
            1);
  EXPECT_EQ(base::parse_env_choice("sometimes",
                                   {"interval", "always", "none"}),
            std::nullopt);
}

TEST(SessionEnv, CheckpointSyncEnvSelectsPolicy) {
  ::setenv("RELSCHED_CHECKPOINT_SYNC", "always", 1);
  ::setenv("RELSCHED_CHECKPOINT_SYNC_INTERVAL_MS", "125", 1);
  persist::WalOptions o = persist::WalOptions::from_env();
  EXPECT_EQ(o.sync, persist::WalOptions::Sync::kAlways);
  EXPECT_EQ(o.sync_interval.count(), 125);

  // Unrecognized values warn once and keep the documented defaults.
  ::setenv("RELSCHED_CHECKPOINT_SYNC", "sometimes", 1);
  ::setenv("RELSCHED_CHECKPOINT_SYNC_INTERVAL_MS", "50ms", 1);
  o = persist::WalOptions::from_env();
  EXPECT_EQ(o.sync, persist::WalOptions::Sync::kInterval);
  EXPECT_EQ(o.sync_interval.count(), 50);

  ::unsetenv("RELSCHED_CHECKPOINT_SYNC");
  ::unsetenv("RELSCHED_CHECKPOINT_SYNC_INTERVAL_MS");
}

}  // namespace
}  // namespace relsched::engine
