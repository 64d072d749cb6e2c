// Fuzz target for session snapshot restore (RSNAP001 payloads read by
// engine::SynthesisSession::restore: graph, products with the anchor
// analysis and the schedule's verdict, the Gf order and statistics).
//
// The input is a snapshot payload. It is sealed into a framed file with
// the current magic, version and checksum, so every mutation reaches
// the payload parsers instead of dying at the checksum. Contract, for
// every input:
//   - restore neither crashes nor throws: it yields a session or a
//     structured error (a non-ok code with a message);
//   - no single allocation during restore exceeds a bound linear in the
//     payload size, so no count read from the bytes (vertex, edge,
//     anchor, cell or per-vertex anchor count) sizes memory before it
//     is checked against the bytes left;
//   - a restored session resolves without throwing.
//
// Two entry points reach LLVMFuzzerTestOneInput:
//   - libFuzzer: clang++ -fsanitize=fuzzer,address -DRELSCHED_LIBFUZZER
//     links its own main and explores from a corpus directory.
//   - standalone (the default, any compiler; a ctest): seeds a corpus
//     from checkpoints of the suite designs' graphs (resolved, edited
//     but unresolved, and failing), then replays deterministic byte,
//     word and chunk mutations of each seed. Exits 0 when every input
//     meets the contract; a violation prints the input and aborts.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <new>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "designs/designs.hpp"
#include "driver/synthesis.hpp"
#include "engine/session.hpp"
#include "persist/serialize.hpp"

// ---- Allocation bound -------------------------------------------------------
// Replaced global operator new: while armed, records the largest single
// request. Unarmed it is a plain malloc.

namespace {
std::atomic<bool> g_armed{false};
std::atomic<std::size_t> g_largest{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_armed.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest.load(std::memory_order_relaxed);
    while (size > seen && !g_largest.compare_exchange_weak(seen, size)) {
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using relsched::engine::SynthesisSession;
namespace persist = relsched::persist;

constexpr std::string_view kMagic = "RSNAP001";
constexpr std::uint32_t kVersion = 6;

struct Tally {
  long long inputs = 0;
  long long restored = 0;
  long long rejected = 0;
};
Tally tally;

std::string hex(std::string_view bytes) {
  std::string out;
  char buf[4];
  for (const char c : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", static_cast<unsigned char>(c));
    out += buf;
  }
  return out;
}

[[noreturn]] void violation(std::string_view payload, const std::string& what) {
  std::fprintf(stderr, "fuzz_snapshot: %s\npayload (%zu bytes): %s\n",
               what.c_str(), payload.size(), hex(payload).c_str());
  std::abort();
}

/// Per-process scratch directory the payload is sealed into.
const std::string& scratch_dir() {
  static const std::string dir = [] {
    const std::filesystem::path p =
        std::filesystem::temp_directory_path() /
        ("relsched_fuzz_snapshot_" + std::to_string(::getpid()));
    std::filesystem::create_directories(p);
    return p.string();
  }();
  return dir;
}

void check_one(std::string_view payload) {
  ++tally.inputs;
  const std::string& dir = scratch_dir();
  if (const persist::Error e = persist::write_framed_file(
          persist::snapshot_path(dir), kMagic, kVersion, payload,
          /*durable=*/false);
      !e.ok()) {
    std::fprintf(stderr, "fuzz_snapshot: cannot write %s: %s\n", dir.c_str(),
                 e.message.c_str());
    std::exit(2);
  }
  relsched::engine::SessionOptions options;
  options.certify = false;
  SynthesisSession::RestoreReport report;
  std::optional<SynthesisSession> session;
  // Every structure restore builds is bounded by the bytes it reads;
  // the bit rows of the anchor sets are the widest (|V| x |A| bits).
  const std::size_t bound = 64 * payload.size() + (1u << 16);
  g_largest = 0;
  g_armed = true;
  try {
    session = SynthesisSession::restore(dir, options, &report);
  } catch (const std::exception& e) {
    g_armed = false;
    violation(payload, std::string("restore threw: ") + e.what());
  }
  g_armed = false;
  if (g_largest > bound) {
    violation(payload, "restore allocated " + std::to_string(g_largest.load()) +
                           " bytes at once (bound " + std::to_string(bound) +
                           ")");
  }
  if (!session.has_value()) {
    if (report.error.ok() || report.error.message.empty()) {
      violation(payload, "restore failed without a structured error");
    }
    ++tally.rejected;
    return;
  }
  if (!report.error.ok()) {
    violation(payload, "restore returned a session and an error");
  }
  ++tally.restored;
  try {
    (void)session->resolve();
  } catch (const std::exception& e) {
    violation(payload, std::string("resolve after restore threw: ") + e.what());
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  check_one(std::string_view(reinterpret_cast<const char*>(data), size));
  return 0;
}

#ifndef RELSCHED_LIBFUZZER

namespace {

using Rng = std::mt19937_64;

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng() % n);
}

/// The payload of `session`'s checkpoint.
std::string checkpoint_payload(SynthesisSession& session) {
  const std::string& dir = scratch_dir();
  if (const persist::Error e = session.checkpoint(dir); !e.ok()) {
    std::fprintf(stderr, "fuzz_snapshot: checkpoint failed: %s\n",
                 e.message.c_str());
    std::exit(2);
  }
  std::string payload;
  if (const persist::Error e = persist::read_framed_file(
          persist::snapshot_path(dir), kMagic, kVersion, &payload);
      !e.ok()) {
    std::fprintf(stderr, "fuzz_snapshot: cannot read back: %s\n",
                 e.message.c_str());
    std::exit(2);
  }
  return payload;
}

/// Checkpoints of every suite design's constraint graphs: resolved,
/// edited and unresolved (pending cold), and after an infeasible edit.
std::vector<std::string> seed_corpus() {
  std::vector<std::string> corpus;
  for (const auto& d : relsched::designs::benchmark_suite()) {
    relsched::seq::Design design = relsched::designs::build(d.name);
    const relsched::driver::SynthesisResult r =
        relsched::driver::synthesize(design);
    for (const auto& gs : r.graphs) {
      relsched::engine::SessionOptions options;
      options.certify = false;
      SynthesisSession session(gs.constraint_graph, options);
      (void)session.resolve();
      corpus.push_back(checkpoint_payload(session));
      const relsched::cg::ConstraintGraph& g = session.graph();
      if (g.vertex_count() < 3) continue;
      // A min constraint along the order, resolved warm, then one
      // more edit left pending.
      const std::vector<int> order = *g.forward_order();
      session.add_min_constraint(relsched::VertexId(order[1]),
                                 relsched::VertexId(order.back()), 1);
      (void)session.resolve();
      corpus.push_back(checkpoint_payload(session));
      session.add_max_constraint(relsched::VertexId(order[1]),
                                 relsched::VertexId(order.back()), 0);
      corpus.push_back(checkpoint_payload(session));
      (void)session.resolve();
      corpus.push_back(checkpoint_payload(session));
    }
  }
  return corpus;
}

/// Words worth writing over a count or an id: boundaries and
/// off-by-ones.
const std::uint32_t kWords[] = {0,          1,          2,
                                3,          0x7f,       0xff,
                                0x100,      0xffff,     0x10000,
                                0x7fffffff, 0x80000000, 0xfffffffe,
                                0xffffffff};

void put_u32(std::string& s, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4 && at + static_cast<std::size_t>(i) < s.size(); ++i) {
    s[at + static_cast<std::size_t>(i)] = static_cast<char>(v >> (8 * i));
  }
}

std::uint32_t get_u32(const std::string& s, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4 && at + static_cast<std::size_t>(i) < s.size(); ++i) {
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(s[at + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  return v;
}

void mutate(std::string& s, Rng& rng) {
  if (s.empty()) {
    s.push_back(static_cast<char>(rng()));
    return;
  }
  const std::size_t at = pick(rng, s.size());
  switch (pick(rng, 6)) {
    case 0:  // flip one bit
      s[at] = static_cast<char>(s[at] ^ (1 << pick(rng, 8)));
      break;
    case 1:  // overwrite a word with a boundary value
      put_u32(s, at, kWords[pick(rng, std::size(kWords))]);
      break;
    case 2:  // nudge a word by one
      put_u32(s, at, get_u32(s, at) + (pick(rng, 2) == 0 ? 1u : ~0u));
      break;
    case 3:  // truncate
      s.resize(at);
      break;
    case 4: {  // delete a chunk
      s.erase(at, 1 + pick(rng, 16));
      break;
    }
    default: {  // duplicate a chunk in place
      const std::size_t len = std::min<std::size_t>(1 + pick(rng, 16),
                                                    s.size() - at);
      s.insert(at, s.substr(at, len));
      break;
    }
  }
}

}  // namespace

int main() {
  const std::vector<std::string> corpus = seed_corpus();
  Rng rng(0x736e'6170'7368'6f74ULL);
  for (const std::string& seed : corpus) {
    check_one(seed);
    for (int m = 0; m < 150; ++m) {
      std::string payload = seed;
      const std::size_t rounds = 1 + pick(rng, 3);
      for (std::size_t r = 0; r < rounds; ++r) mutate(payload, rng);
      check_one(payload);
    }
  }
  std::filesystem::remove_all(scratch_dir());
  std::printf(
      "fuzz_snapshot: %lld inputs from %zu seeds: %lld restored, %lld "
      "rejected\n",
      tally.inputs, corpus.size(), tally.restored, tally.rejected);
  // A corpus that never reaches one side of the contract tests nothing.
  if (tally.restored == 0 || tally.rejected == 0) {
    std::fprintf(stderr, "fuzz_snapshot: degenerate corpus\n");
    return 1;
  }
  return 0;
}

#endif  // RELSCHED_LIBFUZZER
