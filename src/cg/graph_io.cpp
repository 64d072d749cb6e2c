#include "cg/graph_io.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <sstream>

#include "base/hash.hpp"
#include "base/strings.hpp"

namespace relsched::cg {

std::string to_text(const ConstraintGraph& g) {
  std::ostringstream os;
  os << "graph " << g.name() << "\n";
  for (const Vertex& v : g.vertices()) {
    os << "vertex " << v.name << " ";
    if (v.delay.is_unbounded()) {
      os << "unbounded";
    } else {
      os << v.delay.cycles();
    }
    os << "\n";
  }
  for (const Edge& e : g.edges()) {
    switch (e.kind) {
      case EdgeKind::kSequencing:
        os << "seq " << g.vertex(e.from).name << " " << g.vertex(e.to).name
           << "\n";
        break;
      case EdgeKind::kMinConstraint:
        os << "min " << g.vertex(e.from).name << " " << g.vertex(e.to).name
           << " " << e.fixed_weight << "\n";
        break;
      case EdgeKind::kMaxConstraint:
        // Stored backward (to, from, -u); emit in user orientation.
        os << "max " << g.vertex(e.to).name << " " << g.vertex(e.from).name
           << " " << -e.fixed_weight << "\n";
        break;
    }
  }
  return os.str();
}

namespace {

/// Whitespace between tokens: what `>>` skips in the C locale, except
/// the line break, which ends the line.
constexpr bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/// Next whitespace-separated token of `rest`, consumed from its front;
/// empty at the end of the line.
std::string_view next_token(std::string_view& rest) {
  std::size_t begin = 0;
  while (begin < rest.size() && is_blank(rest[begin])) ++begin;
  std::size_t end = begin;
  while (end < rest.size() && !is_blank(rest[end])) ++end;
  const std::string_view token = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return token;
}

/// A whole decimal integer (optional '-', then digits) that fits an
/// int; nullopt for anything else, including a numeric prefix.
std::optional<int> parse_int(std::string_view token) {
  int value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

/// Vertex lookup by name: open addressing over (hash, id) slots, with
/// the keys themselves read from the graph's interned names, so the
/// table never copies a name or allocates per vertex.
class NameTable {
 public:
  /// The vertex named `name` in `g`, or invalid.
  [[nodiscard]] VertexId find(const ConstraintGraph& g,
                              std::string_view name) const {
    if (slots_.empty()) return VertexId::invalid();
    const std::uint32_t hash = hash_of(name);
    for (std::size_t i = hash & mask();; i = (i + 1) & mask()) {
      const Slot& slot = slots_[i];
      if (slot.id < 0) return VertexId::invalid();
      if (slot.hash == hash && g.vertex(VertexId(slot.id)).name == name) {
        return VertexId(slot.id);
      }
    }
  }

  /// Adds `v` under its name in `g`; the name must be new.
  void insert(const ConstraintGraph& g, VertexId v) {
    if (2 * (count_ + 1) > slots_.size()) grow();
    place(Slot{hash_of(g.vertex(v).name), v.value()});
    ++count_;
  }

 private:
  struct Slot {
    std::uint32_t hash = 0;
    int id = -1;
  };

  static std::uint32_t hash_of(std::string_view name) {
    return static_cast<std::uint32_t>(base::fnv1a64(name));
  }
  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }

  void place(Slot slot) {
    std::size_t i = slot.hash & mask();
    while (slots_[i].id >= 0) i = (i + 1) & mask();
    slots_[i] = slot;
  }
  void grow() {
    std::vector<Slot> old(std::max<std::size_t>(1024, 2 * slots_.size()));
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.id >= 0) place(slot);
    }
  }

  std::vector<Slot> slots_;  // size is a power of two
  std::size_t count_ = 0;
};

}  // namespace

ParseResult from_text(std::string_view text) {
  ParseResult result;
  std::optional<ConstraintGraph> graph;
  NameTable names;

  int line_no = 0;
  const auto fail = [&](std::string_view message) {
    result.graph.reset();
    result.error = cat("line ", line_no, ": ", message);
    return result;
  };

  while (!text.empty()) {
    const std::size_t newline = text.find('\n');
    std::string_view rest = text.substr(0, newline);
    text.remove_prefix(newline == std::string_view::npos ? text.size()
                                                         : newline + 1);
    ++line_no;
    rest = rest.substr(0, rest.find('#'));
    const std::string_view keyword = next_token(rest);
    if (keyword.empty()) continue;  // blank line

    if (keyword == "graph") {
      const std::string_view name = next_token(rest);
      if (name.empty()) return fail("expected graph name");
      if (graph.has_value()) return fail("duplicate 'graph' line");
      graph.emplace(std::string(name));
      continue;
    }
    if (!graph.has_value()) return fail("missing 'graph' header");

    if (keyword == "vertex") {
      const std::string_view name = next_token(rest);
      const std::string_view delay = next_token(rest);
      if (delay.empty()) return fail("expected: vertex <name> <delay>");
      if (names.find(*graph, name).is_valid()) {
        return fail(cat("duplicate vertex '", name, "'"));
      }
      Delay d = Delay::unbounded();
      if (delay != "unbounded") {
        const std::optional<int> cycles = parse_int(delay);
        if (!cycles.has_value()) return fail(cat("bad delay '", delay, "'"));
        if (*cycles < 0) return fail("delay must be >= 0");
        d = Delay::bounded(*cycles);
      }
      names.insert(*graph, graph->add_vertex(name, d));
      continue;
    }

    const std::string_view from = next_token(rest);
    const std::string_view to = next_token(rest);
    if (to.empty()) return fail("expected two vertex names");
    const VertexId fi = names.find(*graph, from);
    const VertexId ti = names.find(*graph, to);
    if (!fi.is_valid()) return fail(cat("unknown vertex '", from, "'"));
    if (!ti.is_valid()) return fail(cat("unknown vertex '", to, "'"));

    int cycles = 0;
    if (keyword != "seq") {
      if (keyword != "min" && keyword != "max") {
        return fail(cat("unknown keyword '", keyword, "'"));
      }
      const std::optional<int> bound = parse_int(next_token(rest));
      if (!bound.has_value()) return fail("expected a cycle count");
      if (*bound < 0) return fail("constraint must be >= 0");
      cycles = *bound;
    }
    if (fi == ti) return fail(cat("self loop on '", from, "'"));
    if (keyword == "seq") {
      graph->add_sequencing_edge(fi, ti);
    } else if (keyword == "min") {
      graph->add_min_constraint(fi, ti, cycles);
    } else {
      graph->add_max_constraint(fi, ti, cycles);
    }
  }
  if (!graph.has_value()) return fail("empty input");
  result.graph = std::move(graph);
  return result;
}

namespace {

/// Chunk size for streamed binary I/O: big enough to amortize stream
/// calls and checksum folds, small enough to be footprint noise next
/// to the graph itself.
constexpr std::size_t kChunkBytes = std::size_t{256} * 1024;

/// Upper bounds a reader will believe before touching memory. Far above
/// any real design (the generator caps at 10^7 vertices), far below
/// anything that could be used to balloon an allocation from a
/// corrupt or hostile count field.
constexpr std::uint32_t kMaxVertices = 1u << 27;
constexpr std::uint32_t kMaxEdges = 1u << 29;
constexpr std::uint32_t kMaxNameBytes = 1u << 20;

/// Buffered little-endian writer: accumulates into a fixed chunk,
/// folding the payload checksum chunk by chunk on flush.
class ChunkWriter {
 public:
  explicit ChunkWriter(std::ofstream& out) : out_(out) {
    buf_.reserve(kChunkBytes);
  }

  void u8(std::uint8_t v) {
    buf_.push_back(static_cast<char>(v));
    if (buf_.size() >= kChunkBytes) flush();
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
    if (buf_.size() >= kChunkBytes) flush();
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    for (const char c : s) {
      buf_.push_back(c);
      if (buf_.size() >= kChunkBytes) flush();
    }
  }

  void flush() {
    if (buf_.empty()) return;
    hash_ = base::fnv1a64(buf_.data(), buf_.size(), hash_);
    out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }
  [[nodiscard]] std::uint64_t payload_hash() const { return hash_; }

 private:
  std::ofstream& out_;
  std::string buf_;
  std::uint64_t hash_ = base::kFnv1a64Seed;
};

/// Buffered little-endian reader over the payload region (everything
/// between the header and the trailing checksum), folding the checksum
/// over each chunk as it comes off the file.
class ChunkReader {
 public:
  ChunkReader(std::ifstream& in, std::uint64_t payload_bytes)
      : in_(in), remaining_(payload_bytes) {}

  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] std::uint64_t payload_hash() const { return hash_; }
  /// Payload bytes not yet consumed by u8/u32/str.
  [[nodiscard]] std::uint64_t left() const {
    return remaining_ + (buf_.size() - pos_);
  }

  std::uint8_t u8() {
    std::uint8_t v = 0;
    take(&v, 1);
    return v;
  }
  std::uint32_t u32() {
    unsigned char b[4] = {};
    take(b, 4);
    return static_cast<std::uint32_t>(b[0]) |
           (static_cast<std::uint32_t>(b[1]) << 8) |
           (static_cast<std::uint32_t>(b[2]) << 16) |
           (static_cast<std::uint32_t>(b[3]) << 24);
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::string str() {
    const std::uint32_t len = u32();
    if (failed_ || len > kMaxNameBytes || len > left()) {
      failed_ = true;
      return {};
    }
    std::string s(len, '\0');
    take(s.data(), len);
    return failed_ ? std::string{} : s;
  }

 private:
  void take(void* out, std::size_t n) {
    auto* dst = static_cast<char*>(out);
    while (n > 0 && !failed_) {
      if (pos_ == buf_.size() && !refill()) return;
      const std::size_t grab = std::min(n, buf_.size() - pos_);
      std::memcpy(dst, buf_.data() + pos_, grab);
      pos_ += grab;
      dst += grab;
      n -= grab;
    }
  }
  bool refill() {
    if (remaining_ == 0) {
      failed_ = true;  // read past the declared payload: truncated
      return false;
    }
    const std::size_t want =
        static_cast<std::size_t>(std::min<std::uint64_t>(
            remaining_, kChunkBytes));
    buf_.resize(want);
    in_.read(buf_.data(), static_cast<std::streamsize>(want));
    if (static_cast<std::size_t>(in_.gcount()) != want) {
      failed_ = true;
      return false;
    }
    hash_ = base::fnv1a64(buf_.data(), want, hash_);
    remaining_ -= want;
    pos_ = 0;
    return true;
  }

  std::ifstream& in_;
  std::string buf_;
  std::size_t pos_ = 0;
  std::uint64_t remaining_;
  std::uint64_t hash_ = base::kFnv1a64Seed;
  bool failed_ = false;
};

}  // namespace

std::string write_binary_file(const ConstraintGraph& g,
                              const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return cat("cannot open '", path, "' for writing");

  out.write(kBinaryGraphMagic.data(),
            static_cast<std::streamsize>(kBinaryGraphMagic.size()));
  char version[4];
  for (int i = 0; i < 4; ++i) {
    version[i] = static_cast<char>((kBinaryGraphVersion >> (8 * i)) & 0xff);
  }
  out.write(version, 4);

  ChunkWriter w(out);
  w.str(g.name());
  w.u32(static_cast<std::uint32_t>(g.vertex_count()));
  w.u32(static_cast<std::uint32_t>(g.edge_count()));
  for (const Vertex& v : g.vertices()) {
    w.str(v.name);
    w.i32(v.delay.is_unbounded() ? -1 : v.delay.cycles());
  }
  for (const Edge& e : g.edges()) {
    switch (e.kind) {
      case EdgeKind::kSequencing:
        w.u8(0);
        w.u32(static_cast<std::uint32_t>(e.from.index()));
        w.u32(static_cast<std::uint32_t>(e.to.index()));
        w.i32(0);
        break;
      case EdgeKind::kMinConstraint:
        w.u8(1);
        w.u32(static_cast<std::uint32_t>(e.from.index()));
        w.u32(static_cast<std::uint32_t>(e.to.index()));
        w.i32(e.fixed_weight);
        break;
      case EdgeKind::kMaxConstraint:
        // Stored backward (to, from, -u); emitted in user orientation,
        // mirroring to_text, so the reader re-adds it through
        // add_max_constraint and round-trips the edge list exactly.
        w.u8(2);
        w.u32(static_cast<std::uint32_t>(e.to.index()));
        w.u32(static_cast<std::uint32_t>(e.from.index()));
        w.i32(-e.fixed_weight);
        break;
    }
  }
  w.flush();

  char checksum[8];
  const std::uint64_t hash = w.payload_hash();
  for (int i = 0; i < 8; ++i) {
    checksum[i] = static_cast<char>((hash >> (8 * i)) & 0xff);
  }
  out.write(checksum, 8);
  out.flush();
  if (!out) return cat("write to '", path, "' failed");
  return {};
}

ParseResult read_binary_file(const std::string& path) {
  ParseResult result;
  const auto fail = [&](const std::string& message) {
    result.graph.reset();
    result.error = cat("binary graph '", path, "': ", message);
    return result;
  };

  std::ifstream in(path, std::ios::binary);
  if (!in) return fail("cannot open");
  in.seekg(0, std::ios::end);
  const std::streamoff total = in.tellg();
  in.seekg(0, std::ios::beg);
  constexpr std::streamoff kHeaderBytes = 8 + 4;  // magic + version
  if (total < kHeaderBytes + 8) return fail("truncated header");

  char magic[8] = {};
  in.read(magic, 8);
  if (std::string_view(magic, 8) != kBinaryGraphMagic) {
    return fail("bad magic (not a binary constraint graph)");
  }
  unsigned char version[4] = {};
  in.read(reinterpret_cast<char*>(version), 4);
  const std::uint32_t v = static_cast<std::uint32_t>(version[0]) |
                          (static_cast<std::uint32_t>(version[1]) << 8) |
                          (static_cast<std::uint32_t>(version[2]) << 16) |
                          (static_cast<std::uint32_t>(version[3]) << 24);
  if (v != kBinaryGraphVersion) {
    return fail(cat("unsupported version ", v));
  }

  ChunkReader r(in, static_cast<std::uint64_t>(total - kHeaderBytes - 8));
  const std::string name = r.str();
  const std::uint32_t vertex_count = r.u32();
  const std::uint32_t edge_count = r.u32();
  if (r.failed()) return fail("truncated header fields");
  if (vertex_count > kMaxVertices) return fail("implausible vertex count");
  if (edge_count > kMaxEdges) return fail("implausible edge count");

  ConstraintGraph g(name);
  for (std::uint32_t i = 0; i < vertex_count; ++i) {
    const std::string vname = r.str();
    const std::int32_t delay = r.i32();
    if (r.failed()) return fail(cat("truncated at vertex ", i));
    if (delay < -1) return fail(cat("vertex ", i, " has a negative delay"));
    g.add_vertex(vname,
                 delay < 0 ? Delay::unbounded() : Delay::bounded(delay));
  }
  for (std::uint32_t i = 0; i < edge_count; ++i) {
    const std::uint8_t kind = r.u8();
    const std::uint32_t from = r.u32();
    const std::uint32_t to = r.u32();
    const std::int32_t cycles = r.i32();
    if (r.failed()) return fail(cat("truncated at edge ", i));
    if (from >= vertex_count || to >= vertex_count) {
      return fail(cat("edge ", i, " references an out-of-range vertex"));
    }
    const VertexId f(static_cast<int>(from));
    const VertexId t(static_cast<int>(to));
    switch (kind) {
      case 0:
        g.add_sequencing_edge(f, t);
        break;
      case 1:
        if (cycles < 0) return fail(cat("edge ", i, " has a negative bound"));
        g.add_min_constraint(f, t, cycles);
        break;
      case 2:
        if (cycles < 0) return fail(cat("edge ", i, " has a negative bound"));
        g.add_max_constraint(f, t, cycles);
        break;
      default:
        return fail(
            cat("edge ", i, " has unknown kind ", static_cast<int>(kind)));
    }
  }
  if (r.left() != 0) return fail("trailing payload bytes");

  unsigned char stored[8] = {};
  in.read(reinterpret_cast<char*>(stored), 8);
  if (in.gcount() != 8) return fail("truncated checksum");
  std::uint64_t checksum = 0;
  for (int i = 0; i < 8; ++i) {
    checksum |= static_cast<std::uint64_t>(stored[i]) << (8 * i);
  }
  if (checksum != r.payload_hash()) return fail("checksum mismatch");

  result.graph = std::move(g);
  return result;
}

bool is_binary_graph_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[8] = {};
  in.read(magic, 8);
  return in.gcount() == 8 && std::string_view(magic, 8) == kBinaryGraphMagic;
}

}  // namespace relsched::cg
