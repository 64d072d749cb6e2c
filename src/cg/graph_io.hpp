// Serialization of constraint graphs, so graphs can be stored in
// files, diffed, and fed to the CLI without going through the HDL
// frontend. Two formats:
//
// Text (one item per line, '#' comments):
//
//   graph <name>
//   vertex <name> <cycles | unbounded>
//   seq <from> <to>            # sequencing dependency
//   min <from> <to> <cycles>   # minimum timing constraint
//   max <from> <to> <cycles>   # maximum timing constraint
//
// Vertices are referenced by name and must be declared before use; the
// first declared vertex is the source. Tokens are separated by spaces,
// tabs, \r, \v or \f (so CRLF input parses), lines by \n; tokens past
// the last expected one are ignored. Cycle counts are whole decimal
// integers (-?[0-9]+ within int range) and must be >= 0.
//
// Binary (".cgb", the scale path): the same information framed like
// the persist layer's files -- 8-byte magic, u32 version, payload, and
// a trailing FNV-1a 64 checksum of the payload -- with vertices
// referenced by index instead of name. Reader and writer stream the
// payload through a fixed-size chunk buffer, folding the checksum one
// chunk at a time: neither side ever materializes the whole file (or a
// per-name lookup map) in memory, which is what lets `relsched_cli
// gen` emit and the driver load 10^6-vertex designs inside the memory
// ceiling the text round-trip blows. Layout after the header, all
// little-endian:
//
//   str name | u32 vertex_count | u32 edge_count
//   per vertex: str name | i32 delay (-1 = unbounded)
//   per edge:   u8 kind (0 seq, 1 min, 2 max) | u32 from | u32 to
//               | i32 cycles (user orientation; 0 for seq)
//
// (str = u32 length + bytes.) Edges appear in edge-id order and max
// constraints in user orientation, so binary -> load -> to_text equals
// the text rendering of the original graph byte for byte.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "cg/constraint_graph.hpp"

namespace relsched::cg {

/// Renders `g` in the text format above.
std::string to_text(const ConstraintGraph& g);

struct ParseResult {
  std::optional<ConstraintGraph> graph;
  std::string error;  // empty on success

  [[nodiscard]] bool ok() const { return graph.has_value(); }
};

/// Parses the text format in one pass over views of `text`; on error,
/// `error` starts with "line N: " naming the offending line. Never
/// throws on malformed input (self loops included).
ParseResult from_text(std::string_view text);

inline constexpr std::string_view kBinaryGraphMagic = "RSGB0001";
inline constexpr std::uint32_t kBinaryGraphVersion = 1;

/// Writes `g` to `path` in the binary format, streamed through a
/// fixed-size chunk buffer. Returns an empty string on success, else a
/// one-line description of the I/O failure (the file may be partial;
/// callers that need atomicity write to a temp path and rename).
std::string write_binary_file(const ConstraintGraph& g,
                              const std::string& path);

/// Reads a binary graph from `path`, streamed; never loads the whole
/// file. Corruption (bad magic/version, truncation, checksum mismatch,
/// out-of-range indices) is reported through ParseResult::error, never
/// loaded.
ParseResult read_binary_file(const std::string& path);

/// True when `path` starts with the binary-format magic. (Sniffs 8
/// bytes; false on I/O failure, so callers fall through to the text
/// parser's error reporting.)
bool is_binary_graph_file(const std::string& path);

}  // namespace relsched::cg
