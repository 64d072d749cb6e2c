// Fuzz target for the `.cg` text parser (cg::from_text).
//
// Contract, for every input:
//   - from_text neither crashes nor throws;
//   - an accepted graph round-trips: from_text(to_text(g)) is accepted
//     and renders to the same bytes;
//   - a rejection's error starts with "line N:";
//   - where every numeric-looking token is a whole decimal integer, the
//     pre-rewrite istringstream parser (tests/reference_oracle.hpp)
//     agrees on accept/reject, on to_text, and on the error message
//     (its self-loop exception counts as a rejection).
//
// Two entry points reach LLVMFuzzerTestOneInput:
//   - libFuzzer: clang++ -fsanitize=fuzzer,address -DRELSCHED_LIBFUZZER
//     links its own main and explores from a corpus directory.
//   - standalone (the default, any compiler; a ctest): seeds a corpus
//     from the committed tests/data/*.cg fixtures (or the directories
//     given as arguments), generated designs and hand-written edge
//     cases, then replays deterministic byte, token and line mutations
//     of each seed. Exits 0 when every input meets the contract; a
//     violation prints the input and aborts.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "base/error.hpp"
#include "cg/graph_io.hpp"
#include "designs/generator.hpp"
#include "reference_oracle.hpp"

namespace {

using relsched::cg::ParseResult;

struct Tally {
  long long inputs = 0;
  long long accepted = 0;
  long long rejected = 0;
  long long differential = 0;
};
Tally tally;

std::string escaped(std::string_view bytes) {
  std::string out;
  for (const char c : bytes) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '\n' || (u >= 0x20 && u < 0x7f && c != '\\')) {
      out += c;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", u);
      out += buf;
    }
  }
  return out;
}

[[noreturn]] void violation(std::string_view input, const std::string& what) {
  std::fprintf(stderr,
               "fuzz_graph_text: contract violation: %s\n"
               "input (%zu bytes, non-printables escaped):\n%s\n",
               what.c_str(), input.size(), escaped(input).c_str());
  std::abort();
}

bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/// True when every token that starts like a number (digit or sign) is
/// a whole decimal integer: -?[0-9]+. Out-of-range values count as
/// canonical -- both parsers reject them.
bool numbers_canonical(std::string_view text) {
  std::size_t i = 0;
  while (i < text.size()) {
    const std::size_t eol = std::min(text.find('\n', i), text.size());
    std::string_view line = text.substr(i, eol - i);
    line = line.substr(0, line.find('#'));
    std::size_t t = 0;
    while (t < line.size()) {
      if (is_blank(line[t])) {
        ++t;
        continue;
      }
      std::size_t end = t;
      while (end < line.size() && !is_blank(line[end])) ++end;
      std::string_view token = line.substr(t, end - t);
      t = end;
      const char first = token.front();
      if (first != '-' && first != '+' && (first < '0' || first > '9')) {
        continue;
      }
      if (first == '-') token.remove_prefix(1);
      if (token.empty() ||
          !std::all_of(token.begin(), token.end(),
                       [](char c) { return c >= '0' && c <= '9'; })) {
        return false;
      }
    }
    i = eol + 1;
  }
  return true;
}

/// "line N: ..." with N a decimal line number.
bool names_a_line(const std::string& error) {
  constexpr std::string_view kPrefix = "line ";
  if (error.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  std::size_t i = kPrefix.size();
  const std::size_t digits_begin = i;
  while (i < error.size() && error[i] >= '0' && error[i] <= '9') ++i;
  return i > digits_begin && i < error.size() && error[i] == ':';
}

void check_one(std::string_view input) {
  ++tally.inputs;
  ParseResult parsed;
  try {
    parsed = relsched::cg::from_text(input);
  } catch (const std::exception& e) {
    violation(input, std::string("from_text threw: ") + e.what());
  }
  std::string rendered;
  if (parsed.ok()) {
    ++tally.accepted;
    if (!parsed.error.empty()) violation(input, "accepted with an error set");
    rendered = relsched::cg::to_text(*parsed.graph);
    const ParseResult again = relsched::cg::from_text(rendered);
    if (!again.ok()) {
      violation(input, "to_text output rejected: " + again.error);
    }
    if (relsched::cg::to_text(*again.graph) != rendered) {
      violation(input, "to_text/from_text round trip changed the bytes");
    }
  } else {
    ++tally.rejected;
    if (!names_a_line(parsed.error)) {
      violation(input, "error does not name a line: " + parsed.error);
    }
  }

  if (!numbers_canonical(input)) return;
  ++tally.differential;
  bool oracle_threw = false;
  ParseResult oracle;
  try {
    oracle = relsched::testing::oracle::from_text(input);
  } catch (const relsched::ApiError&) {
    oracle_threw = true;  // a self loop reached the edit API
  }
  if (oracle.ok() != parsed.ok()) {
    violation(input, std::string("oracle ") +
                         (oracle.ok() ? "accepts" : "rejects") +
                         " what from_text " +
                         (parsed.ok() ? "accepts" : "rejects") +
                         (parsed.ok() ? "" : ": " + parsed.error));
  }
  if (oracle.ok() && relsched::cg::to_text(*oracle.graph) != rendered) {
    violation(input, "oracle renders a different graph");
  }
  if (!oracle.ok() && !oracle_threw && oracle.error != parsed.error) {
    violation(input, "error '" + parsed.error + "' differs from oracle '" +
                         oracle.error + "'");
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

using namespace std::string_view_literals;

/// Hand-written seeds for the grammar's corners.
const std::string_view kEdgeCases[] = {
    "",
    "\n\n# only a comment\n",
    "graph g\n",
    "graph g extra tokens\nvertex v0 0 trailing\n",
    "graph\tg\r\nvertex v0 0\r\nvertex v1 unbounded\r\nseq v0 v1\r\n",
    "graph g\nvertex v0 0\nvertex v1 2\nseq v0 v1\nmin v0 v1 3\n"
    "max v0 v1 7 # bound\n",
    "graph g\nvertex a 0\nseq a a\n",
    "graph g\nvertex a 0\nvertex b 0\nmin a b -0\nmax a b 007\n",
    "graph g\nvertex a 2147483647\nvertex b 0\nmin a b 2147483648\n",
    "graph g\nvertex a 0\nvertex b 0\nfoo a b 1\n",
    "vertex a 0\ngraph g\n",
    "graph g\ngraph h\n",
    "graph g\nvertex a\n",
    "graph g\nvertex a 0\nvertex a 1\n",
    "graph g\nvertex a 0\nseq a\n",
    "graph g\nvertex a 0\nvertex b 1\nmin a b\n",
    "graph g\nvertex a\x01 0\nvertex b\xff 1\nseq a\x01 b\xff",
    "graph g\vx\fy\nvertex v\0 0\n"sv,
};

/// Replacement tokens: keywords, boundary numbers, non-canonical
/// numbers, separators.
const char* const kTokens[] = {
    "graph", "vertex", "seq", "min", "max", "unbounded", "bogus",
    "0", "1", "-1", "-0", "007", "2147483647", "2147483648",
    "-2147483648", "-2147483649", "99999999999", "3x", "2.5", "+4",
    "-", "#", "x", "\t", "\r", "",
};

/// Bytes worth inserting: separators, comment and sign characters,
/// digits, and bytes outside ASCII.
const char kBytes[] = {' ', '\t', '\r', '\n', '\v', '#', '-', '+',
                       '0', '9', 'x', '.', '\0', '\x7f', '\x80', '\xff'};

using Rng = std::mt19937_64;

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng() % n);
}

/// Extents [begin, end) of the whitespace-separated tokens of `text`.
std::vector<std::pair<std::size_t, std::size_t>> token_spans(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t i = 0;
  while (i < text.size()) {
    if (is_blank(text[i]) || text[i] == '\n') {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < text.size() && !is_blank(text[end]) && text[end] != '\n') {
      ++end;
    }
    spans.emplace_back(i, end);
    i = end;
  }
  return spans;
}

/// Extents [begin, end) of the lines of `text`, newline included.
std::vector<std::pair<std::size_t, std::size_t>> line_spans(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t i = 0;
  while (i < text.size()) {
    const std::size_t nl = text.find('\n', i);
    const std::size_t end = nl == std::string::npos ? text.size() : nl + 1;
    spans.emplace_back(i, end);
    i = end;
  }
  return spans;
}

void mutate_bytes(std::string& text, Rng& rng) {
  const char byte = kBytes[pick(rng, sizeof(kBytes))];
  if (text.empty()) {
    text.push_back(byte);
    return;
  }
  const std::size_t at = pick(rng, text.size());
  switch (pick(rng, 4)) {
    case 0:
      text[at] = static_cast<char>(text[at] ^ (1 << pick(rng, 8)));
      break;
    case 1:
      text[at] = byte;
      break;
    case 2:
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), byte);
      break;
    default:
      text.erase(at, 1);
      break;
  }
}

void mutate_token(std::string& text, Rng& rng) {
  const auto spans = token_spans(text);
  if (spans.empty()) {
    text += kTokens[pick(rng, std::size(kTokens))];
    return;
  }
  const auto [begin, end] = spans[pick(rng, spans.size())];
  std::string replacement;
  switch (pick(rng, 3)) {
    case 0:  // a dictionary token
      replacement = kTokens[pick(rng, std::size(kTokens))];
      break;
    case 1: {  // another token of the same input (names, keywords)
      const auto [b, e] = spans[pick(rng, spans.size())];
      replacement = text.substr(b, e - b);
      break;
    }
    default:  // duplicated in place
      replacement = text.substr(begin, end - begin) + " " +
                    text.substr(begin, end - begin);
      break;
  }
  text.replace(begin, end - begin, replacement);
}

void mutate_line(std::string& text, Rng& rng) {
  const auto spans = line_spans(text);
  if (spans.empty()) return;
  const auto [begin, end] = spans[pick(rng, spans.size())];
  const std::string line = text.substr(begin, end - begin);
  switch (pick(rng, 4)) {
    case 0:  // duplicate
      text.insert(begin, line);
      break;
    case 1:  // delete
      text.erase(begin, end - begin);
      break;
    case 2: {  // move to the end
      text.erase(begin, end - begin);
      if (!text.empty() && text.back() != '\n') text += '\n';
      text += line;
      break;
    }
    default:  // truncate the input mid-line
      text.resize(begin + pick(rng, end - begin + 1));
      break;
  }
}

std::vector<std::string> seed_corpus(int argc, char** argv) {
  std::vector<std::string> corpus;
  for (const std::string_view text : kEdgeCases) corpus.emplace_back(text);
  std::vector<std::string> dirs;
  for (int i = 1; i < argc; ++i) dirs.emplace_back(argv[i]);
  if (dirs.empty()) dirs.emplace_back(RELSCHED_TEST_DATA_DIR);
  for (const std::string& dir : dirs) {
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".cg") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const auto& path : files) {
      std::ifstream in(path, std::ios::binary);
      corpus.emplace_back(std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>());
    }
  }
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    relsched::designs::GeneratorParams params;
    params.seed = seed;
    params.vertices = 10 + static_cast<int>(seed) * 15;
    params.anchor_density = 1500;
    corpus.push_back(
        relsched::cg::to_text(relsched::designs::generate(params)));
  }
  return corpus;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> corpus = seed_corpus(argc, argv);
  Rng rng(0x6367'7465'7874ULL);
  for (const std::string& seed : corpus) {
    check_one(seed);
    // Fewer mutants of the large fixtures: each one re-parses the
    // whole file three times.
    const int mutants = seed.size() > 8192 ? 100 : 1500;
    for (int m = 0; m < mutants; ++m) {
      std::string text = seed;
      const std::size_t rounds = 1 + pick(rng, 3);
      for (std::size_t r = 0; r < rounds; ++r) {
        switch (pick(rng, 3)) {
          case 0:
            mutate_bytes(text, rng);
            break;
          case 1:
            mutate_token(text, rng);
            break;
          default:
            mutate_line(text, rng);
            break;
        }
      }
      check_one(text);
    }
  }
  std::printf(
      "fuzz_graph_text: %lld inputs from %zu seeds: %lld accepted, %lld "
      "rejected, %lld checked against the oracle\n",
      tally.inputs, corpus.size(), tally.accepted, tally.rejected,
      tally.differential);
  // A corpus that never reaches one side of the contract tests nothing.
  if (tally.accepted == 0 || tally.rejected == 0 || tally.differential == 0) {
    std::fprintf(stderr, "fuzz_graph_text: degenerate corpus\n");
    return 1;
  }
  return 0;
}

#endif  // RELSCHED_LIBFUZZER
