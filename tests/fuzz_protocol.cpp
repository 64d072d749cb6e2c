// Fuzz target for the edit decoders of the serve protocol: an "edit"
// request's batch (serve::decode_edit / decode_edits, the edit kind
// table) and a repl_append batch's records (serve::decode_record), both
// decoded into engine::Edit, checked by Edit::refusal and applied by
// SynthesisSession::apply.
//
// The input is one JSON text. It goes through serve::Json::parse; an
// object's "edits" array is decoded edit by edit and its "records" array
// record by record, and each decoded edit is checked against, then
// applied to, a session over Fig. 2's graph. Contract, for every input:
//   - nothing crashes or throws, except an ApiError from apply() (a
//     graph invariant the validator does not see, e.g. removing a
//     sequencing edge), which must leave the graph's revision alone;
//   - apply() throws ApiError on every edit refusal() refuses, and the
//     graph is unchanged;
//   - an accepted "edits" element re-renders (serve::edit_json) and
//     re-decodes to itself, and an accepted record likewise through
//     serve::record_json;
//   - decode_edits accepts the batch exactly when every element decodes
//     and passes refusal() against the pre-batch graph;
//   - the session resolves without throwing afterwards.
//
// Two entry points reach LLVMFuzzerTestOneInput:
//   - libFuzzer: clang++ -fsanitize=fuzzer,address -DRELSCHED_LIBFUZZER
//     links its own main and explores from a corpus directory.
//   - standalone (the default, any compiler; a ctest): replays a seed
//     corpus of edit requests and record batches, then deterministic
//     byte mutations and JSON-aware substitutions (boundary numbers,
//     swapped kind names and operand keys) of each seed. Exits 0 when
//     every input meets the contract; a violation prints the input and
//     aborts.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "base/error.hpp"
#include "engine/session.hpp"
#include "serve/protocol.hpp"
#include "testutil.hpp"

namespace {

using relsched::ApiError;
using relsched::engine::Edit;
using relsched::engine::SynthesisSession;
using relsched::serve::Json;
namespace serve = relsched::serve;

struct Tally {
  long long inputs = 0;
  long long unparsed = 0;
  long long undecoded = 0;
  long long refused = 0;
  long long applied = 0;
  long long invariant_errors = 0;
};
Tally tally;

[[noreturn]] void violation(std::string_view input, const std::string& what) {
  std::fprintf(stderr, "fuzz_protocol: %s\ninput (%zu bytes): %.*s\n",
               what.c_str(), input.size(), static_cast<int>(input.size()),
               input.data());
  std::abort();
}

/// True when `g` holds exactly what the just-applied `edit` asked for:
/// no operand was narrowed on the way to the typed method.
bool applied_exactly(const relsched::cg::ConstraintGraph& g, const Edit& edit) {
  using Op = Edit::Op;
  using relsched::EdgeId;
  using relsched::VertexId;
  const auto id = [](std::int64_t v) { return static_cast<int>(v); };
  switch (edit.op) {
    case Op::kAddMin:
    case Op::kAddMax: {
      const relsched::cg::Edge& e = g.edges().back();
      const bool min = edit.op == Op::kAddMin;
      return e.from == VertexId(id(min ? edit.a : edit.b)) &&
             e.to == VertexId(id(min ? edit.b : edit.a)) &&
             e.fixed_weight == (min ? edit.value : -edit.value);
    }
    case Op::kSetBound: {
      const relsched::cg::Edge& e = g.edge(EdgeId(id(edit.a)));
      return e.fixed_weight ==
             (e.kind == relsched::cg::EdgeKind::kMaxConstraint ? -edit.value
                                                                : edit.value);
    }
    case Op::kSetDelay: {
      const relsched::cg::Delay d = g.vertex(VertexId(id(edit.a))).delay;
      return edit.value < 0 ? d.is_unbounded() : d.is_bounded() &&
                                                     d.cycles() == edit.value;
    }
    case Op::kRemoveConstraint:
    case Op::kResolve:
      break;
  }
  return true;
}

/// Checks, then applies, one decoded edit; returns whether it applied.
bool check_and_apply(std::string_view input, SynthesisSession& session,
                     const Edit& edit) {
  const std::uint64_t revision = session.graph().revision();
  const bool refused = edit.refusal(session.graph()) != nullptr;
  try {
    session.apply(edit);
  } catch (const ApiError&) {
    if (session.graph().revision() != revision) {
      violation(input, "a refused edit changed the graph");
    }
    ++(refused ? tally.refused : tally.invariant_errors);
    return false;
  } catch (const std::exception& e) {
    violation(input, std::string("apply threw: ") + e.what());
  }
  if (refused) violation(input, "apply took an edit refusal() refuses");
  if (!applied_exactly(session.graph(), edit)) {
    violation(input, "apply changed the graph other than the edit says: " +
                         serve::edit_json(edit).render());
  }
  ++tally.applied;
  return true;
}

/// Renders `json`, parses it back and returns it (nullopt on failure).
std::optional<Json> reparse(const Json& json) {
  std::string error;
  return Json::parse(json.render(), &error);
}

void check_edits(std::string_view input, const Json& request) {
  const Json* edits = request.get("edits");
  if (edits == nullptr || !edits->is_array()) return;
  relsched::testing::Fig2Graph fig;
  SynthesisSession session(std::move(fig.g), {});
  std::vector<Edit> batch;
  std::string batch_error;
  const bool batch_ok = serve::decode_edits(request, session.graph(), &batch,
                                            &batch_error);
  // Every element against the pre-batch graph, as decode_edits checks it.
  std::vector<Edit> decoded;
  bool all_pass = true;
  for (std::size_t i = 0; i < edits->size(); ++i) {
    std::string error;
    const std::optional<Edit> edit = serve::decode_edit(*edits->at(i), &error);
    if (!edit.has_value()) {
      if (error.empty()) violation(input, "decode_edit failed silently");
      ++tally.undecoded;
      all_pass = false;
      continue;
    }
    decoded.push_back(*edit);
    if (edit->refusal(session.graph()) != nullptr) {
      all_pass = false;
      continue;
    }
    const std::optional<Json> again = reparse(serve::edit_json(*edit));
    std::string again_error;
    const std::optional<Edit> back =
        again.has_value() ? serve::decode_edit(*again, &again_error)
                          : std::nullopt;
    if (!back.has_value() || !(*back == *edit)) {
      violation(input, "an accepted edit does not re-decode to itself: " +
                           serve::edit_json(*edit).render());
    }
  }
  if (batch_ok != all_pass || (batch_ok && batch != decoded) ||
      (!batch_ok && batch_error.empty())) {
    violation(input, "decode_edits disagrees with its elements: " +
                         (batch_ok ? std::string("accepted") : batch_error));
  }
  for (const Edit& edit : decoded) (void)check_and_apply(input, session, edit);
  try {
    (void)session.resolve();
  } catch (const std::exception& e) {
    violation(input, std::string("resolve threw: ") + e.what());
  }
}

void check_records(std::string_view input, const Json& request) {
  const Json* records = request.get("records");
  if (records == nullptr || !records->is_array()) return;
  relsched::testing::Fig2Graph fig;
  SynthesisSession session(std::move(fig.g), {});
  for (std::size_t i = 0; i < records->size(); ++i) {
    relsched::persist::WalRecord rec;
    if (!serve::decode_record(*records->at(i), &rec)) {
      ++tally.undecoded;
      continue;
    }
    relsched::persist::WalRecord back;
    const std::optional<Json> again = reparse(serve::record_json(rec));
    if (!again.has_value() || !serve::decode_record(*again, &back) ||
        back.op != rec.op || back.revision != rec.revision ||
        back.a != rec.a || back.b != rec.b || back.value != rec.value) {
      violation(input, "a decoded record does not re-decode to itself");
    }
    if (rec.op == relsched::persist::WalRecord::Op::kResolve) continue;
    (void)check_and_apply(input, session, Edit::from_record(rec));
  }
  try {
    (void)session.resolve();
  } catch (const std::exception& e) {
    violation(input, std::string("resolve threw: ") + e.what());
  }
}

void check_one(std::string_view input) {
  ++tally.inputs;
  std::string error;
  std::optional<Json> request;
  try {
    request = Json::parse(input, &error);
  } catch (const std::exception& e) {
    violation(input, std::string("parse threw: ") + e.what());
  }
  if (!request.has_value()) {
    if (error.empty()) violation(input, "parse failed without an error");
    ++tally.unparsed;
    return;
  }
  try {
    check_edits(input, *request);
    check_records(input, *request);
  } catch (const std::exception& e) {
    violation(input, std::string("decode threw: ") + e.what());
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

/// Edit requests and record batches over Fig. 2 (6 vertices, 8 edges:
/// 0-5 sequencing, 6 the min constraint v0->v3, 7 the max constraint
/// v1->v2), valid and not.
const char* const kSeeds[] = {
    R"({"op":"edit","edits":[{"kind":"add_min","from":0,"to":5,"cycles":4}]})",
    R"({"op":"edit","edits":[{"kind":"add_max","from":2,"to":4,"cycles":40},)"
    R"({"kind":"set_delay","vertex":1,"cycles":-1}]})",
    R"({"op":"edit","edits":[{"kind":"set_delay","vertex":3,"cycles":2},)"
    R"({"kind":"set_bound","edge":7,"cycles":3},)"
    R"({"kind":"set_bound","edge":6,"cycles":1}]})",
    R"({"op":"edit","edits":[{"kind":"remove_constraint","edge":6},)"
    R"({"kind":"remove_constraint","edge":0}]})",
    R"({"op":"edit","edits":[{"kind":"add_min","from":1,"to":4,"cycles":2},)"
    R"({"kind":"remove_constraint","edge":8},{"kind":"set_bound","edge":7}]})",
    R"({"op":"edit","edits":[{"kind":"add_max","from":3,"to":3,"cycles":1},)"
    R"({"kind":"frob"},{}]})",
    R"({"op":"repl_append","records":[{"op":1,"rev":15,"a":0,"b":5,"v":4},)"
    R"({"op":6,"rev":15,"a":-1,"b":-1,"v":0},)"
    R"({"op":4,"rev":16,"a":7,"b":0,"v":4294967299}]})",
    R"({"op":"repl_append","records":[{"op":5,"rev":15,"a":2,"b":0,"v":-1},)"
    R"({"op":3,"rev":16,"a":6,"b":0,"v":0},{"op":2,"rev":17,"a":4294967297,)"
    R"("b":1,"v":9}]})",
};

/// Replacement tokens: boundary numbers, kind names and operand keys.
const char* const kTokens[] = {
    "0",  "1",  "-1", "-2", "5",  "6",  "7",  "8",  "1000000000",
    "1000000001", "2147483647", "2147483648", "4294967297",
    "9223372036854775807", "-9223372036854775808", "1e300", "-1e300",
    "2.5", "-0.5", "null", "true", "\"3\"", "[]", "{}",
    "\"add_min\"", "\"add_max\"", "\"set_delay\"", "\"set_bound\"",
    "\"remove_constraint\"", "\"kind\"", "\"from\"", "\"to\"",
    "\"vertex\"", "\"edge\"", "\"cycles\"", "\"op\"", "\"rev\"", "\"a\"",
    "\"b\"", "\"v\"",
};

/// Replaces the first JSON key or scalar value after `at` (the token
/// that follows a ':', ',' or '[') with `with`.
void substitute(std::string& s, std::size_t at, std::string_view with) {
  while (at < s.size() && s[at] != ':' && s[at] != ',' && s[at] != '[') ++at;
  const std::size_t begin = at + 1;
  if (begin >= s.size() || s[begin] == '{' || s[begin] == '[') return;
  std::size_t end = begin + 1;
  if (s[begin] == '"') {
    while (end < s.size() && s[end] != '"') ++end;
    if (end < s.size()) ++end;
  } else {
    while (end < s.size() && s[end] != ',' && s[end] != '}' &&
           s[end] != ']' && s[end] != ':') {
      ++end;
    }
  }
  s.replace(begin, end - begin, with);
}

void mutate(std::string& s, Rng& rng) {
  if (s.empty()) {
    s.push_back(static_cast<char>(rng()));
    return;
  }
  const std::size_t at = pick(rng, s.size());
  switch (pick(rng, 10)) {
    case 0:  // flip one bit
      s[at] = static_cast<char>(s[at] ^ (1 << pick(rng, 8)));
      break;
    case 1:  // truncate
      s.resize(at);
      break;
    case 2:  // delete a chunk
      s.erase(at, 1 + pick(rng, 8));
      break;
    case 3: {  // duplicate a chunk in place
      const std::size_t len =
          std::min<std::size_t>(1 + pick(rng, 24), s.size() - at);
      s.insert(at, s.substr(at, len));
      break;
    }
    default:  // substitute a token
      substitute(s, at, kTokens[pick(rng, std::size(kTokens))]);
      break;
  }
}

}  // namespace

int main() {
  Rng rng(0x7072'6f74'6f63'6f6cULL);
  for (const char* seed : kSeeds) {
    check_one(seed);
    for (int m = 0; m < 20000; ++m) {
      std::string input = seed;
      const std::size_t rounds = 1 + pick(rng, 3);
      for (std::size_t r = 0; r < rounds; ++r) mutate(input, rng);
      check_one(input);
    }
  }
  std::printf(
      "fuzz_protocol: %lld inputs from %zu seeds: %lld unparsed, %lld "
      "undecoded, %lld refused, %lld applied, %lld invariant errors\n",
      tally.inputs, std::size(kSeeds), tally.unparsed, tally.undecoded,
      tally.refused, tally.applied, tally.invariant_errors);
  // A corpus that never reaches one side of the contract tests nothing.
  if (tally.unparsed == 0 || tally.undecoded == 0 || tally.refused == 0 ||
      tally.applied == 0 || tally.invariant_errors == 0) {
    std::fprintf(stderr, "fuzz_protocol: degenerate corpus\n");
    return 1;
  }
  return 0;
}

#endif  // RELSCHED_LIBFUZZER
