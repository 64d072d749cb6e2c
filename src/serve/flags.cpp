// relsched_serve's command line as one flag table, shared by the
// daemon's main and by the bench harnesses that re-exec themselves as
// daemons.
#include <cstdlib>
#include <string_view>
#include <type_traits>
#include <variant>

#include "base/strings.hpp"
#include "serve/server.hpp"

namespace relsched::serve {

namespace {

/// One flag and the option it sets. A bool option is a switch that
/// stores `on`; a string option takes any value; a numeric option
/// takes a decimal value in [lo, hi].
struct Flag {
  std::string_view name;
  std::variant<bool ServerOptions::*, std::string ServerOptions::*,
               int ServerOptions::*, long long ServerOptions::*,
               std::chrono::milliseconds ServerOptions::*>
      field;
  long long lo = 0, hi = 0;
  bool on = true;
};

using O = ServerOptions;
constexpr Flag kFlags[] = {
    {"--socket", &O::socket_path},
    {"--state-dir", &O::state_dir},
    {"--max-live", &O::max_live_sessions, 1, 1 << 20},
    {"--max-connections", &O::max_connections, 1, 1 << 20},
    {"--max-pending", &O::max_pending_per_session, 1, 1 << 20},
    {"--max-pending-total", &O::max_pending_total, 1, 1 << 20},
    {"--deadline-ms", &O::default_deadline, 0, 86'400'000},
    {"--retry-after-ms", &O::retry_after_ms, 1, 60'000},
    {"--certify", &O::certify},
    {"--no-certify", &O::certify, 0, 0, false},
    {"--standby", &O::standby},
    {"--replicate-to", &O::replicate_to},
    {"--repl-batch-max", &O::repl_batch_max, 1, 1 << 16},
    {"--repl-queue-cap", &O::repl_queue_cap, 1, 1 << 24},
    {"--repl-ack-ms", &O::repl_ack_timeout, 0, 600'000},
    {"--repl-io-ms", &O::repl_io_timeout, 1, 600'000},
    {"--repl-corrupt-at", &O::repl_corrupt_record_at, 0, 1'000'000'000},
};

/// Applies the flag at argv[*i] (and its value, advancing *i); false
/// when it is unknown or its value is missing or out of range.
bool apply_flag(int argc, char** argv, int* i, ServerOptions* out) {
  for (const Flag& flag : kFlags) {
    if (argv[*i] != flag.name) continue;
    return std::visit(
        [&](auto field) {
          using T = std::remove_reference_t<decltype(out->*field)>;
          if constexpr (std::is_same_v<T, bool>) {
            out->*field = flag.on;
            return true;
          } else {
            if (*i + 1 >= argc) return false;
            const char* text = argv[++*i];
            if constexpr (std::is_same_v<T, std::string>) {
              out->*field = text;
            } else {
              char* end = nullptr;
              const long long v = std::strtoll(text, &end, 10);
              if (*end != '\0' || v < flag.lo || v > flag.hi) return false;
              out->*field = T(v);
            }
            return true;
          }
        },
        flag.field);
  }
  return false;
}

}  // namespace

bool parse_server_flags(int argc, char** argv, ServerOptions* out,
                        std::string* error) {
  bool ok = true;
  for (int i = 1; ok && i < argc; ++i) ok = apply_flag(argc, argv, &i, out);
  if (!ok || out->socket_path.empty() || out->state_dir.empty()) {
    *error = cat("usage: ", argv[0],
                 " --socket PATH --state-dir DIR [--max-live N] "
                 "[--max-connections N] [--max-pending N] "
                 "[--max-pending-total N] [--deadline-ms N] "
                 "[--retry-after-ms N] [--certify|--no-certify] "
                 "[--standby] [--replicate-to PATH] [--repl-batch-max N] "
                 "[--repl-queue-cap N] [--repl-ack-ms N] [--repl-io-ms N] "
                 "[--repl-corrupt-at N]");
    return false;
  }
  if (out->standby && !out->replicate_to.empty()) {
    // A chained standby starts streaming onward when its "promote"
    // carries replicate_to; at startup the roles are exclusive.
    *error =
        "relsched_serve: --standby and --replicate-to are mutually "
        "exclusive at startup";
    return false;
  }
  return true;
}

}  // namespace relsched::serve
