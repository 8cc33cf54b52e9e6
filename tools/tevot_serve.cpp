// tevot_serve — resilient TEVoT prediction server.
//
//   tevot_serve --model-dir DIR [--port P] [--max-in-flight N]
//               [--max-conns N] [--deadline-ms MS]
//               [--breaker-failures N] [--breaker-cooldown-ms MS]
//
// Serves the newline-delimited protocol of src/serve/protocol.hpp on
// 127.0.0.1 (port 0 = ephemeral; the bound port is printed on stdout
// as "tevot_serve listening on 127.0.0.1:<port>" so scripts can parse
// it). DIR holds one "<fu>.model" file per served functional unit, as
// written by `tevot_cli train`. Each request is computed on its
// connection's thread; --max-in-flight caps how many compute at once
// (one more is answered SHED queue full).
//
// Signals:
//   SIGHUP          hot reload (validate-then-swap; failure keeps the
//                   previous models serving) — also available as the
//                   in-band `reload` request
//   SIGTERM/SIGINT  graceful drain: stop accepting, let in-flight
//                   requests finish, print final stats to stderr,
//                   exit 0
//
// TEVOT_FAULTS arms the serve.accept / serve.parse / serve.predict /
// serve.reload fault-injection points (util/fault_injection.hpp) for
// resilience testing; degraded behavior stays within the typed
// response taxonomy.
//
// Exit codes: 0 clean drain, 1 runtime failure (bad model dir, bind
// failure), 2 usage error (including a malformed or out-of-range
// flag value: counts must be >= 1, the port 0..65535, milliseconds
// finite and >= 0).
#include <csignal>
#include <cstdio>
#include <thread>

#include "serve/server.hpp"
#include "util/fault_injection.hpp"
#include "util/flags.hpp"
#include "util/signal.hpp"

constexpr char kUsage[] =
    "usage: tevot_serve --model-dir DIR [--port P] [--max-in-flight N]\n"
    "                   [--max-conns N] [--deadline-ms MS]\n"
    "                   [--breaker-failures N]\n"
    "                   [--breaker-cooldown-ms MS] [--strict-verify]\n"
    "DIR: one <fu>.model per served unit (from `tevot_cli train`)\n"
    "N >= 1, P in 0..65535 (0 = ephemeral), MS finite and >= 0\n"
    "--strict-verify: refuse models that fail interval certification\n"
    "  (tevot_cli verify-model) at load and at every reload\n"
    "SIGHUP reloads models; SIGTERM/SIGINT drains and exits 0\n";

int main(int argc, char** argv) {
  using namespace tevot;

  serve::ServerOptions options;
  util::Flags flags("tevot_serve", kUsage);
  flags.option("--model-dir", util::text(&options.model_dir))
      .option("--port", util::port(&options.port))
      .option("--max-in-flight", util::count(&options.max_in_flight))
      .option("--max-conns", util::count(&options.max_connections))
      .option("--deadline-ms", util::nonNegative(&options.default_deadline_ms))
      .option("--breaker-failures",
              util::count(&options.breaker.failure_threshold))
      .option("--breaker-cooldown-ms",
              util::nonNegative(&options.breaker.cooldown_ms))
      .flag("--strict-verify", &options.strict_verify);
  if (!flags.parse(argc, argv) || options.model_dir.empty()) {
    return flags.usage();
  }

  util::ignoreSigpipe();
  // Installed before start() so no signal window exists where a
  // supervisor's SIGTERM would take the default (abrupt) disposition.
  util::SignalFlag terminate{SIGTERM, SIGINT};
  util::SignalFlag reload_signal{SIGHUP};

  if (util::FaultInjector::global().armed()) {
    std::fprintf(stderr, "tevot_serve: faults armed: %s\n",
                 util::FaultInjector::global().plan().spec().c_str());
  }

  serve::Server server(options);
  const util::Status started = server.start();
  if (!started.ok()) {
    std::fprintf(stderr, "tevot_serve: %s\n", started.message.c_str());
    return 1;
  }
  std::printf("tevot_serve listening on 127.0.0.1:%d\n", server.port());
  std::fflush(stdout);

  while (!terminate.raised()) {
    if (reload_signal.consume()) {
      // Outcome (including a failed validation keeping the old
      // models) is logged by the server; nothing to do here.
      (void)server.reload();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::fprintf(stderr, "tevot_serve: signal %d, draining\n",
               terminate.lastSignal());
  const serve::MetricsSnapshot final_stats = server.drainAndStop();
  std::fprintf(stderr, "tevot_serve: final stats: %s\n",
               final_stats.toLine().c_str());
  return 0;
}
