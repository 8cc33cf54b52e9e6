// tevot_router — front router + supervisor of a tevot_serve fleet.
//
//   tevot_router --model-dir DIR --serve-binary PATH [--port P]
//                [--shards N] [--policy replicated|per-fu]
//                [--fus "a,b;c;d"] [--max-in-flight N]
//                [--deadline-ms MS] [--max-restarts N]
//                [--shed-queue-fraction F] [--health-interval-ms MS]
//
// Spawns N tevot_serve worker shards on ephemeral loopback ports and
// serves the exact tevot_serve newline protocol on the front port
// (0 = ephemeral), fanning requests out per src/fleet/router.hpp.
// Announcements on stdout, one line each, for scripts to parse:
//   tevot_router shard <i> pid <pid> port <port>   (per (re)spawn)
//   tevot_router listening on 127.0.0.1:<port>
//
// --fus assigns FU ownership under per-fu policy: shard lists are
// ';'-separated, FU names within a shard ','-separated.
// --max-in-flight and --deadline-ms are passed to every shard's
// tevot_serve; a shard's in-flight requests over its --max-in-flight
// are the queue fraction that --shed-queue-fraction compares against.
//
// Signals:
//   SIGHUP          rolling zero-downtime reload, one shard at a time
//                   (also available as the in-band `reload` request)
//   SIGTERM/SIGINT  graceful drain: drain the router, SIGTERM the
//                   workers, print final stats to stderr, exit 0
//
// Exit codes: 0 clean drain, 1 runtime failure, 2 usage error
// (including a malformed or out-of-range value: counts >= 1,
// --max-restarts >= 0, the port 0..65535, milliseconds finite and
// >= 0, --shed-queue-fraction in [0, 1]), before any shard starts.
#include <csignal>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "fleet/router.hpp"
#include "fleet/supervisor.hpp"
#include "util/flags.hpp"
#include "util/signal.hpp"

namespace {

constexpr char kUsage[] =
    "usage: tevot_router --model-dir DIR --serve-binary PATH\n"
    "                    [--port P] [--shards N]\n"
    "                    [--policy replicated|per-fu] [--fus LISTS]\n"
    "                    [--max-in-flight N] [--deadline-ms MS]\n"
    "                    [--max-restarts N] [--shed-queue-fraction F]\n"
    "                    [--health-interval-ms MS]\n"
    "N >= 1 (--max-restarts >= 0), P in 0..65535 (0 = ephemeral),\n"
    "MS finite and >= 0, F in [0, 1]\n"
    "LISTS: per-fu shard ownership, e.g. \"int_add,int_mul;alu\"\n"
    "SIGHUP rolls a reload across the fleet; SIGTERM/SIGINT drains\n";

/// "a,b;c" -> {{"a","b"},{"c"}}; empty segments allowed.
std::vector<std::vector<std::string>> parseFuLists(const std::string& text) {
  std::vector<std::vector<std::string>> lists(1);
  std::string current;
  for (const char c : text + ";") {
    if (c == ',' || c == ';') {
      if (!current.empty()) lists.back().push_back(current);
      current.clear();
      if (c == ';') lists.emplace_back();
    } else {
      current.push_back(c);
    }
  }
  while (!lists.empty() && lists.back().empty()) lists.pop_back();
  return lists;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tevot;

  fleet::SupervisorOptions supervisor_options;
  fleet::RouterOptions router_options;
  util::Flags flags("tevot_router", kUsage);
  flags.option("--model-dir", util::text(&supervisor_options.model_dir))
      .option("--serve-binary", util::text(&supervisor_options.serve_binary))
      .option("--port", util::port(&router_options.port))
      .option("--shards", util::count(&supervisor_options.shards))
      .option("--policy",
              [&](std::string_view v) {
                return fleet::parseShardPolicy(v, &router_options.policy);
              })
      .option("--fus",
              [&](std::string_view v) {
                supervisor_options.fus = parseFuLists(std::string(v));
                return true;
              })
      .option("--max-in-flight",
              util::count(&supervisor_options.max_in_flight))
      .option("--deadline-ms",
              util::nonNegative(&supervisor_options.default_deadline_ms))
      .option("--max-restarts",
              util::inRange(&supervisor_options.max_restarts, 0))
      .option("--shed-queue-fraction",
              util::fraction(&router_options.shed_queue_fraction))
      .option("--health-interval-ms",
              util::nonNegative(&router_options.health_interval_ms));
  if (!flags.parse(argc, argv) || supervisor_options.model_dir.empty() ||
      supervisor_options.serve_binary.empty()) {
    return flags.usage();
  }
  if (supervisor_options.fus.size() > supervisor_options.shards) {
    std::fprintf(stderr,
                 "tevot_router: --fus lists %zu shards, --shards is %zu\n",
                 supervisor_options.fus.size(), supervisor_options.shards);
    return flags.usage();
  }

  util::ignoreSigpipe();
  util::SignalFlag terminate{SIGTERM, SIGINT};
  util::SignalFlag reload_signal{SIGHUP};

  supervisor_options.on_spawn = [](std::size_t shard, pid_t pid, int port) {
    std::printf("tevot_router shard %zu pid %d port %d\n", shard,
                static_cast<int>(pid), port);
    std::fflush(stdout);
  };

  fleet::Supervisor supervisor(supervisor_options);
  util::Status status = supervisor.startAll();
  if (!status.ok()) {
    std::fprintf(stderr, "tevot_router: %s\n", status.message.c_str());
    return 1;
  }

  fleet::Router router(router_options, supervisor.endpoints());
  supervisor.attachRouter(&router);
  status = router.start();
  if (!status.ok()) {
    std::fprintf(stderr, "tevot_router: %s\n", status.message.c_str());
    supervisor.stopAll();
    return 1;
  }
  std::printf("tevot_router listening on 127.0.0.1:%d\n", router.port());
  std::fflush(stdout);

  while (!terminate.raised()) {
    supervisor.poll();
    if (reload_signal.consume()) {
      const util::Status rolled = router.rollingReload();
      if (!rolled.ok()) {
        std::fprintf(stderr, "tevot_router: rolling reload failed: %s\n",
                     rolled.message.c_str());
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::fprintf(stderr, "tevot_router: signal %d, draining\n",
               terminate.lastSignal());
  const serve::MetricsSnapshot router_stats = router.drainAndStop();
  const serve::MetricsSnapshot worker_stats = router.workerStats();
  supervisor.stopAll();
  std::fprintf(stderr, "tevot_router: final stats: %s\n",
               router_stats.toLine().c_str());
  std::fprintf(stderr, "tevot_router: worker stats: %s\n",
               worker_stats.toLine().c_str());
  return 0;
}
