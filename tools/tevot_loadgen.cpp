// tevot_loadgen — open-loop load generator for tevot_serve and
// tevot_router (src/fleet/loadgen.hpp).
//
//   tevot_loadgen --port P [--fu NAME] [--duration-s S] [--rate-qps Q]
//                 [--arrival poisson|uniform|bursty] [--connections N]
//                 [--batch-fraction F] [--batch-tuples N]
//                 [--malformed-fraction F] [--deadline-ms MS]
//                 [--seed N] [--label TEXT] [--json PATH]
//
// Drives 127.0.0.1:P with a reproducible mixed storm (plain predicts,
// predictN batches, malformed lines) on an open-loop arrival schedule
// and prints the classified summary on stdout. --json writes the
// BENCH_fleet_loadgen.json payload (achieved QPS, p50/p95/p99,
// shed/deadline/error counts); default path BENCH_fleet_loadgen.json
// in the current directory when --json is given without a value
// elsewhere in CI.
//
// Exit codes: 0 storm completed (server answers, however degraded,
// are data, not failures), 1 nothing was ever answered, 2 usage
// error (including a malformed or out-of-range value: the port
// 1..65535, counts >= 1, seconds and milliseconds finite and >= 0,
// the rate finite and > 0, fractions in [0, 1]), 130 interrupted.
// SIGINT/SIGTERM stop the storm cooperatively: in-flight requests
// finish, the partial report is still printed — and flushed to --json
// with "interrupted": 1 — so a cut-short run leaves valid, classified
// data instead of nothing.
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>

#include "fleet/loadgen.hpp"
#include "util/flags.hpp"
#include "util/signal.hpp"

constexpr char kUsage[] =
    "usage: tevot_loadgen --port P [--fu NAME] [--duration-s S]\n"
    "                     [--rate-qps Q]\n"
    "                     [--arrival poisson|uniform|bursty]\n"
    "                     [--connections N] [--batch-fraction F]\n"
    "                     [--batch-tuples N] [--malformed-fraction F]\n"
    "                     [--deadline-ms MS] [--seed N] [--label TEXT]\n"
    "                     [--json PATH]\n"
    "P in 1..65535, N >= 1, S and MS finite and >= 0, Q finite and\n"
    "> 0, F in [0, 1], seed N decimal, 0x hex or 0 octal\n";

int main(int argc, char** argv) {
  using namespace tevot;

  fleet::LoadgenOptions options;
  std::string label = "default";
  std::string json_path;
  util::Flags flags("tevot_loadgen", kUsage);
  flags.option("--port", util::port(&options.port, 1))
      .option("--fu", util::text(&options.fu))
      .option("--duration-s", util::nonNegative(&options.duration_s))
      .option("--rate-qps", util::positive(&options.rate_qps))
      .option("--arrival",
              [&](std::string_view v) {
                return fleet::parseArrival(v, &options.arrival);
              })
      .option("--connections", util::count(&options.connections))
      .option("--batch-fraction", util::fraction(&options.batch_fraction))
      .option("--batch-tuples", util::count(&options.batch_tuples))
      .option("--malformed-fraction",
              util::fraction(&options.malformed_fraction))
      .option("--deadline-ms", util::nonNegative(&options.deadline_ms))
      .option("--seed", util::seed(&options.seed))
      .option("--label", util::text(&label))
      .option("--json", util::text(&json_path));
  if (!flags.parse(argc, argv) || options.port == 0) return flags.usage();

  util::SignalFlag signals({SIGINT, SIGTERM});
  options.stop = [&signals] { return signals.raised(); };

  std::fprintf(stderr,
               "tevot_loadgen: %s storm, %.0f qps x %.1fs over %d "
               "connections (seed %llu)\n",
               fleet::arrivalName(options.arrival), options.rate_qps,
               options.duration_s, options.connections,
               static_cast<unsigned long long>(options.seed));
  const fleet::LoadgenReport report = fleet::runLoadgen(options);
  std::printf("tevot_loadgen: %s%s\n", report.summaryLine().c_str(),
              report.interrupted ? " (interrupted)" : "");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "tevot_loadgen: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
    out << report.toJson(label, options);
    out.flush();
    std::fprintf(stderr, "tevot_loadgen: wrote %s\n", json_path.c_str());
  }

  if (report.interrupted) {
    std::fprintf(stderr, "tevot_loadgen: interrupted by signal %d\n",
                 signals.lastSignal());
    return 130;  // 128 + SIGINT, shell convention
  }
  if (report.responsesReceived() == 0) {
    std::fprintf(stderr, "tevot_loadgen: no responses at all\n");
    return 1;
  }
  return 0;
}
