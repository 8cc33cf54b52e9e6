// End-to-end serving latency: boots an in-process tevot_serve Server
// on a freshly trained int_add model and drives it from concurrent
// line clients, reporting request percentiles (p50/p95/p99) from the
// server's own streaming histogram plus client-side wall clock. Knobs:
//   TEVOT_SERVE_CLIENTS   concurrent client connections (default 4)
//   TEVOT_SERVE_REQUESTS  requests per client (default 2000)
// Each request is computed on its connection's server thread, so the
// client count is also the server's compute concurrency.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "tevot/model.hpp"
#include "tevot/pipeline.hpp"
#include "util/fault_injection.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace {

using namespace tevot;

core::TevotModel trainTinyModel() {
  core::FuContext context(circuits::FuKind::kIntAdd);
  util::Rng rng(7);
  std::vector<dta::DtaTrace> traces;
  for (const liberty::Corner corner :
       {liberty::Corner{0.85, 25.0}, liberty::Corner{1.00, 75.0}}) {
    traces.push_back(context.characterize(
        corner, dta::randomWorkloadFor(context.kind(), 200, rng)));
  }
  core::TevotConfig config;
  config.forest.n_trees = 8;
  core::TevotModel model(config);
  model.train(traces, rng);
  return model;
}

}  // namespace

int main() {
  int clients = 4;
  int requests = 2000;
  util::Flags knobs("bench_serve_latency",
                    "usage: bench_serve_latency\n"
                    "environment: TEVOT_SERVE_CLIENTS in 1..64, "
                    "TEVOT_SERVE_REQUESTS >= 1\n");
  knobs.env("TEVOT_SERVE_CLIENTS", util::inRange(&clients, 1, 64))
      .env("TEVOT_SERVE_REQUESTS", util::count(&requests));
  if (!knobs.parseEnv()) return knobs.usage();

  const std::string dir = "bench_serve_models";
  std::filesystem::create_directories(dir);
  trainTinyModel().save(dir + "/int_add.model");

  util::FaultInjector quiet;  // never inherit TEVOT_FAULTS in a bench
  serve::ServerOptions options;
  options.model_dir = dir;
  options.max_in_flight = 258;
  options.faults = &quiet;
  serve::Server server(options);
  const util::Status started = server.start();
  if (!started.ok()) {
    std::fprintf(stderr, "bench_serve_latency: %s\n",
                 started.message.c_str());
    return 1;
  }

  const auto bench_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      serve::LineClient client;
      if (!client.connectTo(server.port()).ok()) return;
      char line[192];
      for (int i = 0; i < requests; ++i) {
        std::snprintf(line, sizeof(line),
                      "predict int_add %a %a %a %u %u %u %u",
                      0.8 + 0.001 * (i % 200), 10.0 + c, 300.0,
                      static_cast<unsigned>(i * 2654435761u),
                      static_cast<unsigned>(~i), static_cast<unsigned>(i),
                      static_cast<unsigned>(c));
        if (!client.sendLine(line)) return;
        if (!client.readLine().has_value()) return;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_start)
          .count();

  const serve::MetricsSnapshot stats = server.drainAndStop();
  const double total = static_cast<double>(clients) * requests;
  std::printf(
      "serve latency: %d clients x %d requests\n"
      "  throughput %.0f req/s, p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, "
      "max %.3f ms\n",
      clients, requests, total / wall, stats.p50_ms, stats.p95_ms,
      stats.p99_ms, stats.max_ms);

  bench::writeBenchJson("serve_latency", static_cast<std::size_t>(clients),
                        wall,
                        {{"clients", static_cast<double>(clients)},
                         {"requests_per_client",
                          static_cast<double>(requests)},
                         {"throughput_rps", total / wall},
                         {"p50_ms", stats.p50_ms},
                         {"p95_ms", stats.p95_ms},
                         {"p99_ms", stats.p99_ms},
                         {"max_ms", stats.max_ms}});
  return 0;
}
