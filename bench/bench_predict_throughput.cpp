// Inference-engine throughput: the scalar CART tree-walk vs the
// compiled ml::FlatForest, scalar and batched, single- and
// multi-threaded, plus end-to-end TevotModel paths (encoding
// included) and tevot_serve predictN batch latency percentiles. The
// end-to-end batch rows cover both predictDelayBatch paths: one batch
// with a fresh corner per query (the encoded flat path) and 256-row
// batches that each share one corner (the corner bit-forest path).
//
// Two outputs:
//  * the usual bench_out/predict_throughput.json (TEVOT_BENCH_OUT),
//  * BENCH_predict_throughput.json in the current directory — run
//    from the repo root so the committed copy tracks the speedup
//    trajectory across PRs (CI uploads it as an artifact). It records
//    the host and build (nproc, CPU model, compiler, build type), so
//    copies from different machines are not compared blindly.
//
// Knobs:
//   TEVOT_PREDICT_ROWS     distinct encoded rows (default 4096)
//   TEVOT_PREDICT_REPEAT   passes over the row block (default 64)
//   TEVOT_PREDICT_THREADS  thread count for the N-thread runs
//                          (default: hardware concurrency)
//   TEVOT_PREDICT_BATCHES  predictN batches against the server
//                          (default 200, 64 tuples each)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "ml/flat_forest.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "tevot/model.hpp"
#include "tevot/pipeline.hpp"
#include "util/fault_injection.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace {

using namespace tevot;
using Clock = std::chrono::steady_clock;

core::TevotModel trainModel() {
  core::FuContext context(circuits::FuKind::kIntAdd);
  util::Rng rng(7);
  std::vector<dta::DtaTrace> traces;
  for (const liberty::Corner corner :
       {liberty::Corner{0.85, 25.0}, liberty::Corner{1.00, 75.0}}) {
    traces.push_back(context.characterize(
        corner, dta::randomWorkloadFor(context.kind(), 400, rng)));
  }
  core::TevotModel model;
  model.train(traces, rng);
  return model;
}

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Partitions [0, rows) across `threads` workers running `body(lo, hi)`
/// and returns predictions/second over `repeat` passes.
template <typename Body>
double timedRate(std::size_t rows, int repeat, std::size_t threads,
                 const Body& body) {
  const auto start = Clock::now();
  for (int pass = 0; pass < repeat; ++pass) {
    if (threads <= 1) {
      body(0, rows);
    } else {
      std::vector<std::thread> pool;
      pool.reserve(threads);
      const std::size_t chunk = (rows + threads - 1) / threads;
      for (std::size_t t = 0; t < threads; ++t) {
        const std::size_t lo = std::min(rows, t * chunk);
        const std::size_t hi = std::min(rows, lo + chunk);
        if (lo < hi) pool.emplace_back([&body, lo, hi] { body(lo, hi); });
      }
      for (std::thread& worker : pool) worker.join();
    }
  }
  const double wall = secondsSince(start);
  return static_cast<double>(rows) * repeat / wall;
}

/// Keeps the optimizer from discarding prediction loops.
volatile double g_sink = 0.0;

}  // namespace

int main() {
  std::size_t rows = 4096;
  int repeat = 64;
  std::size_t threads = 0;  // 0 = one per hardware thread
  int serve_batches = 200;
  util::Flags knobs(
      "bench_predict_throughput",
      "usage: bench_predict_throughput\n"
      "environment: TEVOT_PREDICT_ROWS, TEVOT_PREDICT_REPEAT, "
      "TEVOT_PREDICT_BATCHES >= 1;\n"
      "  TEVOT_PREDICT_THREADS in 0.." + std::to_string(util::kMaxJobs) +
          " (0 = one per hardware thread)\n");
  knobs.env("TEVOT_PREDICT_ROWS", util::count(&rows))
      .env("TEVOT_PREDICT_REPEAT", util::count(&repeat))
      .env("TEVOT_PREDICT_THREADS", util::jobs(&threads))
      .env("TEVOT_PREDICT_BATCHES", util::count(&serve_batches));
  if (!knobs.parseEnv()) return knobs.usage();
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }

  const auto bench_start = Clock::now();
  const core::TevotModel model = trainModel();
  const ml::RandomForestRegressor& forest = model.forest();
  const ml::FlatForest& flat = model.flatForest();
  std::printf(
      "predict throughput: %zu rows x %d passes, %zu trees, %zu nodes, "
      "max depth %d\n",
      rows, repeat, flat.treeCount(), flat.nodeCount(), flat.maxDepth());

  // Pre-encoded row block: the engine comparison isolates traversal
  // cost; the end-to-end numbers below include encoding.
  util::Rng rng(11);
  const std::size_t cols = model.encoder().featureCount();
  std::vector<float> block(rows * cols);
  std::vector<core::DelayQuery> queries(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    core::DelayQuery& query = queries[i];
    query.a = rng.nextU32();
    query.b = rng.nextU32();
    query.prev_a = rng.nextU32();
    query.prev_b = rng.nextU32();
    query.corner = {rng.nextDouble(0.81, 1.0), rng.nextDouble(0.0, 100.0)};
    model.encoder().encode(query.a, query.b, query.prev_a, query.prev_b,
                           query.corner,
                           std::span<float>(block.data() + i * cols, cols));
  }

  const auto scalar_body = [&](std::size_t lo, std::size_t hi) {
    double sink = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      sink += forest.predict(
          std::span<const float>(block.data() + i * cols, cols));
    }
    g_sink = sink;
  };
  const auto flat_scalar_body = [&](std::size_t lo, std::size_t hi) {
    double sink = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      sink += flat.predict(
          std::span<const float>(block.data() + i * cols, cols));
    }
    g_sink = sink;
  };
  std::vector<double> batch_out(rows);
  const auto flat_batch_body = [&](std::size_t lo, std::size_t hi) {
    flat.predictBatch(block.data() + lo * cols, hi - lo, cols,
                      batch_out.data() + lo);
  };

  const double scalar_1t = timedRate(rows, repeat, 1, scalar_body);
  const double flat_1t = timedRate(rows, repeat, 1, flat_scalar_body);
  const double batch_1t = timedRate(rows, repeat, 1, flat_batch_body);
  const double scalar_nt = timedRate(rows, repeat, threads, scalar_body);
  const double batch_nt = timedRate(rows, repeat, threads, flat_batch_body);
  std::printf(
      "  engine (pre-encoded rows): scalar %.0f/s, flat %.0f/s, "
      "flat-batch %.0f/s (%.2fx scalar); %zu threads: scalar %.0f/s, "
      "flat-batch %.0f/s\n",
      scalar_1t, flat_1t, batch_1t, batch_1t / scalar_1t, threads,
      scalar_nt, batch_nt);

  // End-to-end model paths, encoding included.
  const auto e2e_scalar_body = [&](std::size_t lo, std::size_t hi) {
    double sink = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      const core::DelayQuery& q = queries[i];
      sink += model.predictDelay(q.a, q.b, q.prev_a, q.prev_b, q.corner);
    }
    g_sink = sink;
  };
  const auto e2e_batch_body = [&](std::size_t lo, std::size_t hi) {
    model.predictDelayBatch(
        std::span<const core::DelayQuery>(queries.data() + lo, hi - lo),
        std::span<double>(batch_out.data() + lo, hi - lo));
  };
  // The same operands in 256-row batches that each share the corner of
  // their first query: the bit path, no encoding.
  constexpr std::size_t kCornerBatch = 256;
  std::vector<core::DelayQuery> corner_queries = queries;
  for (std::size_t i = 0; i < rows; ++i) {
    corner_queries[i].corner = queries[i - i % kCornerBatch].corner;
  }
  const auto e2e_corner_body = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; b += kCornerBatch) {
      const std::size_t n = std::min(kCornerBatch, hi - b);
      model.predictDelayBatch(
          std::span<const core::DelayQuery>(corner_queries.data() + b, n),
          std::span<double>(batch_out.data() + b, n));
    }
  };
  const int e2e_repeat = std::max(1, repeat / 4);
  const double e2e_scalar = timedRate(rows, e2e_repeat, 1, e2e_scalar_body);
  const double e2e_batch = timedRate(rows, e2e_repeat, 1, e2e_batch_body);
  const double e2e_corner = timedRate(rows, e2e_repeat, 1, e2e_corner_body);
  std::printf("  end-to-end (with encoding): scalar %.0f/s, batch %.0f/s "
              "(%.2fx); %zu-row one-corner batches %.0f/s (%.2fx)\n",
              e2e_scalar, e2e_batch, e2e_batch / e2e_scalar, kCornerBatch,
              e2e_corner, e2e_corner / e2e_scalar);

  // Serve-side predictN latency: one client, 64-tuple batches.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "tevot_bench_predict_models")
          .string();
  std::filesystem::create_directories(dir);
  model.save(dir + "/int_add.model");
  util::FaultInjector quiet;  // never inherit TEVOT_FAULTS in a bench
  serve::ServerOptions options;
  options.model_dir = dir;
  options.max_in_flight = 258;
  options.faults = &quiet;
  serve::Server server(options);
  const util::Status started = server.start();
  if (!started.ok()) {
    std::fprintf(stderr, "bench_predict_throughput: %s\n",
                 started.message.c_str());
    return 1;
  }
  constexpr std::size_t kTuples = 64;
  double serve_batch_rps = 0.0;
  {
    serve::LineClient client;
    if (!client.connectTo(server.port()).ok()) {
      std::fprintf(stderr, "bench_predict_throughput: connect failed\n");
      return 1;
    }
    std::vector<serve::BatchOperand> tuples(kTuples);
    const auto serve_start = Clock::now();
    for (int batch = 0; batch < serve_batches; ++batch) {
      for (serve::BatchOperand& tuple : tuples) {
        tuple = {rng.nextU32(), rng.nextU32(), rng.nextU32(),
                 rng.nextU32()};
      }
      const std::string line = serve::formatBatchRequest(
          "int_add", 0.9, 25.0 + (batch % 50), 300.0, tuples);
      if (!client.sendLine(line)) break;
      for (std::size_t i = 0; i < kTuples; ++i) {
        if (!client.readLine().has_value()) break;
      }
    }
    serve_batch_rps =
        static_cast<double>(serve_batches) * kTuples /
        secondsSince(serve_start);
  }
  const serve::MetricsSnapshot stats = server.drainAndStop();
  std::printf(
      "  serve predictN: %d batches x %zu tuples, %.0f predictions/s, "
      "batch p50 %.3f ms, p95 %.3f ms, p99 %.3f ms\n",
      serve_batches, kTuples, serve_batch_rps, stats.p50_ms, stats.p95_ms,
      stats.p99_ms);

  const double wall = secondsSince(bench_start);
  const std::vector<std::pair<std::string, double>> metrics = {
      {"rows", static_cast<double>(rows)},
      {"repeat", static_cast<double>(repeat)},
      {"threads", static_cast<double>(threads)},
      {"tree_count", static_cast<double>(flat.treeCount())},
      {"node_count", static_cast<double>(flat.nodeCount())},
      {"max_depth", static_cast<double>(flat.maxDepth())},
      {"scalar_predictions_per_s_1t", scalar_1t},
      {"flat_scalar_predictions_per_s_1t", flat_1t},
      {"flat_batch_predictions_per_s_1t", batch_1t},
      {"flat_batch_speedup_vs_scalar_1t", batch_1t / scalar_1t},
      {"scalar_predictions_per_s_nt", scalar_nt},
      {"flat_batch_predictions_per_s_nt", batch_nt},
      {"e2e_scalar_predictions_per_s_1t", e2e_scalar},
      {"e2e_batch_predictions_per_s_1t", e2e_batch},
      {"e2e_batch_speedup_vs_scalar_1t", e2e_batch / e2e_scalar},
      {"e2e_corner_batch_rows", static_cast<double>(kCornerBatch)},
      {"e2e_corner_batch_predictions_per_s_1t", e2e_corner},
      {"e2e_corner_batch_speedup_vs_scalar_1t", e2e_corner / e2e_scalar},
      {"serve_batch_predictions_per_s", serve_batch_rps},
      {"serve_batch_p50_ms", stats.p50_ms},
      {"serve_batch_p95_ms", stats.p95_ms},
      {"serve_batch_p99_ms", stats.p99_ms},
  };
  bench::writeBenchJson("predict_throughput", threads, wall, metrics);

  // The committed repo-root copy (run from the repo root).
  bench::writeHostBenchJson("BENCH_predict_throughput.json",
                            "predict_throughput", wall, metrics);
  return 0;
}
