// predict: TevotModel::predictDelayBatch over batches of 256 queries,
// each batch at one corner drawn from the 9 grid corners, with the
// INT MUL model from the offline flow. A round runs every batch once
// on one thread and once split over nproc persistent threads.
#include <cstring>
#include <string>

#include "common.hpp"
#include "dta/workload.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kBatchRows = 256;

struct Inputs {
  std::vector<core::DelayQuery> queries;  ///< batches back to back
  std::size_t batches = 0;
  double corner_repeat_frac = 0.0;
};

Inputs makeInputs(std::uint64_t seed, std::size_t batches) {
  Inputs in;
  in.batches = batches;
  util::Rng rng(seed ^ 0x5eedf00dULL);
  const dta::Workload ops = dta::randomWorkloadFor(
      circuits::FuKind::kIntMul, batches * kBatchRows + 1, rng);
  const std::vector<liberty::Corner> corners =
      core::OperatingGrid::paper().subsampled(3, 3);
  std::vector<bool> seen(corners.size(), false);
  std::size_t repeats = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    const std::size_t pick = rng.nextBelow(corners.size());
    if (seen[pick]) ++repeats;
    seen[pick] = true;
    for (std::size_t r = 0; r < kBatchRows; ++r) {
      const std::size_t t = b * kBatchRows + r + 1;
      in.queries.push_back({ops.ops[t].a, ops.ops[t].b, ops.ops[t - 1].a,
                            ops.ops[t - 1].b, corners[pick]});
    }
  }
  in.corner_repeat_frac =
      static_cast<double>(repeats) / static_cast<double>(batches);
  return in;
}

std::span<const core::DelayQuery> batchOf(const Inputs& in, std::size_t b) {
  return {in.queries.data() + b * kBatchRows, kBatchRows};
}

/// Shards [0, batches) over `shards` contiguous ranges.
std::pair<std::size_t, std::size_t> shard(std::size_t batches,
                                          std::size_t shards,
                                          std::size_t i) {
  return {batches * i / shards, batches * (i + 1) / shards};
}

bool sameBits(const double* x, const double* y, std::size_t n) {
  return std::memcmp(x, y, n * sizeof(double)) == 0;
}

}  // namespace

void runPredict(const Options& options, Report& report) {
  const std::size_t batches = options.tiny ? 8 : 64;
  const std::size_t threads = util::ThreadPool::hardwareThreads();
  TrainedFu fu;
  Inputs in;
  std::unique_ptr<util::ThreadPool> pool;
  bool setup_ok = true;
  report.setup_s = timeSetup([&] {
    bool ok = true;
    fu = trainFu(circuits::FuKind::kIntMul, options.seed, options.tiny,
                 report, ok);
    in = makeInputs(options.seed, batches);
    pool = std::make_unique<util::ThreadPool>(threads);
    setup_ok = setup_ok && ok;
  }, [&] { pool.reset(); });
  report.attempt(setup_ok);
  const core::TevotModel& model = fu.model;

  const std::size_t rows = in.queries.size();
  std::vector<double> out_1t(rows);
  std::vector<double> out_mt(rows);
  std::vector<double> batch_ms;
  std::vector<double> rate_1t;
  std::vector<double> rate_mt;
  std::uint64_t round_index = 0;
  const RoundTimes times = runRounds(options, 3, [&] {
    double busy_s = 0.0;
    for (std::size_t b = 0; b < in.batches; ++b) {
      const std::int64_t start = nowNs();
      {
        const Span span("tevot.predict_batch");
        model.predictDelayBatch(batchOf(in, b),
                                {out_1t.data() + b * kBatchRows, kBatchRows});
      }
      const double s = secondsSince(start);
      busy_s += s;
      batch_ms.push_back(s * 1e3);
    }
    rate_1t.push_back(static_cast<double>(rows) / busy_s);

    const std::int64_t mt_start = nowNs();
    pool->parallelFor(threads, [&](std::size_t i) {
      const auto [lo, hi] = shard(in.batches, threads, i);
      for (std::size_t b = lo; b < hi; ++b) {
        const Span span("tevot.predict_batch");
        model.predictDelayBatch(batchOf(in, b),
                                {out_mt.data() + b * kBatchRows, kBatchRows});
      }
    });
    rate_mt.push_back(static_cast<double>(rows) / secondsSince(mt_start));

    // Checks, outside the timed calls: one sampled row per batch against
    // the scalar path, and the threaded pass against the single one.
    for (std::size_t b = 0; b < in.batches; ++b) {
      const std::size_t r = b * kBatchRows + (round_index * 37 + b) % kBatchRows;
      const core::DelayQuery& q = in.queries[r];
      const double scalar =
          model.predictDelay(q.a, q.b, q.prev_a, q.prev_b, q.corner);
      if (report.corruptNow("batch")) out_1t[r] = -out_1t[r];
      bool ok = report.expect(sameBits(&scalar, &out_1t[r], 1), "batch",
                              "predictDelayBatch row " + std::to_string(r) +
                                  " differs from predictDelay");
      ok = report.expect(sameBits(out_1t.data() + b * kBatchRows,
                                  out_mt.data() + b * kBatchRows, kBatchRows),
                         "batch",
                         "threaded batch " + std::to_string(b) +
                             " differs from the single-thread pass") &&
           ok;
      report.attempt(ok);
    }
    ++round_index;
  });

  const double per_s = median(rate_1t);
  const double mt_per_s = median(rate_mt);
  report.throughput_per_s = mt_per_s;
  report.p50_ms = median(batch_ms);
  report.say("predict_per_s", per_s, "predictions/s (1 thread)");
  report.say("predict_mt_per_s", mt_per_s,
             "predictions/s (" + std::to_string(threads) + " threads)");
  report.say("batch_latency_samples", static_cast<double>(batch_ms.size()),
             "batches of 256");

  if (!options.trace) return;
  // Attribution replay: the two public calls predictDelayBatch makes,
  // encoding then traversal, timed apart on the same batches.
  const core::FeatureEncoder& encoder = model.encoder();
  const ml::FlatForest& flat = model.flatForest();
  const std::size_t cols = encoder.featureCount();
  std::vector<float> encoded(rows * cols);
  std::vector<double> replay(rows);
  setTracing(true);
  const int passes = options.tiny ? 2 : 20;
  std::vector<double> mt_walls;
  for (int pass = 0; pass < passes; ++pass) {
    for (std::size_t b = 0; b < in.batches; ++b) {
      float* block = encoded.data() + b * kBatchRows * cols;
      {
        const Span span("tevot.encode");
        for (std::size_t r = 0; r < kBatchRows; ++r) {
          const core::DelayQuery& q = in.queries[b * kBatchRows + r];
          encoder.encode(q.a, q.b, q.prev_a, q.prev_b, q.corner,
                         {block + r * cols, cols});
        }
      }
      const Span span("ml.traverse");
      flat.predictBatch(block, kBatchRows, cols,
                        replay.data() + b * kBatchRows);
    }
    const std::int64_t start = nowNs();
    pool->parallelFor(threads, [&](std::size_t i) {
      const auto [lo, hi] = shard(in.batches, threads, i);
      for (std::size_t b = lo; b < hi; ++b) {
        const Span span("ml.traverse_mt");
        flat.predictBatch(encoded.data() + b * kBatchRows * cols, kBatchRows,
                          cols, replay.data() + b * kBatchRows);
      }
    });
    mt_walls.push_back(secondsSince(start));
  }
  setTracing(false);
  report.attempt(report.expect(sameBits(replay.data(), out_1t.data(), rows),
                               "batch",
                               "encode + traverse replay differs from "
                               "predictDelayBatch"));

  const std::vector<SpanRecord> spans = collectSpans();
  const double replay_rows = static_cast<double>(rows) * passes;
  report.layer("tevot.encode_ns_per_row",
               spanSeconds(spans, "tevot.encode") * 1e9 / replay_rows);
  report.layer("ml.traverse_ns_per_row",
               spanSeconds(spans, "ml.traverse") * 1e9 / replay_rows);
  report.layer("ml.traverse_ns_per_row_mt",
               median(mt_walls) * 1e9 / static_cast<double>(rows));
  report.layer("tevot.accuracy", fu.accuracy);
  report.layer("ml.nodes", static_cast<double>(flat.nodeCount()));
  report.layer("ml.max_depth", flat.maxDepth());
  report.layer("input.corner_repeat_frac", in.corner_repeat_frac);
  report.layer("input.batch_rows", static_cast<double>(kBatchRows));
  finishTrace(options, report, spans, times);
}

}  // namespace perfbench
