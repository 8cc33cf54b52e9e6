// TevotModel's bit path: single-corner batches of at least
// kBitPathMinRows rows run a corner-specialized ml::BitForest from a
// bounded per-model cache. These tests pin the path selection at the
// row threshold, the cache's behaviour across copies and retraining,
// and concurrent batches over more corners than the cache holds, so
// evictions race with readers (also run under TSan in CI).
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <thread>
#include <vector>

#include "tevot/model.hpp"
#include "tevot/operating_grid.hpp"
#include "util/rng.hpp"

namespace tevot::core {
namespace {

/// Synthetic traces whose delay depends on V, T and the toggled bits,
/// so the forest splits on all three kinds of feature.
std::vector<dta::DtaTrace> syntheticTraces(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<dta::DtaTrace> traces;
  for (const liberty::Corner& corner :
       OperatingGrid::paper().subsampled(3, 3)) {
    dta::DtaTrace trace;
    trace.corner = corner;
    trace.samples.resize(60);
    std::uint32_t prev_a = rng.nextU32();
    std::uint32_t prev_b = rng.nextU32();
    for (dta::DtaSample& sample : trace.samples) {
      sample.prev_a = prev_a;
      sample.prev_b = prev_b;
      sample.a = prev_a = rng.nextU32();
      sample.b = prev_b = rng.nextU32();
      const int toggles = std::popcount(sample.a ^ sample.prev_a) +
                          std::popcount(sample.b ^ sample.prev_b);
      sample.delay_ps = 250.0 / corner.voltage + corner.temperature +
                        3.0 * toggles + rng.nextDouble(0.0, 10.0);
    }
    traces.push_back(std::move(trace));
  }
  return traces;
}

TevotModel trainedModel(bool include_history, std::uint64_t seed = 5) {
  TevotConfig config;
  config.include_history = include_history;
  config.forest.n_trees = 6;
  config.forest.tree.max_depth = 10;
  TevotModel model(config);
  util::Rng rng(seed);
  model.train(syntheticTraces(seed), rng);
  return model;
}

std::vector<DelayQuery> batchAt(const liberty::Corner& corner,
                                std::size_t rows, util::Rng& rng) {
  std::vector<DelayQuery> batch(rows);
  for (DelayQuery& q : batch) {
    q = {rng.nextU32(), rng.nextU32(), rng.nextU32(), rng.nextU32(),
         corner};
  }
  return batch;
}

/// predictDelayBatch, memcmp'd row by row against predictDelay.
void expectMatchesScalar(const TevotModel& model,
                         const std::vector<DelayQuery>& batch) {
  std::vector<double> out(batch.size());
  model.predictDelayBatch(batch, out);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const DelayQuery& q = batch[i];
    const double scalar =
        model.predictDelay(q.a, q.b, q.prev_a, q.prev_b, q.corner);
    ASSERT_EQ(std::memcmp(&out[i], &scalar, sizeof(double)), 0)
        << "row " << i << " of " << batch.size() << ": " << out[i]
        << " vs " << scalar;
  }
}

TEST(BitPathTest, BothSidesOfRowThresholdMatchScalar) {
  for (const bool history : {true, false}) {
    const TevotModel model = trainedModel(history);
    util::Rng rng(9);
    for (const liberty::Corner& corner :
         OperatingGrid::paper().subsampled(2, 2)) {
      for (const std::size_t rows :
           {TevotModel::kBitPathMinRows - 1, TevotModel::kBitPathMinRows,
            TevotModel::kBitPathMinRows + 17}) {
        expectMatchesScalar(model, batchAt(corner, rows, rng));
      }
    }
  }
}

TEST(BitPathTest, MixedCornerLongBatchMatchesScalar) {
  const TevotModel model = trainedModel(true);
  util::Rng rng(13);
  std::vector<DelayQuery> batch = batchAt({0.9, 50.0}, 200, rng);
  batch.back().corner.temperature = 51.0;
  expectMatchesScalar(model, batch);
}

TEST(BitPathTest, CopiesAndRetrainingNeverServeStaleForests) {
  TevotModel model = trainedModel(true, 5);
  util::Rng rng(17);
  const std::vector<DelayQuery> batch = batchAt({0.85, 25.0}, 256, rng);
  expectMatchesScalar(model, batch);  // fills the cache at this corner

  const TevotModel copy = model;
  expectMatchesScalar(copy, batch);
  const TevotModel moved = std::move(model);
  expectMatchesScalar(moved, batch);

  TevotModel retrained = trainedModel(true, 5);
  expectMatchesScalar(retrained, batch);
  util::Rng train_rng(99);
  retrained.train(syntheticTraces(99), train_rng);
  expectMatchesScalar(retrained, batch);
}

TEST(BitPathTest, ConcurrentBatchesAcrossEvictionsMatchSingleThread) {
  const TevotModel model = trainedModel(true);
  // More corners than the cache holds, so every pass evicts.
  std::vector<liberty::Corner> corners =
      OperatingGrid::paper().subsampled(5, 5);
  ASSERT_GT(corners.size(), TevotModel::kCornerCacheSize);
  util::Rng rng(23);
  std::vector<std::vector<DelayQuery>> batches;
  std::vector<std::vector<double>> want;
  for (const liberty::Corner& corner : corners) {
    batches.push_back(batchAt(corner, TevotModel::kBitPathMinRows, rng));
    want.emplace_back(batches.back().size());
    model.predictDelayBatch(batches.back(), want.back());
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<double> got(TevotModel::kBitPathMinRows);
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t k = 0; k < batches.size(); ++k) {
          // Each thread walks the corners from its own offset.
          const std::size_t c = (k * (t + 1) + t) % batches.size();
          model.predictDelayBatch(batches[c], got);
          if (std::memcmp(got.data(), want[c].data(),
                          got.size() * sizeof(double)) != 0) {
            ++mismatches[static_cast<std::size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
  for (std::size_t c = 0; c < batches.size(); ++c) {
    expectMatchesScalar(model, batches[c]);
  }
}

}  // namespace
}  // namespace tevot::core
