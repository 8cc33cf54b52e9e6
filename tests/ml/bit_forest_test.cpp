// BitForest tests: a corner-specialized forest must reach the scalar
// walk's leaf in every tree. Covered: fitted forests over TEVoT-shaped
// rows (128 or 64 bits, then V and T) at many corners, corners on a
// V/T threshold, hand-built bit splits whose thresholds are negative,
// >= 1, exactly 0 or NaN, partial blocks, and compile errors. Each
// batch is memcmp'd against FlatForest::predictBatch and the walk.
#include "ml/bit_forest.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace tevot::ml {
namespace {

struct Row {
  std::uint32_t a = 0, b = 0, prev_a = 0, prev_b = 0;
};

/// The FeatureEncoder layout: bits of a, b (and a^prev_a, b^prev_b
/// when n_bits is 128), then the fixed real features.
std::vector<float> encode(const Row& row, std::size_t n_bits,
                          std::span<const float> fixed) {
  const std::uint32_t words[] = {row.a, row.b, row.a ^ row.prev_a,
                                 row.b ^ row.prev_b};
  std::vector<float> out;
  for (std::size_t i = 0; i < n_bits; ++i) {
    out.push_back(static_cast<float>((words[i / 32] >> (i % 32)) & 1u));
  }
  out.insert(out.end(), fixed.begin(), fixed.end());
  return out;
}

std::vector<Row> randomRows(util::Rng& rng, std::size_t n) {
  std::vector<Row> rows(n);
  for (Row& row : rows) {
    row = {rng.nextU32(), rng.nextU32(), rng.nextU32(), rng.nextU32()};
  }
  return rows;
}

/// BitForest::predictBatch vs FlatForest::predictBatch and the scalar
/// walk, memcmp'd per row.
void expectBitIdentical(const RandomForestRegressor& forest,
                        std::size_t n_bits, std::span<const float> fixed,
                        const std::vector<Row>& rows) {
  const FlatForest flat = FlatForest::fromRegressor(forest);
  const BitForest bits = BitForest::compile(flat, n_bits, fixed);
  std::vector<double> got(rows.size());
  bits.predictBatch(std::span<const Row>(rows), got.data());
  const std::size_t cols = n_bits + fixed.size();
  std::vector<float> encoded;
  for (const Row& row : rows) {
    const std::vector<float> x = encode(row, n_bits, fixed);
    encoded.insert(encoded.end(), x.begin(), x.end());
  }
  std::vector<double> flat_out(rows.size());
  flat.predictBatch(encoded.data(), rows.size(), cols, flat_out.data());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double walk = static_cast<double>(forest.predict(
        std::span<const float>(encoded.data() + i * cols, cols)));
    ASSERT_EQ(std::memcmp(&got[i], &walk, sizeof(double)), 0)
        << "row " << i << ": " << got[i] << " vs walk " << walk;
    ASSERT_EQ(std::memcmp(&got[i], &flat_out[i], sizeof(double)), 0)
        << "row " << i << ": " << got[i] << " vs flat " << flat_out[i];
  }
}

/// A forest fitted on TEVoT-shaped rows: n_bits random bits, then V
/// and T, with a label that depends on all of them.
RandomForestRegressor fittedForest(util::Rng& rng, std::size_t n_bits) {
  Dataset data;
  for (const Row& row : randomRows(rng, 300)) {
    const float v = static_cast<float>(rng.nextDouble(0.81, 1.0));
    const float t = static_cast<float>(rng.nextDouble(0.0, 100.0));
    const float fixed[] = {v, t};
    const std::vector<float> x = encode(row, n_bits, fixed);
    float label = 200.0f / v + t;
    for (std::size_t i = 0; i < n_bits; i += 7) label += 4.0f * x[i];
    data.append(x, label);
  }
  ForestParams params;
  params.n_trees = 5;
  params.tree.max_depth = 12;
  RandomForestRegressor forest;
  util::Rng fit_rng = rng.fork();
  forest.fit(data, params, fit_rng);
  return forest;
}

TEST(BitForestTest, FittedForestsMatchAtManyCorners) {
  util::Rng rng(41);
  for (const std::size_t n_bits : {std::size_t{128}, std::size_t{64}}) {
    const RandomForestRegressor forest = fittedForest(rng, n_bits);
    for (int c = 0; c < 12; ++c) {
      const float fixed[] = {static_cast<float>(rng.nextDouble(0.7, 1.1)),
                             static_cast<float>(rng.nextDouble(-20, 120))};
      expectBitIdentical(forest, n_bits, fixed,
                         randomRows(rng, 1 + rng.nextBelow(70)));
    }
  }
}

TEST(BitForestTest, CornersOnSplitThresholdsTieLeft) {
  util::Rng rng(43);
  const RandomForestRegressor forest = fittedForest(rng, 128);
  const FlatForest flat = FlatForest::fromRegressor(forest);
  int ties = 0;
  for (const FlatForest::Node& node : flat.nodes()) {
    if (node.feature < 128) continue;
    float fixed[] = {0.9f, 50.0f};
    fixed[node.feature - 128] = node.threshold;
    expectBitIdentical(forest, 128, fixed, randomRows(rng, 20));
    ++ties;
  }
  EXPECT_GT(ties, 0) << "fitted forest never split on V or T";
}

/// One split on bit feature 3 per threshold: 1.0 left, 2.0 right.
RandomForestRegressor bitSplitForest(std::span<const float> thresholds) {
  std::vector<DecisionTree> trees;
  for (const float threshold : thresholds) {
    std::vector<DecisionTree::Node> nodes(3);
    nodes[0].feature = 3;
    nodes[0].threshold = threshold;
    nodes[0].left = 1;
    nodes[0].right = 2;
    nodes[1].value = 1.0f;
    nodes[2].value = 2.0f;
    trees.emplace_back().setNodes(std::move(nodes));
  }
  RandomForestRegressor forest;
  forest.setTrees(std::move(trees));
  return forest;
}

TEST(BitForestTest, HandBuiltBitThresholdsResolveLikeTheWalk) {
  const float thresholds[] = {-0.5f, -1e-30f, 0.0f, 0.5f, 0.999f,
                              1.0f,  1.5f,    1e9f};
  const RandomForestRegressor forest = bitSplitForest(thresholds);
  const float fixed[] = {0.9f, 50.0f};
  const std::vector<Row> rows = {{0u, 0u, 0u, 0u}, {8u, 0u, 0u, 0u}};
  expectBitIdentical(forest, 128, fixed, rows);

  // Only thresholds in [0, 1) read the bit; the rest are resolved.
  const BitForest bits =
      BitForest::compile(FlatForest::fromRegressor(forest), 128, fixed);
  EXPECT_EQ(bits.nodeCount(), std::size(thresholds) + 3 * 2);
  EXPECT_EQ(bits.maxDepth(), 1);
}

TEST(BitForestTest, NanThresholdGoesRightLikeTheWalk) {
  // Served models never hold one (validateForestStructure rejects
  // it), but the resolution rule is the walk's, so 0 and 1 go right.
  const float nan[] = {std::numeric_limits<float>::quiet_NaN()};
  const RandomForestRegressor forest = bitSplitForest(nan);
  const float fixed[] = {0.9f, 50.0f};
  const BitForest bits =
      BitForest::compile(FlatForest::fromRegressor(forest), 128, fixed);
  EXPECT_EQ(bits.nodeCount(), 1u);
  const std::vector<Row> rows = {{0u, 0u, 0u, 0u}, {8u, 0u, 0u, 0u}};
  std::vector<double> out(rows.size());
  bits.predictBatch(std::span<const Row>(rows), out.data());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<double>(forest.predict(
                          encode(rows[i], 128, fixed))));
    EXPECT_EQ(out[i], 2.0);
  }
}

TEST(BitForestTest, SpecializationDropsRealSplits) {
  util::Rng rng(47);
  const RandomForestRegressor forest = fittedForest(rng, 128);
  const FlatForest flat = FlatForest::fromRegressor(forest);
  const float fixed[] = {0.85f, 75.0f};
  const BitForest bits = BitForest::compile(flat, 128, fixed);
  EXPECT_EQ(bits.treeCount(), flat.treeCount());
  EXPECT_LT(bits.nodeCount(), flat.nodeCount());
  EXPECT_LE(bits.maxDepth(), flat.maxDepth());
}

TEST(BitForestTest, EmptyBatchIsANoOp) {
  util::Rng rng(53);
  const float fixed[] = {0.9f, 25.0f};
  const BitForest bits = BitForest::compile(
      FlatForest::fromRegressor(fittedForest(rng, 64)), 64, fixed);
  double sentinel = -1.0;
  bits.predictBatch(std::span<const Row>(), &sentinel);
  EXPECT_EQ(sentinel, -1.0);
}

TEST(BitForestTest, CompileRejectsBadInputs) {
  const float fixed[] = {0.9f, 25.0f};
  EXPECT_THROW(BitForest::compile(FlatForest(), 128, fixed),
               std::invalid_argument);

  // A split on feature 66 is past a 64-bit row plus V and T.
  std::vector<DecisionTree::Node> nodes(3);
  nodes[0].feature = 66;
  nodes[0].left = 1;
  nodes[0].right = 2;
  std::vector<DecisionTree> trees(1);
  trees[0].setNodes(std::move(nodes));
  const FlatForest flat = FlatForest::compile(trees);
  EXPECT_THROW(BitForest::compile(flat, 64, fixed), std::invalid_argument);
  EXPECT_NO_THROW(BitForest::compile(flat, 65, fixed));
  EXPECT_THROW(BitForest::compile(flat, 129, fixed), std::invalid_argument);

  const std::vector<Row> rows(3);
  std::vector<double> out(rows.size());
  EXPECT_THROW(BitForest().predictBatch(std::span<const Row>(rows),
                                        out.data()),
               std::logic_error);
}

}  // namespace
}  // namespace tevot::ml
