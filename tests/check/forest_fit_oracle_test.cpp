// Packed vs per-feature split search as a ctest suite: the seeded
// forest-fit properties, plus fixed datasets for the cases the packed
// sweep must get exactly right (non-finite labels, -0.0f bits, a
// column that is 0/1 only at some nodes, packed rows spanning more
// than one word).
#include "check/forest_fit_oracle.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "check/property.hpp"

namespace tevot::check {
namespace {

TEST(ForestFitOracleTest, RandomDatasetsFitIdentically) {
  const PropertyResult result = forAllSeeds(200, checkForestFitBitIdentity);
  EXPECT_TRUE(result.ok) << result.report("forest-fit/bit-identity");
}

TEST(ForestFitOracleTest, TevotRowsFitIdentically) {
  const PropertyResult result = forAllSeeds(200, checkForestFitOnTevotRows);
  EXPECT_TRUE(result.ok) << result.report("forest-fit/tevot-rows");
}

/// 97 columns: 95 binary (two words, the last group partly padding),
/// one {0,1,2} column and one real column; zeros alternate with -0.0f.
ml::Dataset fixedDataset(std::size_t rows) {
  ml::Dataset data;
  data.x = ml::Matrix(rows, 97);
  data.y.resize(rows);
  util::Rng rng(12345);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < 95; ++c) {
      const bool one = rng.nextBool(0.5);
      data.x.at(r, c) = one ? 1.0f : (r % 2 == 0 ? -0.0f : 0.0f);
    }
    data.x.at(r, 95) = r % 17 == 3 ? 2.0f : data.x.at(r, 7);
    data.x.at(r, 96) = static_cast<float>(rng.nextDouble(0.0, 1.0));
    data.y[r] = static_cast<float>(data.x.at(r, 7) * 30.0f +
                                   data.x.at(r, 60) * 10.0f +
                                   rng.nextDouble(0.0, 3.0));
  }
  return data;
}

/// Fits `data` both ways and returns the fast tree's node count.
std::size_t expectSameFit(const ml::Dataset& data, ml::TreeTask task,
                          const std::string& label) {
  util::Rng fast_rng(9), reference_rng(9);
  ml::DecisionTree fast, reference;
  fast.fit(data, task, ml::TreeParams{}, fast_rng);
  reference.fitReference(data, task, ml::TreeParams{}, reference_rng);
  EXPECT_NO_THROW(expectSameTree(fast, reference, data.features(), label));
  return fast.nodeCount();
}

TEST(ForestFitOracleTest, FixedDatasetFitsIdentically) {
  ml::Dataset data = fixedDataset(300);
  EXPECT_GT(expectSameFit(data, ml::TreeTask::kRegression, "regression"), 1U);
  for (float& y : data.y) y = y > 20.0f ? 1.0f : 0.0f;
  EXPECT_GT(
      expectSameFit(data, ml::TreeTask::kClassification, "classification"),
      1U);
}

// A NaN or infinite label makes every split score of a node holding it
// NaN, so the trees stop there; both searches must agree on that.
TEST(ForestFitOracleTest, NonFiniteLabelsFitIdentically) {
  const float poisons[] = {std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity()};
  for (const float poison : poisons) {
    ml::Dataset data = fixedDataset(200);
    data.y[5] = poison;
    data.y[150] = poison;
    expectSameFit(data, ml::TreeTask::kRegression,
                  "label " + std::to_string(poison));
  }
}

}  // namespace
}  // namespace tevot::check
