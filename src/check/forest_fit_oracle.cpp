#include "check/forest_fit_oracle.hpp"

#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "check/property.hpp"
#include "ml/random_forest.hpp"
#include "util/thread_pool.hpp"

namespace tevot::check {
namespace {

enum class Column { kBinary, kReal, kTernary, kConstant, kRealWithNan };

/// A dataset built cell by cell (Dataset::append rejects the NaN and
/// infinite values this oracle needs) plus a description for failure
/// messages.
struct RandomDataset {
  ml::Dataset data;
  ml::TreeTask task = ml::TreeTask::kRegression;
  std::string shape;
};

float binaryValue(util::Rng& rng, double p_one, bool negative_zeros) {
  if (rng.nextBool(p_one)) return 1.0f;
  return negative_zeros && rng.nextBool(0.5) ? -0.0f : 0.0f;
}

/// Fills column `c` with values of `kind`.
void fillColumn(util::Rng& rng, ml::Matrix& x, std::size_t c, Column kind) {
  const std::size_t rows = x.rows();
  const double p_one = rng.nextDouble(0.05, 0.95);
  const bool negative_zeros = rng.nextBool(0.3);
  switch (kind) {
    case Column::kBinary:
      for (std::size_t r = 0; r < rows; ++r) {
        x.at(r, c) = binaryValue(rng, p_one, negative_zeros);
      }
      break;
    case Column::kReal: {
      // A small grid (like V or T on the Table I grid) or continuous.
      const int levels = static_cast<int>(rng.nextInRange(0, 5));
      for (std::size_t r = 0; r < rows; ++r) {
        x.at(r, c) =
            levels == 0
                ? static_cast<float>(rng.nextDouble(-5.0, 5.0))
                : 0.81f + 0.1f * static_cast<float>(
                                     rng.nextInRange(0, levels));
      }
      break;
    }
    case Column::kTernary:
      // 0/1 except a few 2s: binary at the nodes that hold no 2.
      for (std::size_t r = 0; r < rows; ++r) {
        x.at(r, c) = rng.nextBool(0.08)
                         ? 2.0f
                         : binaryValue(rng, p_one, negative_zeros);
      }
      x.at(rng.nextBelow(rows), c) = 2.0f;
      break;
    case Column::kConstant: {
      const float values[] = {0.0f, -0.0f, 1.0f, 0.9f};
      const float value = values[rng.nextBelow(4)];
      for (std::size_t r = 0; r < rows; ++r) x.at(r, c) = value;
      break;
    }
    case Column::kRealWithNan:
      for (std::size_t r = 0; r < rows; ++r) {
        x.at(r, c) = static_cast<float>(rng.nextDouble(-1.0, 1.0));
      }
      x.at(rng.nextBelow(rows), c) = std::numeric_limits<float>::quiet_NaN();
      break;
  }
}

RandomDataset randomDataset(util::Rng& rng) {
  RandomDataset out;
  const auto rows = static_cast<std::size_t>(rng.nextInRange(1, 240));
  const auto cols = static_cast<std::size_t>(rng.nextInRange(1, 140));
  const bool all_binary = rng.nextBool(0.3);
  std::vector<Column> kinds(cols, Column::kBinary);
  int counts[5] = {};
  for (Column& kind : kinds) {
    if (!all_binary) {
      const std::uint64_t draw = rng.nextBelow(100);
      kind = draw < 65   ? Column::kBinary
             : draw < 77 ? Column::kReal
             : draw < 85 ? Column::kTernary
             : draw < 93 ? Column::kConstant
                         : Column::kRealWithNan;
    }
    ++counts[static_cast<int>(kind)];
  }
  out.data.x = ml::Matrix(rows, cols);
  for (std::size_t c = 0; c < cols; ++c) {
    fillColumn(rng, out.data.x, c, kinds[c]);
  }

  // Labels follow a few columns, so the trees have structure to find.
  const std::size_t c0 = rng.nextBelow(cols), c1 = rng.nextBelow(cols);
  out.data.y.resize(rows);
  const bool classification = rng.nextBool(0.4);
  out.task = classification ? ml::TreeTask::kClassification
                            : ml::TreeTask::kRegression;
  for (std::size_t r = 0; r < rows; ++r) {
    const float a = out.data.x.at(r, c0), b = out.data.x.at(r, c1);
    const double signal = (a > 0.5f) != (b > 0.5f) ? 1.0 : 0.0;
    if (classification) {
      out.data.y[r] = rng.nextBool(signal > 0.0 ? 0.85 : 0.15) ? 1.0f : 0.0f;
    } else if (rng.nextBool(0.2)) {
      // Magnitudes far apart, so the double sums round and a sum taken
      // in another order or derived by subtraction would differ.
      const auto exponent = static_cast<int>(rng.nextInRange(-30, 20));
      out.data.y[r] = static_cast<float>(
          std::ldexp(rng.nextDouble(0.5, 1.0), exponent));
    } else {
      out.data.y[r] = static_cast<float>(100.0 + 40.0 * signal +
                                         rng.nextDouble(-10.0, 10.0));
    }
  }
  std::string labels = classification ? "0/1" : "real";
  if (!classification && rng.nextBool(0.3)) {
    const float poison[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
    const std::size_t which = rng.nextBelow(3);
    const std::size_t n_poison = 1 + rng.nextBelow(3);
    for (std::size_t i = 0; i < n_poison; ++i) {
      out.data.y[rng.nextBelow(rows)] = poison[which];
    }
    labels += which == 0 ? "+nan" : "+inf";
  }

  std::ostringstream shape;
  shape << (classification ? "classification " : "regression ") << rows
        << "x" << cols << " (binary " << counts[0] << ", real " << counts[1]
        << ", ternary " << counts[2] << ", constant " << counts[3]
        << ", real+nan " << counts[4] << "; labels " << labels << ")";
  out.shape = shape.str();
  return out;
}

ml::TreeParams randomTreeParams(util::Rng& rng, std::size_t cols) {
  ml::TreeParams params;
  params.max_depth =
      rng.nextBool(0.5) ? -1 : static_cast<int>(rng.nextInRange(1, 10));
  params.min_samples_leaf = static_cast<int>(rng.nextInRange(1, 4));
  params.min_samples_split = static_cast<int>(rng.nextInRange(2, 6));
  params.max_features =
      rng.nextBool(0.3)
          ? static_cast<int>(
                rng.nextInRange(1, static_cast<std::int64_t>(cols)))
          : -1;
  return params;
}

std::string describe(const ml::TreeParams& params) {
  std::ostringstream out;
  out << "max_depth=" << params.max_depth
      << " min_samples_leaf=" << params.min_samples_leaf
      << " min_samples_split=" << params.min_samples_split
      << " max_features=" << params.max_features;
  return out.str();
}

bool sameBits(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

}  // namespace

void expectSameTree(const ml::DecisionTree& fast,
                    const ml::DecisionTree& reference,
                    std::size_t n_features, const std::string& label) {
  const auto a = fast.nodes();
  const auto b = reference.nodes();
  if (a.size() != b.size()) {
    std::ostringstream msg;
    msg << label << ": " << a.size() << " nodes vs " << b.size()
        << " in the reference";
    throw PropertyViolation(msg.str());
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].feature != b[i].feature || a[i].left != b[i].left ||
        a[i].right != b[i].right || !sameBits(a[i].threshold, b[i].threshold) ||
        !sameBits(a[i].value, b[i].value)) {
      std::ostringstream msg;
      msg << std::hexfloat << label << ": node " << i << " is (feature "
          << a[i].feature << ", threshold " << a[i].threshold
          << ", children " << a[i].left << "/" << a[i].right << ", value "
          << a[i].value << ") vs (feature " << b[i].feature << ", threshold "
          << b[i].threshold << ", children " << b[i].left << "/"
          << b[i].right << ", value " << b[i].value << ") in the reference";
      throw PropertyViolation(msg.str());
    }
  }
  const std::vector<double> fast_importance =
      fast.featureImportance(n_features);
  const std::vector<double> reference_importance =
      reference.featureImportance(n_features);
  for (std::size_t f = 0; f < n_features; ++f) {
    if (std::bit_cast<std::uint64_t>(fast_importance[f]) !=
        std::bit_cast<std::uint64_t>(reference_importance[f])) {
      std::ostringstream msg;
      msg << std::hexfloat << label << ": importance of feature " << f << " is "
          << fast_importance[f] << " vs " << reference_importance[f]
          << " in the reference";
      throw PropertyViolation(msg.str());
    }
  }
}

void checkForestFitBitIdentity(std::uint64_t seed, util::Rng& rng) {
  const RandomDataset dataset = randomDataset(rng);
  const ml::Dataset& data = dataset.data;
  const std::size_t cols = data.features();
  const std::string where =
      "seed " + std::to_string(seed) + ", " + dataset.shape;

  // Single trees: all rows, a bootstrap sample, or a short subset
  // with repeats.
  for (int round = 0; round < 3; ++round) {
    const ml::TreeParams params = randomTreeParams(rng, cols);
    std::vector<std::size_t> indices;
    const char* rows_kind = "all rows";
    if (round > 0) {
      const std::size_t n =
          round == 1 ? data.size() : 1 + rng.nextBelow(data.size());
      indices.resize(n);
      for (std::size_t& index : indices) index = rng.nextBelow(data.size());
      rows_kind = round == 1 ? "bootstrap rows" : "subset with repeats";
    }
    const std::uint64_t fit_seed = rng.next();
    util::Rng fast_rng(fit_seed), reference_rng(fit_seed);
    ml::DecisionTree fast, reference;
    fast.fit(data, dataset.task, params, fast_rng, indices);
    reference.fitReference(data, dataset.task, params, reference_rng,
                           indices);
    const std::string label =
        where + ", " + describe(params) + ", " + rows_kind;
    expectSameTree(fast, reference, cols, label);
    expect(fast_rng.next() == reference_rng.next(),
           label + ": the fits drew different numbers of values");
  }

  // Forest: pooled fast fit vs the serial reference trees.
  ml::ForestParams params;
  params.n_trees = static_cast<int>(rng.nextInRange(2, 5));
  params.bootstrap = rng.nextBool(0.7);
  params.tree = randomTreeParams(rng, cols);
  const std::uint64_t forest_seed = rng.next();
  util::Rng fast_rng(forest_seed), reference_rng(forest_seed);
  util::ThreadPool pool(2);
  std::vector<ml::DecisionTree> fast;
  if (dataset.task == ml::TreeTask::kRegression) {
    ml::RandomForestRegressor forest;
    forest.fit(data, params, fast_rng, &pool);
    fast.assign(forest.trees().begin(), forest.trees().end());
  } else {
    ml::RandomForestClassifier forest;
    forest.fit(data, params, fast_rng, &pool);
    fast.assign(forest.trees().begin(), forest.trees().end());
  }
  const std::vector<ml::DecisionTree> reference =
      ml::fitReferenceTrees(data, dataset.task, params, reference_rng);
  expect(fast.size() == reference.size(), where + ": forest sizes differ");
  for (std::size_t t = 0; t < fast.size(); ++t) {
    expectSameTree(fast[t], reference[t], cols,
                   where + ", pooled forest tree " + std::to_string(t) +
                       ", " + describe(params.tree));
  }
}

void checkForestFitOnTevotRows(std::uint64_t seed, util::Rng& rng) {
  const auto rows = static_cast<std::size_t>(rng.nextInRange(50, 400));
  constexpr std::size_t kCols = 130;
  ml::Dataset data;
  data.x = ml::Matrix(rows, kCols);
  data.y.resize(rows);
  std::uint32_t prev_a = rng.nextU32(), prev_b = rng.nextU32();
  for (std::size_t r = 0; r < rows; ++r) {
    const double v = 0.81 + 0.095 * static_cast<double>(rng.nextBelow(3));
    const double t = 50.0 * static_cast<double>(rng.nextBelow(3));
    const std::uint32_t a = rng.nextU32(), b = rng.nextU32();
    const std::uint32_t words[4] = {a, b, a ^ prev_a, b ^ prev_b};
    data.x.at(r, 0) = static_cast<float>(v);
    data.x.at(r, 1) = static_cast<float>(t);
    for (std::size_t bit = 0; bit < 128; ++bit) {
      data.x.at(r, 2 + bit) =
          static_cast<float>((words[bit / 32] >> (bit % 32)) & 1U);
    }
    // Delay grows with the toggled carry-chain length and falls with V.
    const int toggles = std::popcount(words[2] | words[3]);
    data.y[r] = static_cast<float>(
        (200.0 + 12.0 * toggles + 0.3 * t) / v + rng.nextDouble(0.0, 5.0));
    prev_a = a;
    prev_b = b;
  }
  ml::ForestParams params;
  params.n_trees = static_cast<int>(rng.nextInRange(2, 4));
  const std::uint64_t forest_seed = rng.next();
  util::Rng fast_rng(forest_seed), reference_rng(forest_seed);
  util::ThreadPool pool(2);
  ml::RandomForestRegressor forest;
  forest.fit(data, params, fast_rng, &pool);
  const std::vector<ml::DecisionTree> reference = ml::fitReferenceTrees(
      data, ml::TreeTask::kRegression, params, reference_rng);
  expect(forest.trees().size() == reference.size(),
         "TEVoT rows: forest sizes differ");
  for (std::size_t t = 0; t < reference.size(); ++t) {
    expectSameTree(forest.trees()[t], reference[t], kCols,
                   "seed " + std::to_string(seed) + ", TEVoT rows x" +
                       std::to_string(rows) + ", tree " + std::to_string(t));
  }
}

}  // namespace tevot::check
