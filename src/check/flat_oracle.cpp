#include "check/flat_oracle.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/property.hpp"
#include "dta/dta.hpp"
#include "ml/flat_forest.hpp"
#include "ml/random_forest.hpp"
#include "ml/serialize.hpp"
#include "tevot/model.hpp"
#include "tevot/operating_grid.hpp"

namespace tevot::check {
namespace {

[[noreturn]] void fail(const std::ostringstream& msg) {
  throw PropertyViolation(msg.str());
}

/// Random regression rows with features in [-2, 6): wider than the
/// training draw below, so batches also probe thresholds from the
/// outside (both branch directions at the root).
void fillRandomRow(util::Rng& rng, std::vector<float>& row) {
  for (float& value : row) {
    value = static_cast<float>(rng.nextDouble(-2.0, 6.0));
  }
}

ml::Dataset randomRegressionTask(util::Rng& rng, int rows, int cols) {
  ml::Dataset data;
  std::vector<float> row(static_cast<std::size_t>(cols));
  for (int r = 0; r < rows; ++r) {
    float sum = 0.0f;
    for (float& value : row) {
      value = static_cast<float>(rng.nextDouble(0.0, 4.0));
      sum += value;
    }
    data.append(row, sum * static_cast<float>(rng.nextDouble(0.5, 1.5)));
  }
  return data;
}

/// The exact double the batch kernel owes for one row: the scalar
/// walk's float, widened (see FlatForest's bit-identity contract).
double scalarAsBatchDouble(const ml::RandomForestRegressor& forest,
                           std::span<const float> row) {
  return static_cast<double>(forest.predict(row));
}

/// Forest-level: scalar flat predict and the batch kernel vs the
/// tree-walk, over `batches` random batches.
void checkForestLevel(std::uint64_t seed, util::Rng& rng, int batches) {
  const int cols = static_cast<int>(rng.nextInRange(2, 6));
  const int rows = static_cast<int>(rng.nextInRange(40, 90));
  const ml::Dataset data = randomRegressionTask(rng, rows, cols);
  ml::ForestParams params;
  params.n_trees = static_cast<int>(rng.nextInRange(3, 8));
  params.tree.max_depth = static_cast<int>(rng.nextInRange(3, 8));
  ml::RandomForestRegressor forest;
  util::Rng fit_rng = rng.fork();
  forest.fit(data, params, fit_rng);
  const ml::FlatForest flat = ml::FlatForest::fromRegressor(forest);
  expect(flat.compiled(), "flat forest did not compile");
  expect(flat.treeCount() == forest.trees().size(),
         "flat forest lost trees in compilation");

  for (int batch = 0; batch < batches; ++batch) {
    const std::size_t n = static_cast<std::size_t>(rng.nextInRange(1, 64));
    std::vector<float> flat_rows(n * static_cast<std::size_t>(cols));
    std::vector<float> row(static_cast<std::size_t>(cols));
    std::vector<double> batch_out(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      fillRandomRow(rng, row);
      std::memcpy(flat_rows.data() + i * row.size(), row.data(),
                  row.size() * sizeof(float));
    }
    flat.predictBatch(flat_rows.data(), n, row.size(), batch_out.data());
    for (std::size_t i = 0; i < n; ++i) {
      const std::span<const float> row_i(flat_rows.data() + i * row.size(),
                                         row.size());
      const float scalar_walk = forest.predict(row_i);
      const float scalar_flat = flat.predict(row_i);
      if (std::memcmp(&scalar_flat, &scalar_walk, sizeof(float)) != 0) {
        std::ostringstream msg;
        msg << "flat-bit-identity seed " << seed << " batch " << batch
            << " row " << i << ": scalar flat " << scalar_flat
            << " != tree-walk " << scalar_walk;
        fail(msg);
      }
      const double want = scalarAsBatchDouble(forest, row_i);
      if (std::memcmp(&batch_out[i], &want, sizeof(double)) != 0) {
        std::ostringstream msg;
        msg << "flat-bit-identity seed " << seed << " batch " << batch
            << " row " << i << ": batch kernel " << batch_out[i]
            << " != tree-walk " << want;
        fail(msg);
      }
    }
  }
}

/// Random synthetic traces: training data for bit-identity need not
/// be physically meaningful, only deterministic per seed.
std::vector<dta::DtaTrace> randomTraces(util::Rng& rng) {
  const core::OperatingGrid grid = core::OperatingGrid::paper();
  std::vector<dta::DtaTrace> traces(2);
  for (dta::DtaTrace& trace : traces) {
    trace.corner = {rng.nextDouble(grid.v_start, grid.v_end),
                    rng.nextDouble(grid.t_start, grid.t_end)};
    trace.workload_name = "flat-oracle";
    trace.samples.resize(30);
    std::uint32_t prev_a = rng.nextU32();
    std::uint32_t prev_b = rng.nextU32();
    for (dta::DtaSample& sample : trace.samples) {
      sample.prev_a = prev_a;
      sample.prev_b = prev_b;
      sample.a = prev_a = rng.nextU32();
      sample.b = prev_b = rng.nextU32();
      sample.delay_ps = rng.nextDouble(50.0, 500.0);
    }
  }
  return traces;
}

/// One batch of `n` rows at `corner` through predictDelayBatch (the
/// bit path from kBitPathMinRows rows on), memcmp'd row by row against
/// predictDelay and against FlatForest::predictBatch on the encoded
/// rows.
void checkSingleCornerBatch(std::uint64_t seed, const char* what,
                            const core::TevotModel& model,
                            const liberty::Corner& corner, std::size_t n,
                            util::Rng& rng) {
  std::vector<core::DelayQuery> queries(n);
  const std::size_t cols = model.encoder().featureCount();
  std::vector<float> rows(n * cols);
  for (std::size_t i = 0; i < n; ++i) {
    queries[i] = {rng.nextU32(), rng.nextU32(), rng.nextU32(),
                  rng.nextU32(), corner};
    const core::DelayQuery& q = queries[i];
    model.encoder().encode(q.a, q.b, q.prev_a, q.prev_b, corner,
                           std::span<float>(rows.data() + i * cols, cols));
  }
  std::vector<double> batch_out(n);
  std::vector<double> flat_out(n);
  model.predictDelayBatch(queries, batch_out);
  model.flatForest().predictBatch(rows.data(), n, cols, flat_out.data());
  for (std::size_t i = 0; i < n; ++i) {
    const core::DelayQuery& q = queries[i];
    const double scalar =
        model.predictDelay(q.a, q.b, q.prev_a, q.prev_b, corner);
    const bool flat_ok =
        std::memcmp(&flat_out[i], &scalar, sizeof(double)) == 0;
    if (!flat_ok ||
        std::memcmp(&batch_out[i], &scalar, sizeof(double)) != 0) {
      std::ostringstream msg;
      msg << "flat-bit-identity seed " << seed << " " << what << " "
          << n << "-row batch at (" << corner.voltage << " V, "
          << corner.temperature << " C) row " << i
          << ": predictDelayBatch " << batch_out[i]
          << ", FlatForest::predictBatch " << flat_out[i]
          << ", predictDelay " << scalar;
      fail(msg);
    }
  }
}

/// Single-corner batches on both sides of the bit path's row
/// threshold: at a random grid corner, and at a corner sitting exactly
/// on one of the forest's V or T thresholds (the tie goes left).
void checkSingleCornerBatches(std::uint64_t seed, const char* what,
                              const core::TevotModel& model,
                              util::Rng& rng) {
  const core::OperatingGrid grid = core::OperatingGrid::paper();
  const liberty::Corner random_corner = {
      rng.nextDouble(grid.v_start, grid.v_end),
      rng.nextDouble(grid.t_start, grid.t_end)};
  liberty::Corner tie_corner = random_corner;
  const auto n_bits =
      static_cast<std::int32_t>(model.encoder().featureCount() - 2);
  std::vector<ml::FlatForest::Node> real_splits;
  for (const ml::FlatForest::Node& node : model.flatForest().nodes()) {
    if (node.feature >= n_bits) real_splits.push_back(node);
  }
  if (!real_splits.empty()) {
    const ml::FlatForest::Node& split =
        real_splits[rng.nextBelow(real_splits.size())];
    (split.feature == n_bits ? tie_corner.voltage
                             : tie_corner.temperature) = split.threshold;
  }
  const std::size_t min_rows = core::TevotModel::kBitPathMinRows;
  for (const liberty::Corner& corner : {random_corner, tie_corner}) {
    checkSingleCornerBatch(seed, what, model, corner, min_rows - 1, rng);
    checkSingleCornerBatch(seed, what, model, corner, min_rows, rng);
    checkSingleCornerBatch(seed, what, model, corner,
                           min_rows + rng.nextBelow(2 * min_rows), rng);
  }
}

/// Appends a random subtree to `nodes` and returns its root index.
/// Splits read any feature; bit thresholds are drawn so that some
/// splits are always-left (>= 1), always-right (< 0) or real (0 <=
/// threshold < 1), and V/T thresholds span the grid.
std::int32_t growHandBuiltTree(util::Rng& rng, std::size_t n_bits,
                               int depth,
                               std::vector<ml::DecisionTree::Node>& nodes) {
  const auto at = static_cast<std::int32_t>(nodes.size());
  nodes.emplace_back();
  if (depth == 0 || rng.nextBool(0.2)) {
    nodes[static_cast<std::size_t>(at)].value =
        static_cast<float>(rng.nextDouble(50.0, 500.0));
    return at;
  }
  static constexpr float kBitThresholds[] = {-2.0f, -0.5f, -1e-6f, 0.0f,
                                             0.5f,  1.0f,  1.5f,   4.0f};
  const std::size_t feature = rng.nextBelow(n_bits + 2);
  float threshold = 0.0f;
  if (feature < n_bits) {
    threshold = kBitThresholds[rng.nextBelow(std::size(kBitThresholds))];
  } else {
    const core::OperatingGrid grid = core::OperatingGrid::paper();
    threshold = static_cast<float>(
        feature == n_bits ? rng.nextDouble(grid.v_start, grid.v_end)
                          : rng.nextDouble(grid.t_start, grid.t_end));
  }
  const std::int32_t left = growHandBuiltTree(rng, n_bits, depth - 1, nodes);
  const std::int32_t right = growHandBuiltTree(rng, n_bits, depth - 1, nodes);
  ml::DecisionTree::Node& node = nodes[static_cast<std::size_t>(at)];
  node.feature = static_cast<std::int32_t>(feature);
  node.threshold = threshold;
  node.left = left;
  node.right = right;
  return at;
}

/// Hand-built forests loaded as a TevotModel (through the saved-model
/// format, the only way in), then single-corner batches as above.
void checkHandBuiltModel(std::uint64_t seed, util::Rng& rng) {
  const bool history = rng.nextBool();
  const std::size_t n_bits = history ? 128 : 64;
  std::vector<ml::DecisionTree> trees(
      static_cast<std::size_t>(rng.nextInRange(1, 5)));
  for (ml::DecisionTree& tree : trees) {
    std::vector<ml::DecisionTree::Node> nodes;
    growHandBuiltTree(rng, n_bits, static_cast<int>(rng.nextInRange(1, 7)),
                      nodes);
    tree.setNodes(std::move(nodes));
  }
  ml::RandomForestRegressor forest;
  forest.setTrees(std::move(trees));
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("tevot_flat_oracle." + std::to_string(::getpid()) + "." +
        std::to_string(seed) + ".model"))
          .string();
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << "tevot-model v1 history " << (history ? 1 : 0) << "\n";
    ml::saveForest(os, forest);
  }
  const core::TevotModel model = core::TevotModel::load(path);
  std::remove(path.c_str());
  checkSingleCornerBatches(seed, history ? "hand-built" : "hand-built NH",
                           model, rng);
}

/// Model-level: predictDelayBatch vs predictDelay over random
/// operand/corner batches spanning the Liberty grid envelope, then
/// single-corner batches for the bit path.
void checkModelLevel(std::uint64_t seed, util::Rng& rng, int batches) {
  core::TevotConfig config;
  config.include_history = rng.nextBool();
  config.forest.n_trees = 4;
  config.forest.tree.max_depth = 6;
  core::TevotModel model(config);
  const std::vector<dta::DtaTrace> traces = randomTraces(rng);
  util::Rng train_rng = rng.fork();
  model.train(traces, train_rng);
  checkSingleCornerBatches(
      seed, config.include_history ? "trained" : "trained NH", model, rng);

  const core::OperatingGrid grid = core::OperatingGrid::paper();
  for (int batch = 0; batch < batches; ++batch) {
    const std::size_t n = static_cast<std::size_t>(rng.nextInRange(1, 32));
    std::vector<core::DelayQuery> queries(n);
    for (core::DelayQuery& query : queries) {
      query.a = rng.nextU32();
      query.b = rng.nextU32();
      query.prev_a = rng.nextU32();
      query.prev_b = rng.nextU32();
      query.corner = {rng.nextDouble(grid.v_start, grid.v_end),
                      rng.nextDouble(grid.t_start, grid.t_end)};
    }
    std::vector<double> batch_out(n, 0.0);
    model.predictDelayBatch(queries, batch_out);
    for (std::size_t i = 0; i < n; ++i) {
      const core::DelayQuery& query = queries[i];
      const double scalar = model.predictDelay(
          query.a, query.b, query.prev_a, query.prev_b, query.corner);
      if (std::memcmp(&batch_out[i], &scalar, sizeof(double)) != 0) {
        std::ostringstream msg;
        msg << "flat-bit-identity seed " << seed << " model batch "
            << batch << " query " << i << ": predictDelayBatch "
            << batch_out[i] << " != predictDelay " << scalar;
        fail(msg);
      }
    }
  }
}

}  // namespace

void checkFlatForestBitIdentity(std::uint64_t seed, util::Rng& rng) {
  static_assert(kBatchesPerSeed % 2 == 0,
                "batches split evenly between the two levels");
  checkForestLevel(seed, rng, kBatchesPerSeed / 2);
  checkModelLevel(seed, rng, kBatchesPerSeed / 2);
  checkHandBuiltModel(seed, rng);
}

}  // namespace tevot::check
