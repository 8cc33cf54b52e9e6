// CART decision trees (classification and regression).
//
// Greedy recursive binary splitting: Gini impurity for (binary)
// classification, variance reduction for regression. Columns that are
// 0 or 1 on every row of the dataset — TEVoT's 128 operand bits — are
// packed 64 to a word per row once per fit, and each node scores all of
// them together from its rows (DESIGN.md §5k); the other columns are
// checked per node for 0/1 values (an O(n) scan) and otherwise use the
// classic sort-and-scan over midpoints between distinct values.
// fitReference() scores every column on its own, the search fit()
// replaced; the two grow bit-identical trees.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "util/rng.hpp"

namespace tevot::ml {

enum class TreeTask { kClassification, kRegression };

struct TreeParams {
  int max_depth = -1;          ///< -1 = unlimited
  int min_samples_split = 2;   ///< do not split smaller nodes
  int min_samples_leaf = 1;    ///< reject splits creating smaller leaves
  int max_features = -1;       ///< -1 = consider all features per split
                               ///< (the sklearn default the paper uses)
};

class DecisionTree {
 public:
  /// Fits on the rows of `data` selected by `indices` (all rows when
  /// empty). `rng` drives feature subsampling when max_features >= 0.
  void fit(const Dataset& data, TreeTask task, const TreeParams& params,
           util::Rng& rng, std::span<const std::size_t> indices = {});

  /// fit() with the per-feature split search: one strided pass per
  /// column per node. The reference check::checkForestFitBitIdentity
  /// and the tests compare fit() against; nodes, thresholds, leaf
  /// values and importances come out bit-identical.
  void fitReference(const Dataset& data, TreeTask task,
                    const TreeParams& params, util::Rng& rng,
                    std::span<const std::size_t> indices = {});

  /// Predicted class (0/1) or regression value for one feature row.
  float predict(std::span<const float> features) const;

  /// Impurity-decrease feature importance (sklearn-style): for each
  /// feature, the total weighted impurity reduction of the splits
  /// using it, normalized to sum to 1 (all zeros for a single-leaf
  /// tree). Computed during fit(); empty for a deserialized tree.
  /// `n_features` sizes the result for features the tree never used.
  std::vector<double> featureImportance(std::size_t n_features) const;

  bool fitted() const { return !nodes_.empty(); }
  std::size_t nodeCount() const { return nodes_.size(); }
  int depth() const;

  /// Serialization hooks (see serialize.hpp for the file format).
  struct Node {
    std::int32_t feature = -1;  ///< -1 marks a leaf
    float threshold = 0.0f;     ///< go left when x[feature] <= threshold
    std::int32_t left = -1;
    std::int32_t right = -1;
    float value = 0.0f;         ///< leaf prediction
  };
  std::span<const Node> nodes() const { return nodes_; }
  void setNodes(std::vector<Node> nodes) { nodes_ = std::move(nodes); }

 private:
  void grow(const Dataset& data, TreeTask task, const TreeParams& params,
            util::Rng& rng, std::span<const std::size_t> indices,
            bool pack_binary_columns);

  std::vector<Node> nodes_;
  /// Raw (unnormalized) impurity decrease per feature, from fit().
  std::vector<double> importance_raw_;
};

}  // namespace tevot::ml
