#include "ml/decision_tree.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>

namespace tevot::ml {
namespace {

/// Node-impurity bookkeeping shared by both tasks. For classification
/// (binary labels) `sum` counts positives and the score is the Gini
/// impurity times count; for regression the score is the sum of
/// squared deviations (both are "total impurity" measures that a
/// split should minimize, summed over children).
struct LabelStats {
  double count = 0.0;
  double sum = 0.0;
  double sumsq = 0.0;

  void add(float y) {
    count += 1.0;
    sum += y;
    sumsq += static_cast<double>(y) * y;
  }
  void remove(float y) {
    count -= 1.0;
    sum -= y;
    sumsq -= static_cast<double>(y) * y;
  }

  double impurity(TreeTask task) const {
    // Branch-free, so the packed columns' scoring loop vectorizes:
    // counts are whole numbers, so `divisor` is `count` wherever the
    // value is used.
    const double divisor = count > 0.0 ? count : 1.0;
    double value;
    if (task == TreeTask::kClassification) {
      const double p = sum / divisor;
      value = count * 2.0 * p * (1.0 - p);  // count * Gini (binary)
    } else {
      value = sumsq - sum * sum / divisor;  // total squared deviation
    }
    return count > 0.0 ? value : 0.0;
  }

  float leafValue(TreeTask task) const {
    if (count <= 0.0) return 0.0f;
    const double mean = sum / count;
    if (task == TreeTask::kClassification) {
      return mean >= 0.5 ? 1.0f : 0.0f;
    }
    return static_cast<float>(mean);
  }
};

struct BestSplit {
  int feature = -1;
  float threshold = 0.0f;
  double score = std::numeric_limits<double>::infinity();
};

/// The per-feature search over one column at one node: a 0/1 check
/// that doubles as the binary split's accumulation, else sort-and-scan
/// over midpoints between distinct values. Updates `best` on a
/// strictly lower score.
void scanFeature(const Dataset& data, TreeTask task,
                 std::span<const std::size_t> rows, int feature,
                 const LabelStats& node_stats, double min_leaf,
                 std::vector<std::pair<float, float>>& scratch,
                 BestSplit& best) {
  const auto fcol = static_cast<std::size_t>(feature);

  // Fast path: binary feature column.
  bool is_binary = true;
  LabelStats left, right;
  for (const std::size_t row : rows) {
    const float v = data.x.at(row, fcol);
    if (v == 0.0f) {
      left.add(data.y[row]);
    } else if (v == 1.0f) {
      right.add(data.y[row]);
    } else {
      is_binary = false;
      break;
    }
  }
  if (is_binary) {
    if (left.count < min_leaf || right.count < min_leaf) return;
    const double score = left.impurity(task) + right.impurity(task);
    if (score < best.score) best = BestSplit{feature, 0.5f, score};
    return;
  }

  // General path: sort and scan between distinct values.
  scratch.clear();
  scratch.reserve(rows.size());
  for (const std::size_t row : rows) {
    scratch.emplace_back(data.x.at(row, fcol), data.y[row]);
  }
  std::sort(scratch.begin(), scratch.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  LabelStats lo;
  LabelStats hi = node_stats;
  for (std::size_t i = 0; i + 1 < scratch.size(); ++i) {
    lo.add(scratch[i].second);
    hi.remove(scratch[i].second);
    if (scratch[i].first == scratch[i + 1].first) continue;
    if (lo.count < min_leaf || hi.count < min_leaf) continue;
    const double score = lo.impurity(task) + hi.impurity(task);
    if (score < best.score) {
      best.feature = feature;
      best.threshold = 0.5f * (scratch[i].first + scratch[i + 1].first);
      best.score = score;
    }
  }
}

/// Two 64-bit lanes, the SSE2 width every x86-64 build has (GCC and
/// Clang vector extensions). A group of four packed columns is two of
/// them, so each group's sums stay in registers.
using Lanes = std::uint64_t __attribute__((vector_size(16)));
using Sums = double __attribute__((vector_size(16)));

/// kNibbleMasks[n][h] holds columns 2h and 2h+1 of a group: all ones
/// in the lane whose bit of n is set.
constexpr auto kNibbleMasks = [] {
  const auto lane = [](std::size_t n, unsigned j) {
    return ((n >> j) & 1U) != 0 ? ~std::uint64_t{0} : 0;
  };
  std::array<std::array<Lanes, 2>, 16> masks{};
  for (std::size_t n = 0; n < 16; ++n) {
    masks[n][0] = Lanes{lane(n, 0), lane(n, 1)};
    masks[n][1] = Lanes{lane(n, 2), lane(n, 3)};
  }
  return masks;
}();

/// The dataset's columns that are 0 or 1 on every row (-0.0f counts
/// as 0), bit-packed 64 to a word per row, and the split scores of all
/// of them at one node. The node's sweep adds each row's label to the
/// 0 (left) or 1 (right) side of every packed column in the node's
/// row order, so each side's sums see the same operands in the same
/// order as LabelStats::add in the per-feature search (DESIGN.md §5k).
class PackedColumns {
 public:
  explicit PackedColumns(const Matrix& x) : slot_(x.cols(), -1) {
    std::vector<std::uint8_t> binary(x.cols(), 1);
    for (std::size_t row = 0; row < x.rows(); ++row) {
      const std::span<const float> values = x.row(row);
      for (std::size_t f = 0; f < values.size(); ++f) {
        binary[f] &= static_cast<std::uint8_t>((values[f] == 0.0f) |
                                               (values[f] == 1.0f));
      }
    }
    std::vector<std::size_t> features;
    for (std::size_t f = 0; f < x.cols(); ++f) {
      if (binary[f] == 0) continue;
      slot_[f] = static_cast<int>(features.size());
      features.push_back(f);
    }
    words_ = (features.size() + 63) / 64;
    // Groups of four columns are the sweep's unit; a group never
    // straddles a word.
    const std::size_t padded = (features.size() + 3) / 4 * 4;
    bits_.resize(x.rows() * words_);
    for (std::size_t row = 0; row < x.rows(); ++row) {
      const std::span<const float> values = x.row(row);
      for (std::size_t w = 0; w < words_; ++w) {
        const std::size_t end = std::min(features.size(), 64 * w + 64);
        std::uint64_t word = 0;
        for (std::size_t k = 64 * w; k < end; ++k) {
          word |= std::uint64_t{values[features[k]] == 1.0f} << (k % 64);
        }
        bits_[row * words_ + w] = word;
      }
    }
    count1_.resize(padded);
    for (int side = 0; side < 2; ++side) {
      sum_[side].resize(padded);
      sumsq_[side].resize(padded);
    }
    scores_.resize(padded);
  }

  bool empty() const { return scores_.empty(); }

  /// Packed slot of `feature`, or -1 when it is not packed.
  int slot(int feature) const {
    return slot_[static_cast<std::size_t>(feature)];
  }

  /// Scores every packed column's split of the node holding `rows`:
  /// the left + right impurity the per-feature search computes, or
  /// +inf (never a best score) where a side has fewer than `min_leaf`
  /// rows, which that search skips.
  void scoreNode(std::span<const std::size_t> rows, std::span<const float> y,
                 TreeTask task, double min_leaf) {
    n_ = rows.size();
    node_bits_.resize(n_ * words_);
    label_bits_.resize(n_);
    square_bits_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      const std::size_t row = rows[i];
      for (std::size_t w = 0; w < words_; ++w) {
        node_bits_[i * words_ + w] = bits_[row * words_ + w];
      }
      const double label = y[row];
      label_bits_[i] = Lanes{} + std::bit_cast<std::uint64_t>(label);
      square_bits_[i] = Lanes{} + std::bit_cast<std::uint64_t>(label * label);
    }
    if (task == TreeTask::kRegression) {
      sweep<true>();
      scoreAll<TreeTask::kRegression>(min_leaf);
    } else {
      sweep<false>();
      scoreAll<TreeTask::kClassification>(min_leaf);
    }
  }

  /// Packed column `slot`'s score at the node last scored.
  double score(int slot) const {
    return scores_[static_cast<std::size_t>(slot)];
  }

 private:
  /// One sweep of the node's rows per group of four columns, the
  /// group's sums held in registers. A row's label goes to the 1 side
  /// through an all-ones mask and to the 0 side through its
  /// complement, so the other side adds +0.0, which leaves every sum
  /// bit-identical (a sum that starts at +0.0 is never -0.0). A
  /// multiply by 0/1 would carry a NaN or infinite label to both
  /// sides. Sums of squares are kept for regression only.
  template <bool kWithSumsq>
  void sweep() {
    for (std::size_t g = 0; g < scores_.size() / 4; ++g) {
      const std::size_t word = g / 16;
      const unsigned shift = static_cast<unsigned>(g % 16) * 4;
      // Columns 0-1 (lo) and 2-3 (hi) of the group, 0 and 1 sides.
      Sums sum0_lo{}, sum1_lo{}, sum0_hi{}, sum1_hi{};
      Sums sq0_lo{}, sq1_lo{}, sq0_hi{}, sq1_hi{};
      Lanes count1_lo{}, count1_hi{};
      for (std::size_t i = 0; i < n_; ++i) {
        const auto& mask =
            kNibbleMasks[(node_bits_[i * words_ + word] >> shift) & 15];
        const Lanes label = label_bits_[i];
        addMasked(label, mask[0], sum0_lo, sum1_lo);
        addMasked(label, mask[1], sum0_hi, sum1_hi);
        count1_lo -= mask[0];  // all ones is -1
        count1_hi -= mask[1];
        if constexpr (kWithSumsq) {
          const Lanes square = square_bits_[i];
          addMasked(square, mask[0], sq0_lo, sq1_lo);
          addMasked(square, mask[1], sq0_hi, sq1_hi);
        }
      }
      store(g * 4, count1_lo, sum0_lo, sum1_lo, sq0_lo, sq1_lo);
      store(g * 4 + 2, count1_hi, sum0_hi, sum1_hi, sq0_hi, sq1_hi);
    }
  }

  /// Adds `value` to `one` in the lanes where `mask` is all ones and
  /// to `zero` in the others.
  static void addMasked(Lanes value, Lanes mask, Sums& zero, Sums& one) {
    const Lanes to_one = value & mask;
    one += (Sums)to_one;
    zero += (Sums)(value ^ to_one);
  }

  /// Columns k and k + 1 from one pair of lanes.
  void store(std::size_t k, Lanes count1, Sums sum0, Sums sum1, Sums sq0,
             Sums sq1) {
    for (std::size_t lane = 0; lane < 2; ++lane) {
      count1_[k + lane] = static_cast<double>(count1[lane]);
      sum_[0][k + lane] = sum0[lane];
      sum_[1][k + lane] = sum1[lane];
      sumsq_[0][k + lane] = sq0[lane];
      sumsq_[1][k + lane] = sq1[lane];
    }
  }

  /// A 0 side's count is n minus the 1 side's, exact for whole
  /// numbers; its sums were accumulated, never derived by subtraction.
  template <TreeTask kTask>
  void scoreAll(double min_leaf) {
    const auto n = static_cast<double>(n_);
    for (std::size_t k = 0; k < scores_.size(); ++k) {
      const LabelStats one{count1_[k], sum_[1][k], sumsq_[1][k]};
      const LabelStats zero{n - one.count, sum_[0][k], sumsq_[0][k]};
      const double score = zero.impurity(kTask) + one.impurity(kTask);
      scores_[k] = zero.count < min_leaf || one.count < min_leaf
                       ? std::numeric_limits<double>::infinity()
                       : score;
    }
  }

  std::vector<int> slot_;  ///< per feature; -1 = not packed
  std::size_t words_ = 0;  ///< 64-bit words per row
  std::vector<std::uint64_t> bits_;  ///< x.rows() * words_

  // The node last scored: its rows' words, labels and squared labels
  // (as double bits) in row order, then per packed column (padded to
  // whole groups) the 1 side's count, both sides' sums and the score.
  std::size_t n_ = 0;
  std::vector<std::uint64_t> node_bits_;
  std::vector<Lanes> label_bits_, square_bits_;  ///< in both lanes
  std::vector<double> count1_, sum_[2], sumsq_[2], scores_;
};

}  // namespace

void DecisionTree::fit(const Dataset& data, TreeTask task,
                       const TreeParams& params, util::Rng& rng,
                       std::span<const std::size_t> indices) {
  grow(data, task, params, rng, indices, true);
}

void DecisionTree::fitReference(const Dataset& data, TreeTask task,
                                const TreeParams& params, util::Rng& rng,
                                std::span<const std::size_t> indices) {
  grow(data, task, params, rng, indices, false);
}

void DecisionTree::grow(const Dataset& data, TreeTask task,
                        const TreeParams& params, util::Rng& rng,
                        std::span<const std::size_t> indices,
                        bool pack_binary_columns) {
  if (data.size() == 0) {
    throw std::invalid_argument("DecisionTree::fit: empty dataset");
  }
  if (task == TreeTask::kClassification) {
    for (const float label : data.y) {
      if (label != 0.0f && label != 1.0f) {
        throw std::invalid_argument(
            "DecisionTree::fit: classification labels must be 0/1");
      }
    }
  }
  std::vector<std::size_t> all;
  if (indices.empty()) {
    all.resize(data.size());
    std::iota(all.begin(), all.end(), 0);
    indices = all;
  }
  nodes_.clear();
  importance_raw_.assign(data.features(), 0.0);

  const std::size_t n_features = data.features();
  std::vector<int> feature_pool(n_features);
  std::iota(feature_pool.begin(), feature_pool.end(), 0);

  std::optional<PackedColumns> packed;
  if (pack_binary_columns) {
    packed.emplace(data.x);
    if (packed->empty()) packed.reset();
  }

  // Work stack of (node slot, index range into `working`, depth).
  std::vector<std::size_t> working(indices.begin(), indices.end());
  struct WorkItem {
    std::int32_t node;
    std::size_t begin;
    std::size_t end;
    int depth;
  };
  std::vector<WorkItem> stack;
  nodes_.emplace_back();
  stack.push_back({0, 0, working.size(), 0});

  std::vector<std::pair<float, float>> scratch;  // (feature value, label)

  while (!stack.empty()) {
    const WorkItem item = stack.back();
    stack.pop_back();
    const std::size_t n = item.end - item.begin;
    const std::span<std::size_t> rows{working.data() + item.begin, n};

    LabelStats node_stats;
    for (const std::size_t row : rows) node_stats.add(data.y[row]);
    const double node_impurity = node_stats.impurity(task);

    Node& node = nodes_[static_cast<std::size_t>(item.node)];
    node.value = node_stats.leafValue(task);

    const bool depth_ok =
        params.max_depth < 0 || item.depth < params.max_depth;
    if (!depth_ok || n < static_cast<std::size_t>(params.min_samples_split) ||
        node_impurity <= 1e-12) {
      continue;  // leaf
    }

    // Candidate features: all, or a random subset per split.
    int n_candidates = static_cast<int>(n_features);
    if (params.max_features >= 0 &&
        params.max_features < n_candidates) {
      // Partial Fisher-Yates for the first max_features entries.
      for (int i = 0; i < params.max_features; ++i) {
        const auto j = static_cast<std::size_t>(
            rng.nextInRange(i, static_cast<int>(n_features) - 1));
        std::swap(feature_pool[static_cast<std::size_t>(i)],
                  feature_pool[j]);
      }
      n_candidates = params.max_features;
    }

    BestSplit best;
    const auto min_leaf = static_cast<double>(params.min_samples_leaf);
    if (packed) packed->scoreNode(rows, data.y, task, min_leaf);
    for (int c = 0; c < n_candidates; ++c) {
      const int feature = feature_pool[static_cast<std::size_t>(c)];
      const int slot = packed ? packed->slot(feature) : -1;
      if (slot < 0) {
        scanFeature(data, task, rows, feature, node_stats, min_leaf, scratch,
                    best);
      } else if (packed->score(slot) < best.score) {
        best = BestSplit{feature, 0.5f, packed->score(slot)};
      }
    }

    // Accept the best split even at zero impurity gain (as sklearn's
    // CART does): XOR-like interactions only pay off one level down,
    // so requiring strictly positive gain would leave them
    // unlearnable. Termination is still guaranteed because both
    // children are strictly smaller. Only strictly *worse* splits —
    // which the scan cannot produce — are rejected.
    if (best.feature < 0 || best.score > node_impurity + 1e-9) {
      continue;  // no valid split found
    }

    // Partition rows in place.
    const auto fcol = static_cast<std::size_t>(best.feature);
    auto mid_it = std::partition(
        working.begin() + static_cast<std::ptrdiff_t>(item.begin),
        working.begin() + static_cast<std::ptrdiff_t>(item.end),
        [&](std::size_t row) {
          return data.x.at(row, fcol) <= best.threshold;
        });
    const auto mid = static_cast<std::size_t>(
        mid_it - working.begin());
    if (mid == item.begin || mid == item.end) continue;  // degenerate

    importance_raw_[static_cast<std::size_t>(best.feature)] +=
        node_impurity - best.score;

    const auto left_slot = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
    const auto right_slot = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
    Node& parent = nodes_[static_cast<std::size_t>(item.node)];
    parent.feature = best.feature;
    parent.threshold = best.threshold;
    parent.left = left_slot;
    parent.right = right_slot;
    stack.push_back({left_slot, item.begin, mid, item.depth + 1});
    stack.push_back({right_slot, mid, item.end, item.depth + 1});
  }
}

float DecisionTree::predict(std::span<const float> features) const {
  if (nodes_.empty()) {
    throw std::logic_error("DecisionTree::predict: not fitted");
  }
  std::size_t at = 0;
  for (;;) {
    const Node& node = nodes_[at];
    if (node.feature < 0) return node.value;
    const float v = features[static_cast<std::size_t>(node.feature)];
    at = static_cast<std::size_t>(v <= node.threshold ? node.left
                                                      : node.right);
  }
}

std::vector<double> DecisionTree::featureImportance(
    std::size_t n_features) const {
  std::vector<double> importance(n_features, 0.0);
  double total = 0.0;
  for (std::size_t f = 0; f < importance_raw_.size() && f < n_features;
       ++f) {
    importance[f] = importance_raw_[f];
    total += importance_raw_[f];
  }
  if (total > 0.0) {
    for (double& value : importance) value /= total;
  }
  return importance;
}

int DecisionTree::depth() const {
  if (nodes_.empty()) return 0;
  // Nodes are appended parent-first, so a forward scan can compute
  // depths in one pass.
  std::vector<int> depth_of(nodes_.size(), 1);
  int deepest = 1;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    if (node.feature < 0) continue;
    depth_of[static_cast<std::size_t>(node.left)] = depth_of[i] + 1;
    depth_of[static_cast<std::size_t>(node.right)] = depth_of[i] + 1;
    deepest = std::max(deepest, depth_of[i] + 1);
  }
  return deepest;
}

}  // namespace tevot::ml
