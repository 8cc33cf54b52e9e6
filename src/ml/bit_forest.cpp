#include "ml/bit_forest.hpp"

#include <stdexcept>
#include <type_traits>

namespace tevot::ml {

BitForest BitForest::compile(const FlatForest& flat, std::size_t n_bits,
                             std::span<const float> fixed) {
  if (!flat.compiled()) {
    throw std::invalid_argument("BitForest::compile: flat forest not compiled");
  }
  if (n_bits > kMaxBits) {
    throw std::invalid_argument("BitForest::compile: more than 128 bits");
  }
  const std::span<const FlatForest::Node> nodes = flat.nodes();
  const std::span<const float> values = flat.leafValues();
  const std::size_t n_features = n_bits + fixed.size();

  // Follows every constant split from `at` down to the first node whose
  // outcome depends on the row: a leaf or a split that reads a bit.
  // The comparison is the scalar walk's, x <= threshold goes left; a
  // bit split is constant unless 0 goes left and 1 goes right.
  const auto settle = [&](std::int32_t at) {
    for (;;) {
      const FlatForest::Node& node = nodes[static_cast<std::size_t>(at)];
      if (node.feature < 0) return at;
      const auto f = static_cast<std::size_t>(node.feature);
      if (f >= n_features) {
        throw std::invalid_argument(
            "BitForest::compile: split reads a feature past the row");
      }
      bool left = false;
      if (f >= n_bits) {
        left = fixed[f - n_bits] <= node.threshold;
      } else {
        left = 0.0f <= node.threshold;
        if (left && !(1.0f <= node.threshold)) return at;
      }
      at = left ? node.left : node.left + 1;
    }
  };

  BitForest bits;
  bits.roots_.reserve(flat.treeCount());
  bits.depths_.reserve(flat.treeCount());
  for (const std::int32_t root : flat.roots()) {
    const auto base = static_cast<std::int32_t>(bits.nodes_.size());
    bits.roots_.push_back(base);
    // BFS re-layout with sibling adjacency, as FlatForest::compile
    // does: `order[k]` is the flat node behind slot k, and a live
    // split's two settled children take the next two free slots.
    std::vector<std::int32_t> order{settle(root)};
    std::vector<int> depth_at{0};
    int depth = 0;
    for (std::size_t k = 0; k < order.size(); ++k) {
      const auto source = static_cast<std::size_t>(order[k]);
      const FlatForest::Node& node = nodes[source];
      Node packed;
      if (node.feature < 0) {
        packed.left = base + static_cast<std::int32_t>(k);
        bits.value_.push_back(values[source]);
      } else {
        packed.left = base + static_cast<std::int32_t>(order.size());
        packed.bit = static_cast<std::uint32_t>(node.feature);
        bits.value_.push_back(0.0f);
        const int child_depth = depth_at[k] + 1;
        if (child_depth > depth) depth = child_depth;
        order.push_back(settle(node.left));
        order.push_back(settle(node.left + 1));
        depth_at.push_back(child_depth);
        depth_at.push_back(child_depth);
      }
      bits.nodes_.push_back(packed);
    }
    bits.depths_.push_back(depth);
    if (depth > bits.max_depth_) bits.max_depth_ = depth;
  }
  return bits;
}

void BitForest::predictBlock(const Block& block, std::size_t count,
                             double* out) const {
  if (roots_.empty()) {
    throw std::logic_error("BitForest::predictBatch: not compiled");
  }
  // Per-row double accumulators, summed in tree order like the
  // scalar walk.
  double acc[kBlock] = {};
  std::int32_t idx[kBlock];
  const Node* nodes = nodes_.data();
  const float* value = value_.data();

  // Lock-step descent, as in FlatForest::predictBatch: one edge per row
  // per step, the bit landing in an index increment, settled rows
  // self-looping on the padding bit, and an early exit once no row
  // moved. Full blocks take the constant-width instantiation.
  const auto descend = [&]<std::size_t kWidth>(
                           std::integral_constant<std::size_t, kWidth>,
                           std::int32_t root, int depth) {
    const std::size_t width = kWidth != 0 ? kWidth : count;
    for (std::size_t j = 0; j < width; ++j) idx[j] = root;
    for (int step = 0; step < depth; ++step) {
      std::int32_t moved = 0;
      for (std::size_t j = 0; j < width; ++j) {
        const std::int32_t at = idx[j];
        const Node node = nodes[at];
        const std::uint32_t word = block[j][node.bit >> 5];
        const auto bit =
            static_cast<std::int32_t>((word >> (node.bit & 31)) & 1u);
        const std::int32_t next = node.left + bit;
        moved |= next ^ at;
        idx[j] = next;
      }
      if (moved == 0) break;
    }
    for (std::size_t j = 0; j < width; ++j) acc[j] += value[idx[j]];
  };

  for (std::size_t t = 0; t < roots_.size(); ++t) {
    if (count == kBlock) {
      descend(std::integral_constant<std::size_t, kBlock>{}, roots_[t],
              depths_[t]);
    } else {
      descend(std::integral_constant<std::size_t, 0>{}, roots_[t],
              depths_[t]);
    }
  }
  const double trees = static_cast<double>(roots_.size());
  for (std::size_t j = 0; j < count; ++j) {
    out[j] = static_cast<double>(static_cast<float>(acc[j] / trees));
  }
}

}  // namespace tevot::ml
