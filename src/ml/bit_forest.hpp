// Corner-specialized bit forest: a FlatForest compiled for one fixed
// value of its trailing real-valued features.
//
// TEVoT's feature row is n_bits 0/1 operand bits followed by V and T
// (FeatureEncoder layout). Once V and T are fixed, every V/T split has
// a constant outcome, and so does every bit split whose threshold lies
// outside [0, 1): the two possible values 0 and 1 go the same way.
// compile() resolves all of those with the scalar walk's rule
// (x <= threshold goes left, anything else, NaN included, goes right)
// and keeps only the splits that really read a bit. What remains is a
// forest of a few thousand nodes, smaller and shallower than the
// source, that reads packed operand words instead of encoded floats.
//
// Layout, as in FlatForest:
//  * sibling adjacency: a split's right child sits at left + 1, so a
//    descent step is next = left + bit, with no data-dependent branch;
//  * leaves read kZeroBit, a padding bit that is always 0, and point
//    `left` at themselves, so a settled row self-loops;
//  * leaf values live in a parallel float array.
//
// Rows are the words (a, b, a^prev_a, b^prev_b), bit i of the encoder
// layout being bit (i % 32) of word i / 32. predictBatch packs each
// 16-row block into a stack array on the fly, so there is no encode
// buffer. Bits are exact, so the finite-features precondition of
// FlatForest::predictBatch does not apply here.
//
// Bit-identity contract: for rows whose real features equal the fixed
// values, every row reaches the leaf the scalar walk reaches in every
// tree, and sums the leaf values in double in tree order, so out[i] is
// bit-identical to FlatForest::predictBatch and to
// double(RandomForestRegressor::predict(row)). check::
// checkFlatForestBitIdentity and the ml bit-forest tests enforce it.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "ml/flat_forest.hpp"

namespace tevot::ml {

class BitForest {
 public:
  /// Most bit features a row can carry: four 32-bit words.
  static constexpr std::size_t kMaxBits = 128;

  /// Specializes `flat` to rows whose features [n_bits, n_bits +
  /// fixed.size()) equal `fixed` and whose features [0, n_bits) are
  /// 0 or 1. Throws std::invalid_argument when `flat` is not
  /// compiled, n_bits exceeds kMaxBits, or a split reads a feature at
  /// or past n_bits + fixed.size().
  static BitForest compile(const FlatForest& flat, std::size_t n_bits,
                           std::span<const float> fixed);

  std::size_t treeCount() const { return roots_.size(); }
  std::size_t nodeCount() const { return nodes_.size(); }
  /// Deepest root-to-leaf edge count over all specialized trees.
  int maxDepth() const { return max_depth_; }

  /// out[i] = prediction for rows[i], read from its fields a, b,
  /// prev_a and prev_b (std::uint32_t; core::DelayQuery is one such
  /// type). Bit-identical to FlatForest::predictBatch on the encoded
  /// rows at the fixed corner.
  template <typename Row>
  void predictBatch(std::span<const Row> rows, double* out) const {
    Block block;
    for (std::size_t b = 0; b < rows.size(); b += kBlock) {
      const std::size_t count = std::min(kBlock, rows.size() - b);
      for (std::size_t j = 0; j < count; ++j) {
        const Row& row = rows[b + j];
        block[j] = {row.a, row.b, row.a ^ row.prev_a, row.b ^ row.prev_b,
                    0u};
      }
      predictBlock(block, count, out + b);
    }
  }

 private:
  static constexpr std::size_t kBlock = 16;
  /// The four operand words plus the always-zero padding word.
  using Words = std::array<std::uint32_t, kMaxBits / 32 + 1>;
  using Block = std::array<Words, kBlock>;
  /// Bit index of the padding word's bit 0; what leaves read.
  static constexpr std::uint32_t kZeroBit = kMaxBits;

  struct Node {
    std::int32_t left = 0;  ///< absolute; right child at left + 1
    std::uint32_t bit = kZeroBit;
  };

  /// Lock-step descent of the first `count` rows of `block` through
  /// every tree; writes their predictions to out[0, count).
  void predictBlock(const Block& block, std::size_t count,
                    double* out) const;

  std::vector<Node> nodes_;
  std::vector<float> value_;          ///< leaf value (0 at splits)
  std::vector<std::int32_t> roots_;   ///< root node index per tree
  std::vector<std::int32_t> depths_;  ///< max root-to-leaf edges per tree
  int max_depth_ = 0;
};

}  // namespace tevot::ml
