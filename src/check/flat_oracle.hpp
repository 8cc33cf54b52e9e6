// Flat-forest bit-identity oracle.
//
// Contract being checked (the tentpole invariant of the batched
// inference engine): for ANY fitted forest and ANY batch of rows,
//
//   1. ml::FlatForest::predict(row) is bit-identical (float memcmp)
//      to ml::RandomForestRegressor::predict(row), and
//   2. ml::FlatForest::predictBatch out[i] is bit-identical (double
//      memcmp) to double(RandomForestRegressor::predict(row_i)) —
//      i.e. the batch kernel replicates the scalar walk's exact
//      accumulation order (per-tree double sum, float narrowing,
//      double widening), and
//   3. core::TevotModel::predictDelayBatch matches predictDelay
//      element-for-element over random operand/corner batches across
//      the full Liberty grid envelope, and
//   4. on single-corner batches just under, at and over
//      TevotModel::kBitPathMinRows rows — so both batch paths run —
//      predictDelayBatch and FlatForest::predictBatch both match
//      predictDelay. The corners are a random one and one sitting
//      exactly on a V or T threshold of the forest; the models are a
//      trained one and a hand-built one whose bit splits have
//      thresholds below 0, in [0, 1) and at or above 1, each with or
//      without history (TEVoT-NH) at random.
//
// The property draws everything (forest shape, rows, operands,
// corners, batch sizes) from its Rng, so any divergence reproduces
// from `tevot_cli check 1 --seed N`. Each seed exercises
// kBatchesPerSeed independent mixed-corner batches plus 12
// single-corner ones; CI's 200-seed run therefore covers
// 200 * kBatchesPerSeed >= 1000 batches of the first kind.
#pragma once

#include <cstdint>

#include "util/rng.hpp"

namespace tevot::check {

/// Independent batches (forest-level + model-level) per seed.
inline constexpr int kBatchesPerSeed = 8;

/// Property for check::forAllSeeds; throws PropertyViolation on any
/// flat-vs-scalar divergence.
void checkFlatForestBitIdentity(std::uint64_t seed, util::Rng& rng);

}  // namespace tevot::check
