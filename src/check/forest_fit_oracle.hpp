// Packed vs per-feature split search: the forest-fit differential
// oracle.
//
// Contract being checked: ml::DecisionTree::fit (0/1 columns packed
// into 64-bit words, scored together in one sweep per node) grows
// exactly the tree ml::DecisionTree::fitReference (every column
// scanned on its own) grows from the same rows and Rng. Every node's
// feature, children, threshold and leaf value match bit for bit, so
// do the featureImportance() bits, and both fits draw the same number
// of values from the Rng. At forest level, a RandomForestRegressor or
// RandomForestClassifier fitted on a thread pool matches
// ml::fitReferenceTrees grown serially, tree for tree.
//
// The seeded datasets mix all-binary and binary-plus-real columns,
// {0,1,2} columns that are 0/1 only at some nodes, -0.0f entries, NaN
// in a real column, NaN and infinite regression labels, constant
// columns, classification and regression, max_features subsampling,
// min_samples_leaf > 1, max_depth, and bootstrap indices with
// duplicates; up to 140 columns, so the packed rows span three words.
//
// checkForestFitOnTevotRows runs the same comparison on the feature
// layout TevotModel trains on: exactly two packed words per row.
//
// The properties draw everything from its Rng, so a divergence
// reproduces from `tevot_cli check 1 --seed N`.
#pragma once

#include <cstdint>
#include <string>

#include "ml/decision_tree.hpp"
#include "util/rng.hpp"

namespace tevot::check {

/// Throws PropertyViolation naming `label` and the first difference
/// when the two trees differ in any node bit or importance bit.
void expectSameTree(const ml::DecisionTree& fast,
                    const ml::DecisionTree& reference,
                    std::size_t n_features, const std::string& label);

/// One random dataset: single trees (fit vs fitReference) under random
/// TreeParams and indices, then a pooled forest vs the serial
/// reference forest.
void checkForestFitBitIdentity(std::uint64_t seed, util::Rng& rng);

/// TEVoT-shaped rows: V and T on a Table I-like grid plus 128 operand
/// bits (a, b, and their XOR with the previous operands) with a
/// delay-like label, fitted as TevotModel fits them (default
/// ForestParams, bootstrap, all features) on a thread pool and
/// compared with the serial reference trees.
void checkForestFitOnTevotRows(std::uint64_t seed, util::Rng& rng);

}  // namespace tevot::check
