// The TEVoT model (paper Sec. III-IV).
//
// Rather than learning the timing-error function fe(V,T,tclk,I)
// directly, TEVoT learns the dynamic delay fd(V,T,I) with a random-
// forest regressor over the {V, T, x[t], x[t-1]} features; a
// predicted delay is then compared against *any* clock period, so one
// trained model classifies outputs as {timing correct, timing
// erroneous} across all clock speeds. The paper's Eq. 3 delay matrix
// corresponds to buildDelayDataset().
//
// Inference paths, one answer: predictDelay walks the CART trees (the
// reference). predictDelayBatch takes one of two batch paths:
//  * a batch of at least kBitPathMinRows rows that all sit at one
//    float (V, T) runs an ml::BitForest specialized to that corner,
//    which reads the operand words directly (no encoding). Corner
//    forests are built on first use and kept in a per-model FIFO cache
//    of kCornerCacheSize entries;
//  * any other batch is encoded into 130- (or 66-) float rows and runs
//    the compiled ml::FlatForest. This general path is what verify/
//    analyzes.
// Both are bit-identical to the scalar walk —
// check::checkFlatForestBitIdentity enforces it, and
// validateForServing cross-checks all three engines on its canaries.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "dta/dta.hpp"
#include "ml/bit_forest.hpp"
#include "ml/flat_forest.hpp"
#include "ml/random_forest.hpp"
#include "tevot/features.hpp"
#include "util/fault_injection.hpp"
#include "util/status.hpp"

namespace tevot::core {

struct TevotConfig {
  bool include_history = true;  ///< false => the TEVoT-NH ablation
  ml::ForestParams forest;      ///< default: 10 trees, all features
};

/// Assembles the paper's feature matrix I / delay matrix D (Eq. 3)
/// from characterized traces: one row per cycle, features from the
/// encoder, label D[t] in ps.
ml::Dataset buildDelayDataset(std::span<const dta::DtaTrace> traces,
                              const FeatureEncoder& encoder);

/// Like buildDelayDataset but with a binary timing-error label at the
/// per-trace clock period produced by `clock_of_trace(trace)`; used
/// for the direct-classification comparison (Table II).
ml::Dataset buildErrorDataset(
    std::span<const dta::DtaTrace> traces, const FeatureEncoder& encoder,
    const std::function<double(const dta::DtaTrace&)>& clock_of_trace);

/// One batched-prediction request: the operand transition plus the
/// operating corner it happens at.
struct DelayQuery {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t prev_a = 0;
  std::uint32_t prev_b = 0;
  liberty::Corner corner;
};

class TevotModel {
 public:
  explicit TevotModel(TevotConfig config = {})
      : config_(config), encoder_(config.include_history) {}

  /// Trains the delay regressor on characterized traces (any mix of
  /// corners and workloads). A pool parallelizes per-tree fitting;
  /// the model is bit-identical for any thread count (the forest
  /// splits `rng` into per-tree seeds up front).
  void train(std::span<const dta::DtaTrace> traces, util::Rng& rng,
             util::ThreadPool* pool = nullptr);

  /// Predicted dynamic delay [ps] for one input transition at a
  /// corner. Thread-safe: concurrent callers on one model are fine
  /// (the serving layer fans prediction out across workers). Throws
  /// util::StatusError (kInvalidArgument) on a NaN/inf corner — the
  /// flat engine's finite-features precondition is enforced here, at
  /// the boundary.
  double predictDelay(std::uint32_t a, std::uint32_t b,
                      std::uint32_t prev_a, std::uint32_t prev_b,
                      const liberty::Corner& corner) const;

  /// Smallest single-corner batch that takes the bit path: building a
  /// corner forest costs about as much as the bit path saves on this
  /// many rows.
  static constexpr std::size_t kBitPathMinRows = 128;
  /// Corner forests kept per model; the oldest is evicted first.
  static constexpr std::size_t kCornerCacheSize = 16;

  /// Batched prediction: out[i] receives the delay for queries[i],
  /// bit-identical to predictDelay on the same operands. Batches of at
  /// least kBitPathMinRows rows at one float (V, T) run the corner's
  /// bit forest; the rest run the flat engine (see the file comment).
  /// Thread-safe like predictDelay. Throws std::invalid_argument when
  /// the spans disagree in length and util::StatusError
  /// (kInvalidArgument) on a NaN/inf query corner.
  void predictDelayBatch(std::span<const DelayQuery> queries,
                         std::span<double> out) const;

  /// Timing-error classification: erroneous iff predicted delay
  /// exceeds the clock period.
  bool predictError(std::uint32_t a, std::uint32_t b, std::uint32_t prev_a,
                    std::uint32_t prev_b, const liberty::Corner& corner,
                    double tclk_ps) const {
    return predictDelay(a, b, prev_a, prev_b, corner) > tclk_ps;
  }

  const FeatureEncoder& encoder() const { return encoder_; }
  const TevotConfig& config() const { return config_; }
  bool trained() const { return forest_.fitted(); }
  const ml::RandomForestRegressor& forest() const { return forest_; }
  /// The compiled flat engine (valid whenever trained()).
  const ml::FlatForest& flatForest() const { return flat_; }

  /// Normalized impurity-decrease importance per feature (encoder
  /// layout; see FeatureEncoder::featureName). Empty-importance
  /// (all-zero) for models loaded from disk.
  std::vector<double> featureImportance() const;

  /// Serving-readiness validation, the gate a model hot-reload must
  /// pass before the swap: trained, structurally sound forest (node
  /// indices in range for this encoder's feature count, finite
  /// values), and finite, non-negative canary predictions at the
  /// nominal corner AND the Liberty grid extremes (0.81/1.00 V x
  /// 0/100 C) — a model that goes non-finite at low voltage must be
  /// rejected at reload, not discovered mid-serve. Each canary also
  /// cross-checks the flat engine against the scalar walk bit for
  /// bit, and each canary corner runs one kBitPathMinRows-row batch
  /// through the bit path, memcmp'd row by row against predictDelay.
  /// ok() when the model is safe to serve.
  util::Status validateForServing() const;

  /// Pre-trained model persistence (forest + history flag). save()
  /// writes a temp file, verifies the stream after flushing, and
  /// atomically renames into place — a full disk or closed fd yields
  /// a typed util::StatusError (errno + path), never a silently
  /// truncated model. `faults` (nullable) is consulted at the io.open
  /// / io.write points, keyed by the destination path.
  void save(const std::string& path,
            util::FaultInjector* faults = nullptr) const;

  /// Loads a saved model. Rejects, with typed util::StatusError:
  /// malformed or truncated payloads (kParseError), trailing bytes
  /// after the forest (kParseError), and forests whose feature
  /// indices exceed the header's encoder width — e.g. a model trained
  /// with history under a header claiming none (kInvalidArgument),
  /// which would otherwise read out of bounds at predict time.
  static TevotModel load(const std::string& path);

 private:
  /// Bounded FIFO map from a corner key to its bit forest. Entries are
  /// immutable and shared, so a batch keeps its forest alive while
  /// another thread evicts it. Lookups and inserts take one mutex;
  /// forests are built outside it. A copied or moved-to cache starts
  /// empty: entries derive from flat_ and are rebuilt on demand.
  class CornerCache {
   public:
    CornerCache() = default;
    CornerCache(const CornerCache&) {}
    CornerCache& operator=(const CornerCache&) {
      clear();
      return *this;
    }

    std::shared_ptr<const ml::BitForest> find(std::uint64_t key);
    /// Inserts `forest` under `key` unless another thread got there
    /// first; returns the entry that is cached.
    std::shared_ptr<const ml::BitForest> insert(
        std::uint64_t key, std::shared_ptr<const ml::BitForest> forest);
    void clear();

   private:
    struct Entry {
      std::uint64_t key;
      std::shared_ptr<const ml::BitForest> forest;
    };
    std::mutex mutex_;
    std::vector<Entry> entries_;  ///< oldest first
  };

  /// (Re)compiles flat_ from forest_ and drops the corner forests
  /// built from the old one; called after train/load.
  void compileFlat() {
    flat_ = ml::FlatForest::fromRegressor(forest_);
    corner_cache_.clear();
  }

  /// The bit forest for one corner, from the cache or built now.
  std::shared_ptr<const ml::BitForest> cornerForest(
      const liberty::Corner& corner) const;

  TevotConfig config_;
  FeatureEncoder encoder_;
  ml::RandomForestRegressor forest_;
  ml::FlatForest flat_;
  mutable CornerCache corner_cache_;
};

}  // namespace tevot::core
