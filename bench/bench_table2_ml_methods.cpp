// Reproduces paper Table II: prediction accuracy, training time and
// testing time of four supervised learning methods (LR, k-NN, SVM,
// RF) on the timing-error classification task.
//
// Expected shape: RF clearly most accurate with cheap inference; LR
// fast but inaccurate (linear boundary cannot capture bit
// interactions); k-NN's testing time dwarfs everything as it scans
// the training set per query; SVM in between on accuracy with heavy
// training. Absolute times are machine-dependent — the paper's 2009
// Xeon measured minutes-to-hours at 200K samples; the ordering is
// what must hold.
//
// The task matches the paper's pipeline: features {V, T, x[t],
// x[t-1]}, label = timing error of the INT MUL unit, one model across
// all operating conditions and mixed random+application workloads at
// a single clock (the pooled median training delay, so both classes
// are well represented — at an error-free base clock every method
// would trivially score the majority-class rate).
//
// A second table times the forest fit layer TEVoT's characterization
// runs: per FU, the delay regressor with the default ForestParams on
// one thread, fitted with the packed split search (DecisionTree::fit)
// and with the per-feature reference search
// (DecisionTree::fitReference), min and median over repeats, on a
// random workload characterized at every corner. The trees must come
// out identical. It is written to BENCH_forest_fit.json in the current
// directory (run from the repo root to update the committed copy).
// 140 cycles at each of the 9 default corners make the ~1260-row
// datasets a characterize round fits per FU.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ml/knn.hpp"
#include "ml/linear.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"

namespace {

using namespace tevot;
using namespace tevot::bench;
using Clock = std::chrono::steady_clock;

double seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct MethodResult {
  std::string name;
  double accuracy;
  double train_seconds;
  double test_seconds;
};

template <typename Fit, typename Predict>
MethodResult runMethod(const std::string& name, const ml::Dataset& train,
                       const ml::Dataset& test, Fit fit, Predict predict) {
  MethodResult result;
  result.name = name;
  auto t0 = Clock::now();
  fit(train);
  result.train_seconds = seconds(t0);
  t0 = Clock::now();
  const std::vector<float> predictions = predict(test.x);
  result.test_seconds = seconds(t0);
  result.accuracy = ml::accuracy(predictions, test.y);
  return result;
}

struct MinMedian {
  double min;
  double median;
};

MinMedian minMedian(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const double median = n % 2 == 1 ? samples[n / 2]
                                   : 0.5 * (samples[n / 2 - 1] +
                                            samples[n / 2]);
  return {samples.front(), median};
}

bool sameTrees(std::span<const ml::DecisionTree> a,
               std::span<const ml::DecisionTree> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t t = 0; t < a.size(); ++t) {
    const auto x = a[t].nodes();
    const auto y = b[t].nodes();
    if (x.size() != y.size() ||
        std::memcmp(x.data(), y.data(),
                    x.size() * sizeof(ml::DecisionTree::Node)) != 0) {
      return false;
    }
  }
  return true;
}

constexpr int kFitRepeats = 5;
constexpr std::size_t kFitCyclesPerCorner = 140;

/// The forest-fit table; returns false when the two searches grew
/// different trees.
bool benchForestFit(const BenchScale& scale) {
  std::printf(
      "\n=== Forest fit: packed vs per-feature split search ===\n"
      "TEVoT delay regression, default ForestParams (10 trees, all "
      "features), 1 thread, %d fits each\n\n",
      kFitRepeats);
  std::printf("  %-8s %6s %16s %16s %9s\n", "FU", "rows",
              "reference min/med", "packed min/med", "speedup");
  const auto bench_start = Clock::now();
  std::vector<std::pair<std::string, double>> metrics;
  bool identical = true;
  for (const circuits::FuKind kind : circuits::kAllFus) {
    core::FuContext context(kind);
    util::Rng rng(0xf17);
    const dta::Workload workload =
        dta::randomWorkloadFor(kind, kFitCyclesPerCorner, rng, "random_data");
    std::vector<dta::DtaTrace> traces;
    for (const liberty::Corner& corner : scale.corners) {
      traces.push_back(context.characterize(corner, workload));
    }
    const ml::Dataset data =
        core::buildDelayDataset(traces, core::FeatureEncoder{});
    const ml::ForestParams params;
    std::vector<double> packed_s, reference_s;
    for (int r = 0; r < kFitRepeats; ++r) {
      util::Rng packed_rng(7), reference_rng(7);
      auto t0 = Clock::now();
      ml::RandomForestRegressor forest;
      forest.fit(data, params, packed_rng);
      packed_s.push_back(seconds(t0));
      t0 = Clock::now();
      const std::vector<ml::DecisionTree> reference = ml::fitReferenceTrees(
          data, ml::TreeTask::kRegression, params, reference_rng);
      reference_s.push_back(seconds(t0));
      identical = identical && sameTrees(forest.trees(), reference);
    }
    const MinMedian packed = minMedian(packed_s);
    const MinMedian ref = minMedian(reference_s);
    const std::string slug(circuits::fuSlug(kind));
    std::printf("  %-8s %6zu %7.1f/%6.1fms %7.1f/%6.1fms %8.2fx\n",
                std::string(circuits::fuName(kind)).c_str(), data.size(),
                ref.min * 1e3, ref.median * 1e3, packed.min * 1e3,
                packed.median * 1e3, ref.median / packed.median);
    metrics.insert(metrics.end(),
                   {{slug + "_rows", static_cast<double>(data.size())},
                    {slug + "_reference_fit_min_s", ref.min},
                    {slug + "_reference_fit_median_s", ref.median},
                    {slug + "_packed_fit_min_s", packed.min},
                    {slug + "_packed_fit_median_s", packed.median},
                    {slug + "_speedup_median", ref.median / packed.median}});
  }
  metrics.insert(metrics.begin(),
                 {{"repeats", static_cast<double>(kFitRepeats)},
                  {"cycles_per_corner",
                   static_cast<double>(kFitCyclesPerCorner)},
                  {"corners", static_cast<double>(scale.corners.size())},
                  {"trees_identical", identical ? 1.0 : 0.0}});
  std::printf("  trees identical: %s\n", identical ? "yes" : "NO");
  if (writeHostBenchJson("BENCH_forest_fit.json", "forest_fit",
                         seconds(bench_start), metrics)) {
    std::printf("wrote BENCH_forest_fit.json\n");
  }
  return identical;
}

}  // namespace

int main() {
  const BenchScale scale = BenchScale::fromEnvironment();
  const circuits::FuKind kind = circuits::FuKind::kIntMul;
  util::Rng rng(0x7ab1e2);
  core::FuContext context(kind);

  // Characterize training and test streams across the condition set.
  // As in the paper, one model covers all operating conditions at one
  // circuit clock: the (V,T) features decide the bulk of the
  // classification and the workload bits decide the boundary
  // conditions. The clock is the pooled median training delay.
  // Workloads mix random and application data, as the paper's
  // training set does (200K random + 5% of the images).
  const auto datasets = buildDatasets(kind, scale, rng);
  std::vector<dta::DtaTrace> train_traces, test_traces;
  for (const liberty::Corner& corner : scale.corners) {
    for (const DatasetStreams& dataset : datasets) {
      train_traces.push_back(context.characterize(corner, dataset.train));
      test_traces.push_back(context.characterize(corner, dataset.test));
    }
  }
  std::vector<double> pooled_delays;
  for (const dta::DtaTrace& trace : train_traces) {
    for (const dta::DtaSample& sample : trace.samples) {
      pooled_delays.push_back(sample.delay_ps);
    }
  }
  std::sort(pooled_delays.begin(), pooled_delays.end());
  const double tclk = pooled_delays[pooled_delays.size() / 2];

  const core::FeatureEncoder encoder(true);
  const auto fixed_clock = [&](const dta::DtaTrace&) { return tclk; };
  const ml::Dataset train =
      core::buildErrorDataset(train_traces, encoder, fixed_clock);
  const ml::Dataset test =
      core::buildErrorDataset(test_traces, encoder, fixed_clock);

  double error_rate = 0.0;
  for (const float label : train.y) error_rate += label;
  error_rate /= static_cast<double>(train.size());

  std::printf("=== Table II: accuracy, training and testing time ===\n");
  std::printf(
      "task: %s timing-error classification at one fixed clock across all conditions,\n"
      "%zu train / %zu test samples, %zu features, base error rate "
      "%.2f%%\n\n",
      std::string(circuits::fuName(kind)).c_str(), train.size(),
      test.size(), train.features(), error_rate * 100.0);

  std::vector<MethodResult> results;

  ml::LogisticRegression logreg;
  results.push_back(runMethod(
      "LR", train, test,
      [&](const ml::Dataset& data) { logreg.fit(data); },
      [&](const ml::Matrix& x) { return logreg.predictBatch(x); }));

  ml::KnnClassifier knn(5);
  results.push_back(runMethod(
      "KNN", train, test,
      [&](const ml::Dataset& data) { knn.fit(data); },
      [&](const ml::Matrix& x) { return knn.predictBatch(x); }));

  ml::LinearSvm svm;
  results.push_back(runMethod(
      "SVM", train, test,
      [&](const ml::Dataset& data) {
        ml::LinearParams params;
        params.epochs = 60;  // margin methods need more passes
        svm.fit(data, params);
      },
      [&](const ml::Matrix& x) { return svm.predictBatch(x); }));

  ml::RandomForestClassifier forest;
  results.push_back(runMethod(
      "RFC", train, test,
      [&](const ml::Dataset& data) {
        util::Rng forest_rng(7);
        forest.fit(data, ml::ForestParams{}, forest_rng);
      },
      [&](const ml::Matrix& x) { return forest.predictBatch(x); }));

  std::printf("  %-8s %10s %14s %14s\n", "method", "Accuracy",
              "Training Time", "Testing Time");
  for (const MethodResult& result : results) {
    std::printf("  %-8s %9.1f%% %13.3fs %13.3fs\n", result.name.c_str(),
                result.accuracy * 100.0, result.train_seconds,
                result.test_seconds);
  }

  std::printf(
      "\npaper (200K samples, 2009-era Xeon): LR 82.3%% / KNN 81.7%% / "
      "SVM 92.2%% / RFC 98.3%%; RFC fastest to test after LR.\n");
  return benchForestFit(scale) ? 0 : 1;
}
