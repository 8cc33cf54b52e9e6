// Shared pieces of the four workloads: run options, the report every
// workload fills, output checks, timing statistics and the offline
// characterization flow that characterize runs and the other
// workloads use to build their models.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "tevot/model.hpp"
#include "tevot/pipeline.hpp"
#include "trace.hpp"

namespace perfbench {

namespace bench = tevot::bench;
namespace circuits = tevot::circuits;
namespace core = tevot::core;
namespace dta = tevot::dta;
namespace liberty = tevot::liberty;
namespace ml = tevot::ml;
namespace util = tevot::util;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs for the benchmark's own tests; figures from a tiny
  /// run are not comparable with full runs.
  bool tiny = false;
  /// Name of one output check whose first checked value is corrupted
  /// on purpose, to show that the check trips. Empty in real runs.
  std::string corrupt;
  /// Directory for the span file of a traced run.
  std::string out_dir = ".bench_out";
};

/// Set-up is repeated this many times per run and its median reported.
inline constexpr int kSetupReps = 7;

/// Per-layer metric names and units, in print order. A traced run
/// reports every one of them on every workload; a layer the workload
/// does not run reads 0.
const std::vector<std::pair<std::string, std::string>>& layerMetricUnits();

/// Layers whose self time a traced run reports as self_s.<layer>.
const std::vector<std::string>& traceLayers();

class Report {
 public:
  explicit Report(const Options& options) : options_(options) {}

  // End-to-end figures (see README.md for what each means per workload).
  double setup_s = 0.0;
  double throughput_per_s = 0.0;
  double p50_ms = 0.0;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Counts one operation; a failed check inside it fails it.
  void attempt(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }

  /// Records a failed output check (and prints the first few).
  /// Returns `ok`.
  bool expect(bool ok, const char* check, const std::string& detail);

  /// True exactly once for the check named by --corrupt: the caller
  /// then corrupts the value it is about to check.
  bool corruptNow(const char* check);

  /// Sets a per-layer metric; the name must be in layerMetricUnits().
  void layer(const std::string& name, double value);
  const std::map<std::string, double>& layers() const { return layers_; }

  /// Prints "  name = value unit" to stdout: the workload's figures
  /// under the names the README uses.
  void say(const std::string& name, double value, const std::string& unit);

  bool correct() const { return failed == 0 && check_failures_.empty(); }

 private:
  const Options& options_;
  std::map<std::string, double> layers_;
  std::map<std::string, std::uint64_t> check_failures_;
  bool corrupted_ = false;
};

/// Median and nearest-rank percentile (q in [0, 1]) of `values`.
double median(std::vector<double> values);
double percentile(std::vector<double> values, double q);

double secondsSince(std::int64_t start_ns);

/// Runs `setup` kSetupReps times and returns the median wall seconds.
/// Each repetition rebuilds everything; the last one's state is kept.
/// `teardown`, when given, releases the previous repetition's state
/// before each one and is not timed.
double timeSetup(const std::function<void()>& setup,
                 const std::function<void()>& teardown = {});

/// Wall seconds of every round, split by tracing state.
struct RoundTimes {
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
};

/// Calls round() until options.seconds have passed and at least
/// `min_rounds` rounds ran in each tracing state the run uses. An
/// untraced run traces nothing; a traced run alternates untraced and
/// traced rounds, so both see the same machine state and their
/// difference is the tracing overhead.
RoundTimes runRounds(const Options& options, std::size_t min_rounds,
                     const std::function<void()>& round);

/// Total seconds of the spans named `name`.
double spanSeconds(const std::vector<SpanRecord>& spans, const char* name);

/// Finishes a traced run: reports self time per layer, the tracing
/// overhead (median traced round against median untraced round) and
/// the span count, and writes the spans next to the results.
void finishTrace(const Options& options, Report& report,
                 const std::vector<SpanRecord>& spans,
                 const RoundTimes& times);

/// Corner grid (the Table I grid subsampled 3 x 3) and dataset sizes
/// of the offline flow.
bench::BenchScale flowScale(bool tiny);

/// Simulator work tallied over dta::characterize calls.
struct SimTally {
  std::uint64_t cycles = 0;
  std::uint64_t events = 0;
  std::map<std::string, std::uint64_t> dataset_cycles;  ///< by short name
  std::map<std::string, std::uint64_t> dataset_events;
  std::map<std::string, double> fu_busy_s;  ///< by FU slug
  std::map<std::string, std::uint64_t> fu_cycles;
};

/// Characterizes every dataset's train and test stream at every
/// corner, one dta::characterize call each, checking every settled
/// word against circuits::fuReference. Returns false when a check
/// failed.
bool characterizeDatasets(core::FuContext& context,
                          const std::vector<bench::DatasetStreams>& datasets,
                          const std::vector<liberty::Corner>& corners,
                          std::vector<bench::DatasetTraces>& out,
                          SimTally& tally, Report& report);

/// Checks a trace's settled words against the FU's reference.
bool checkSettledWords(circuits::FuKind kind, dta::DtaTrace& trace,
                       Report& report);

/// A trained TEVoT model from the offline flow, with its held-out
/// accuracy (the characterize workload's accuracy figure for one FU).
struct TrainedFu {
  circuits::FuKind kind = circuits::FuKind::kIntAdd;
  core::TevotModel model;
  double accuracy = 0.0;
};

/// Runs the offline flow for one FU and trains a TevotModel: the
/// set-up of the predict, serve and dvfs workloads.
TrainedFu trainFu(circuits::FuKind kind, std::uint64_t seed, bool tiny,
                  Report& report, bool& ok);

/// Seed for one FU's datasets and forest, derived from the run seed.
std::uint64_t fuSeed(std::uint64_t seed, circuits::FuKind kind);

void runCharacterize(const Options& options, Report& report);
void runPredict(const Options& options, Report& report);
void runServe(const Options& options, Report& report);
void runDvfs(const Options& options, Report& report);

}  // namespace perfbench
