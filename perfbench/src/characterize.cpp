// characterize: the offline flow a user runs to get a model, for all
// four FUs, on one worker thread. One round is the whole flow:
//   FuContext (netlist build) -> delaysAt on the 3 x 3 Table I grid
//   -> dta::characterize of the random, sobel and gauss datasets
//   -> buildDelayDataset -> RandomForestRegressor::fit
//   -> FlatForest::compile -> verify::certifyUpperBound over the
//   operating box -> evaluateOnTrace at +5/10/15 % clocks.
#include <memory>
#include <string>

#include "circuits/fu.hpp"
#include "common.hpp"
#include "tevot/baselines.hpp"
#include "tevot/evaluate.hpp"
#include "tevot/operating_grid.hpp"
#include "verify/certify.hpp"
#include "verify/model_rules.hpp"

namespace perfbench {

namespace verify = tevot::verify;

namespace {

/// TEVoT's error classification over a compiled forest: the same
/// decision TevotErrorModel makes (the flat engine is bit-identical to
/// the tree walk TevotModel::predictDelay runs).
class FlatErrorModel final : public core::ErrorModel {
 public:
  FlatErrorModel(const core::FeatureEncoder& encoder,
                 const ml::FlatForest& flat)
      : encoder_(encoder), flat_(flat), row_(encoder.featureCount()) {}

  bool predictError(const core::PredictionContext& c) override {
    encoder_.encode(c.a, c.b, c.prev_a, c.prev_b, c.corner, row_);
    return static_cast<double>(flat_.predict(row_)) > c.tclk_ps;
  }
  std::string_view name() const override { return "TEVoT"; }

 private:
  const core::FeatureEncoder& encoder_;
  const ml::FlatForest& flat_;
  std::vector<float> row_;
};

struct FuInput {
  circuits::FuKind kind = circuits::FuKind::kIntAdd;
  std::vector<bench::DatasetStreams> datasets;
  util::Rng rng;  ///< continues from dataset generation into the fit
};

/// Work counts of one round; identical in every round of a run.
struct RoundCounts {
  std::uint64_t gates = 0;
  std::uint64_t corners = 0;
  std::uint64_t nodes = 0;
  int max_depth = 0;
  std::uint64_t box_evals = 0;
  std::uint64_t dataset_rows = 0;
  SimTally sim;
  double accuracy = 0.0;
};

/// Checks that the certified interval over the operating box holds
/// every prediction on the held-out rows.
bool checkContainment(const FuInput& fu, const core::FeatureEncoder& encoder,
                      const ml::FlatForest& flat,
                      const verify::UpperBoundResult& result,
                      const std::vector<bench::DatasetTraces>& traces,
                      Report& report) {
  verify::ForestBounds bounds = result.global;
  if (report.corruptNow("certify")) bounds.hi = bounds.lo;
  std::vector<float> row(encoder.featureCount());
  for (const bench::DatasetTraces& dataset : traces) {
    for (const dta::DtaTrace& trace : dataset.test) {
      for (const dta::DtaSample& sample : trace.samples) {
        encoder.encodeSample(sample, trace.corner, row);
        const float y = flat.predict(row);
        if (y < bounds.lo || y > bounds.hi) {
          return report.expect(
              false, "certify",
              std::string(circuits::fuSlug(fu.kind)) + " prediction " +
                  std::to_string(y) + " outside certified [" +
                  std::to_string(bounds.lo) + ", " +
                  std::to_string(bounds.hi) + "]");
        }
      }
    }
  }
  return true;
}

bool runFlow(const FuInput& input, const bench::BenchScale& scale,
             RoundCounts& counts, std::vector<core::EvalOutcome>& outcomes,
             Report& report) {
  std::unique_ptr<core::FuContext> context;
  {
    const Span span("circuits.build");
    context = std::make_unique<core::FuContext>(input.kind);
  }
  counts.gates += context->netlist().gateCount();
  {
    const Span span("liberty.annotate");
    for (const liberty::Corner& corner : scale.corners) {
      context->delaysAt(corner);
    }
  }
  counts.corners += scale.corners.size();

  std::vector<bench::DatasetTraces> traces;
  bool ok = characterizeDatasets(*context, input.datasets, scale.corners,
                                 traces, counts.sim, report);

  const core::FeatureEncoder encoder;
  ml::Dataset data;
  {
    const Span span("tevot.dataset");
    data = core::buildDelayDataset(bench::pooledTrainingTraces(traces),
                                   encoder);
  }
  counts.dataset_rows += data.size();
  util::Rng rng = input.rng;
  ml::RandomForestRegressor forest;
  {
    const Span span("ml.fit");
    forest.fit(data, core::TevotConfig{}.forest, rng);
  }
  ml::FlatForest flat;
  {
    const Span span("ml.compile");
    flat = ml::FlatForest::compile(forest.trees());
  }
  counts.nodes += flat.nodeCount();
  counts.max_depth = std::max(counts.max_depth, flat.maxDepth());

  // Safe-clock question for a clock 5 % faster than the fastest
  // error-free clock seen in training: may the model predict a delay
  // above it anywhere in the operating box? Answering it takes box
  // refinement, as verify-model --tclk does.
  double base_ps = 0.0;
  for (const bench::DatasetTraces& dataset : traces) {
    for (const dta::DtaTrace& trace : dataset.train) {
      base_ps = std::max(base_ps, trace.maxDelayPs());
    }
  }
  const double limit_ps = dta::speedupClockPs(base_ps, dta::kClockSpeedups[0]);
  verify::UpperBoundResult certified;
  {
    const Span span("verify.certify");
    certified = verify::certifyUpperBound(
        flat, verify::featureDomain(encoder, core::OperatingGrid::paper()),
        static_cast<float>(limit_ps));
  }
  counts.box_evals += certified.box_evals;
  ok = checkContainment(input, encoder, flat, certified, traces, report) && ok;

  {
    const Span span("tevot.eval");
    FlatErrorModel model(encoder, flat);
    for (const bench::DatasetTraces& dataset : traces) {
      outcomes.push_back(bench::evaluateDataset(model, dataset));
    }
  }
  return ok;
}

}  // namespace

void runCharacterize(const Options& options, Report& report) {
  const bench::BenchScale scale = flowScale(options.tiny);
  std::vector<FuInput> inputs;
  report.setup_s = timeSetup([&] {
    inputs.clear();
    for (const circuits::FuKind kind : circuits::kAllFus) {
      FuInput input;
      input.kind = kind;
      input.rng = util::Rng(fuSeed(options.seed, kind));
      input.datasets = bench::buildDatasets(kind, scale, input.rng);
      inputs.push_back(std::move(input));
    }
  });

  RoundCounts counts;
  const RoundTimes times = runRounds(options, 2, [&] {
    RoundCounts round;
    std::vector<core::EvalOutcome> outcomes;
    bool ok = true;
    for (const FuInput& input : inputs) {
      ok = runFlow(input, scale, round, outcomes, report) && ok;
    }
    round.accuracy = core::mergeOutcomes(outcomes).accuracy();
    report.attempt(ok);
    counts = round;
  });

  const std::vector<double>& walls = times.untraced_s;
  const double wall = median(walls);
  report.throughput_per_s = 1.0 / wall;
  report.p50_ms = wall * 1e3;
  report.say("char_wall_s", wall, "s (median of " +
                                      std::to_string(walls.size()) +
                                      " flows)");
  report.say("char_accuracy", counts.accuracy, "fraction of cycles");
  report.say("sim.cycles_per_flow", static_cast<double>(counts.sim.cycles),
             "cycles");

  if (!options.trace) return;
  const std::vector<SpanRecord> spans = collectSpans();
  const double rounds = static_cast<double>(times.traced_s.size());
  report.layer("circuits.build_s", spanSeconds(spans, "circuits.build") / rounds);
  report.layer("circuits.gates", static_cast<double>(counts.gates));
  report.layer("liberty.annotate_s",
               spanSeconds(spans, "liberty.annotate") / rounds);
  report.layer("liberty.corners", static_cast<double>(counts.corners));
  const double sim_s = spanSeconds(spans, "sim.characterize") / rounds;
  report.layer("sim.busy_s", sim_s);
  report.layer("sim.cycles", static_cast<double>(counts.sim.cycles));
  report.layer("sim.events", static_cast<double>(counts.sim.events));
  for (const auto& [name, cycles] : counts.sim.dataset_cycles) {
    report.layer("sim.events_per_cycle." + name,
                 static_cast<double>(counts.sim.dataset_events.at(name)) /
                     static_cast<double>(cycles));
  }
  report.layer("sim.ns_per_event",
               sim_s * 1e9 / static_cast<double>(counts.sim.events));
  for (const auto& [slug, cycles] : counts.sim.fu_cycles) {
    report.layer("sim.us_per_cycle." + slug,
                 counts.sim.fu_busy_s.at(slug) * 1e6 /
                     static_cast<double>(cycles));
  }
  report.layer("tevot.dataset_s", spanSeconds(spans, "tevot.dataset") / rounds);
  report.layer("tevot.encode_ns_per_row",
               spanSeconds(spans, "tevot.dataset") / rounds * 1e9 /
                   static_cast<double>(counts.dataset_rows));
  report.layer("tevot.eval_s", spanSeconds(spans, "tevot.eval") / rounds);
  report.layer("tevot.accuracy", counts.accuracy);
  report.layer("ml.fit_s", spanSeconds(spans, "ml.fit") / rounds);
  report.layer("ml.compile_s", spanSeconds(spans, "ml.compile") / rounds);
  report.layer("ml.nodes", static_cast<double>(counts.nodes));
  report.layer("ml.max_depth", counts.max_depth);
  report.layer("verify.certify_s",
               spanSeconds(spans, "verify.certify") / rounds);
  report.layer("verify.box_evals", static_cast<double>(counts.box_evals));
  finishTrace(options, report, spans, times);
}

}  // namespace perfbench
