#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "circuits/fu.hpp"
#include "tevot/baselines.hpp"
#include "tevot/evaluate.hpp"
#include "tevot/operating_grid.hpp"
#include "trace.hpp"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& layerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"circuits.build_s", "s"},
        {"circuits.gates", "count"},
        {"liberty.annotate_s", "s"},
        {"liberty.corners", "count"},
        {"sim.busy_s", "s"},
        {"sim.cycles", "count"},
        {"sim.events", "count"},
        {"sim.events_per_cycle.random", "count"},
        {"sim.events_per_cycle.sobel", "count"},
        {"sim.events_per_cycle.gauss", "count"},
        {"sim.ns_per_event", "ns"},
    };
    for (const circuits::FuKind kind : circuits::kAllFus) {
      m.emplace_back("sim.us_per_cycle." + std::string(circuits::fuSlug(kind)),
                     "us");
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"tevot.dataset_s", "s"},
        {"tevot.encode_ns_per_row", "ns"},
        {"tevot.eval_s", "s"},
        {"tevot.accuracy", "ratio"},
        {"ml.fit_s", "s"},
        {"ml.compile_s", "s"},
        {"ml.nodes", "count"},
        {"ml.max_depth", "count"},
        {"ml.traverse_ns_per_row", "ns"},
        {"ml.traverse_ns_per_row_mt", "ns"},
        {"verify.certify_s", "s"},
        {"verify.box_evals", "count"},
        {"serve.parse_ns_per_line", "ns"},
        {"serve.serialize_ns_per_line", "ns"},
        {"serve.compute_us_per_batch", "us"},
        {"serve.rtt_us", "us"},
        {"serve.server_p50_ms", "ms"},
        {"serve.residual_us", "us"},
        {"serve.shed", "count"},
        {"serve.deadline", "count"},
        {"serve.errors", "count"},
        {"serve.late_sends", "count"},
        {"serve.p50_from_due_ms", "ms"},
        {"serve.p99_from_due_ms", "ms"},
        {"dvfs.predict_us_per_window", "us"},
        {"dvfs.truth_us_per_window", "us"},
        {"dvfs.controller_self_us_per_window", "us"},
        {"dvfs.replays", "count"},
        {"dvfs.violations", "count"},
        {"dvfs.clock_changes", "count"},
        {"dvfs.gain", "ratio"},
        {"input.corner_repeat_frac", "ratio"},
        {"input.batch_rows", "count"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    for (const std::string& layer : traceLayers()) {
      m.emplace_back("self_s." + layer, "s");
    }
    m.emplace_back("trace.overhead_frac", "ratio");
    m.emplace_back("trace.spans", "count");
    return m;
  }();
  return kMetrics;
}

const std::vector<std::string>& traceLayers() {
  static const std::vector<std::string> kLayers = {
      "bench", "circuits", "liberty", "sim",  "tevot",
      "ml",    "verify",   "serve",   "dvfs"};
  return kLayers;
}

bool Report::expect(bool ok, const char* check, const std::string& detail) {
  if (ok) return true;
  const std::uint64_t seen = check_failures_[check]++;
  if (seen < 5) {
    std::fprintf(stderr, "check %s failed: %s\n", check, detail.c_str());
  }
  return false;
}

bool Report::corruptNow(const char* check) {
  if (corrupted_ || options_.corrupt != check) return false;
  corrupted_ = true;
  return true;
}

void Report::layer(const std::string& name, double value) {
  const auto& known = layerMetricUnits();
  const bool listed =
      std::any_of(known.begin(), known.end(),
                  [&](const auto& entry) { return entry.first == name; });
  if (!listed) throw std::logic_error("unlisted layer metric " + name);
  layers_[name] = value;
}

void Report::say(const std::string& name, double value,
                 const std::string& unit) {
  std::printf("  %-28s = %.6g %s\n", name.c_str(), value, unit.c_str());
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (q == 0.5 && values.size() % 2 == 0) {
    const std::size_t hi = values.size() / 2;
    return 0.5 * (values[hi - 1] + values[hi]);
  }
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double secondsSince(std::int64_t start_ns) {
  return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

double timeSetup(const std::function<void()>& setup,
                 const std::function<void()>& teardown) {
  std::vector<double> walls;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (teardown) teardown();
    const std::int64_t start = nowNs();
    setup();
    walls.push_back(secondsSince(start));
  }
  return median(walls);
}

RoundTimes runRounds(const Options& options, std::size_t min_rounds,
                     const std::function<void()>& round) {
  RoundTimes times;
  const std::int64_t start = nowNs();
  const auto done = [&] {
    const bool enough = times.untraced_s.size() >= min_rounds &&
                        (!options.trace || times.traced_s.size() >= min_rounds);
    return enough && secondsSince(start) >= options.seconds;
  };
  bool traced = false;
  while (!done()) {
    setTracing(traced);
    const std::int64_t round_start = nowNs();
    {
      const Span span("bench.round");
      round();
    }
    (traced ? times.traced_s : times.untraced_s)
        .push_back(secondsSince(round_start));
    setTracing(false);
    if (options.trace) traced = !traced;
  }
  return times;
}

double spanSeconds(const std::vector<SpanRecord>& spans, const char* name) {
  const std::string wanted(name);
  std::int64_t total = 0;
  for (const SpanRecord& span : spans) {
    if (wanted == span.name) total += span.end_ns - span.start_ns;
  }
  return static_cast<double>(total) * 1e-9;
}

void finishTrace(const Options& options, Report& report,
                 const std::vector<SpanRecord>& spans,
                 const RoundTimes& times) {
  const std::map<std::string, double> self = selfSecondsByLayer(spans);
  for (const std::string& layer : traceLayers()) {
    const auto it = self.find(layer);
    report.layer("self_s." + layer, it == self.end() ? 0.0 : it->second);
  }
  const double untraced = median(times.untraced_s);
  report.layer("trace.overhead_frac",
               untraced > 0.0 ? median(times.traced_s) / untraced - 1.0 : 0.0);
  report.layer("trace.spans", static_cast<double>(spans.size()));
  const std::string path = options.out_dir + "/spans-" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".jsonl";
  if (!writeSpans(spans, path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
  } else {
    std::printf("  spans written to %s\n", path.c_str());
  }
}

bench::BenchScale flowScale(bool tiny) {
  bench::BenchScale scale;
  scale.corners = core::OperatingGrid::paper().subsampled(3, 3);
  scale.train_cycles_per_corner = tiny ? 10 : 60;
  scale.test_cycles_per_corner = tiny ? 8 : 40;
  scale.app_train_cycles = tiny ? 8 : 40;
  scale.app_test_cycles = tiny ? 8 : 40;
  scale.image_count = 6;
  scale.image_size = tiny ? 12 : 24;
  return scale;
}

std::uint64_t fuSeed(std::uint64_t seed, circuits::FuKind kind) {
  return seed * 0x9e3779b97f4a7c15ULL + 1 + static_cast<std::uint64_t>(kind);
}

namespace {

/// "random_data" -> "random", "sobel_data" -> "sobel".
std::string shortName(const std::string& dataset) {
  const std::size_t cut = dataset.find('_');
  return cut == std::string::npos ? dataset : dataset.substr(0, cut);
}

}  // namespace

bool checkSettledWords(circuits::FuKind kind, dta::DtaTrace& trace,
                       Report& report) {
  bool ok = true;
  for (dta::DtaSample& sample : trace.samples) {
    if (report.corruptNow("sim")) sample.settled_word ^= 1u;
    const std::uint32_t want = circuits::fuReference(kind, sample.a, sample.b);
    if (sample.settled_word != want) {
      char detail[160];
      std::snprintf(detail, sizeof(detail),
                    "%s a=0x%08x b=0x%08x settled=0x%llx reference=0x%08x",
                    std::string(circuits::fuSlug(kind)).c_str(), sample.a,
                    sample.b,
                    static_cast<unsigned long long>(sample.settled_word),
                    want);
      ok = report.expect(false, "sim", detail) && ok;
    }
  }
  return ok;
}

bool characterizeDatasets(core::FuContext& context,
                          const std::vector<bench::DatasetStreams>& datasets,
                          const std::vector<liberty::Corner>& corners,
                          std::vector<bench::DatasetTraces>& out,
                          SimTally& tally, Report& report) {
  const std::string slug(circuits::fuSlug(context.kind()));
  bool ok = true;
  out.clear();
  for (const bench::DatasetStreams& dataset : datasets) {
    bench::DatasetTraces traces;
    traces.name = dataset.name;
    const std::string name = shortName(dataset.name);
    for (const liberty::Corner& corner : corners) {
      const liberty::CornerDelays& delays = context.delaysAt(corner);
      for (const dta::Workload* workload : {&dataset.train, &dataset.test}) {
        const std::int64_t start = nowNs();
        dta::DtaTrace trace;
        {
          const Span span("sim.characterize");
          trace = dta::characterize(context.netlist(), delays, *workload);
        }
        const double busy = secondsSince(start);
        const std::uint64_t cycles = trace.samples.size();
        tally.cycles += cycles;
        tally.events += trace.sim_events;
        tally.dataset_cycles[name] += cycles;
        tally.dataset_events[name] += trace.sim_events;
        tally.fu_busy_s[slug] += busy;
        tally.fu_cycles[slug] += cycles;
        ok = checkSettledWords(context.kind(), trace, report) && ok;
        (workload == &dataset.train ? traces.train : traces.test)
            .push_back(std::move(trace));
      }
    }
    out.push_back(std::move(traces));
  }
  return ok;
}

TrainedFu trainFu(circuits::FuKind kind, std::uint64_t seed, bool tiny,
                  Report& report, bool& ok) {
  const bench::BenchScale scale = flowScale(tiny);
  util::Rng rng(fuSeed(seed, kind));
  const std::vector<bench::DatasetStreams> datasets =
      bench::buildDatasets(kind, scale, rng);
  core::FuContext context(kind);
  std::vector<bench::DatasetTraces> traces;
  SimTally tally;
  ok = characterizeDatasets(context, datasets, scale.corners, traces, tally,
                            report);
  TrainedFu fu;
  fu.kind = kind;
  fu.model.train(bench::pooledTrainingTraces(traces), rng);
  core::TevotErrorModel error_model(fu.model);
  std::vector<core::EvalOutcome> outcomes;
  for (const bench::DatasetTraces& dataset : traces) {
    outcomes.push_back(bench::evaluateDataset(error_model, dataset));
  }
  fu.accuracy = core::mergeOutcomes(outcomes).accuracy();
  return fu;
}

}  // namespace perfbench
