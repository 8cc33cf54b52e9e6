// dvfs: dvfs::runController with the in-process backend for INT ADD
// and INT MUL (window 16, guardband 0.25) over a seeded corner walk on
// the Table I grid, with event-simulated ground truth per window. One
// round runs every stream of both FUs, each with a fresh FuContext, so it
// pays netlist build, per-corner annotation and a fresh simulator per
// window, as a controller starting up would.
//
// Layer times come from the controller's public seams: a DelayBackend
// that forwards to InProcessBackend and a GroundTruth lambda, each
// timed around its call.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>

#include "circuits/fu.hpp"
#include "common.hpp"
#include "dvfs/backend.hpp"
#include "dvfs/controller.hpp"
#include "dvfs/stream.hpp"
#include "util/fault_injection.hpp"

namespace perfbench {

namespace dvfs = tevot::dvfs;
namespace verify = tevot::verify;

namespace {

constexpr std::size_t kWindow = 16;
constexpr double kGuardband = 0.25;
/// Independent corner walks per FU: the gain depends on where a walk
/// wanders, and several short walks average that out better than one
/// long one.
constexpr std::size_t kStreamsPerFu = 4;

/// Forwards to InProcessBackend, timing each window's prediction. The
/// controller asks for one prediction at the start of every window, so
/// the call times also delimit the windows.
class TimedBackend final : public dvfs::DelayBackend {
 public:
  TimedBackend(const core::TevotModel& model, const std::string& slug,
               util::FaultInjector* faults)
      : inner_(model, slug, faults) {}

  dvfs::WindowPrediction predictWindow(const dvfs::WindowedStream& stream,
                                       const dvfs::Window& w) override {
    const std::int64_t start = nowNs();
    window_starts_ns.push_back(start);
    dvfs::WindowPrediction out;
    {
      const Span span("dvfs.predict_window");
      out = inner_.predictWindow(stream, w);
    }
    busy_s += secondsSince(start);
    return out;
  }
  const char* name() const override { return inner_.name(); }

  double busy_s = 0.0;
  std::vector<std::int64_t> window_starts_ns;

 private:
  dvfs::InProcessBackend inner_;
};

struct FuRun {
  TrainedFu fu;
  verify::SafeTclkCertificate cert;
  std::vector<dvfs::WindowedStream> streams;
};

/// Safe-clock certificate from the STA bound at the slowest grid
/// corner plus 5 %, as the closed-loop bench builds it.
verify::SafeTclkCertificate staCertificate(circuits::FuKind kind) {
  core::FuContext context(kind);
  const core::OperatingGrid grid = core::OperatingGrid::paper();
  verify::SafeTclkCertificate cert;
  cert.model_path = std::string(circuits::fuSlug(kind));
  cert.history = true;
  cert.feature_count = 1;
  cert.tree_count = 1;
  cert.v_lo = grid.v_start;
  cert.v_hi = grid.v_end;
  cert.t_lo = grid.t_start;
  cert.t_hi = grid.t_end;
  cert.tclk_ps = context.staCriticalPathPs({grid.v_start, grid.t_end}) * 1.05;
  cert.certified = true;
  return cert;
}

/// Per-round totals over both FUs; the counts repeat exactly.
struct RoundTally {
  std::uint64_t transitions = 0;
  std::uint64_t windows = 0;
  std::uint64_t replays = 0;
  std::uint64_t violations = 0;
  std::uint64_t clock_changes = 0;
  SimTally sim;  ///< fu_busy_s and fu_cycles by FU; no datasets here
  std::uint64_t gates = 0;
  std::uint64_t corners = 0;
  double baseline_ps = 0.0;
  double adaptive_ps = 0.0;
  double predict_s = 0.0;
  double truth_s = 0.0;
  double controller_s = 0.0;
};

/// Checks the controller's trace: one decision line per window, in
/// order, none with an escape. Returns per-window verdicts.
std::vector<bool> checkDecisions(const dvfs::DvfsReport& result,
                                 std::size_t windows, Report& report) {
  std::vector<bool> ok(windows, false);
  std::istringstream lines(result.trace);
  std::string line;
  std::size_t expected = 0;
  while (std::getline(lines, line)) {
    std::size_t index = 0;
    if (std::sscanf(line.c_str(), "w=%zu", &index) != 1 ||
        index != expected || index >= windows) {
      report.expect(false, "dvfs", "unexpected decision line: " + line);
      return std::vector<bool>(windows, false);
    }
    ok[index] = report.expect(line.find(" esc=0 ") != std::string::npos,
                              "dvfs", "escape in window: " + line);
    ++expected;
  }
  if (expected != windows || result.windows != windows) {
    report.expect(false, "dvfs",
                  std::to_string(expected) + " decisions for " +
                      std::to_string(windows) + " windows");
    return std::vector<bool>(windows, false);
  }
  report.expect(result.escapes == 0, "dvfs", "escapes reported");
  return ok;
}

void runStream(const FuRun& run, const dvfs::WindowedStream& stream,
               util::FaultInjector& quiet,
               RoundTally& tally, std::vector<double>& window_ms,
               Report& report) {
  const circuits::FuKind kind = run.fu.kind;
  const std::string slug(circuits::fuSlug(kind));
  std::unique_ptr<core::FuContext> context;
  {
    const Span span("circuits.build");
    context = std::make_unique<core::FuContext>(kind);
  }
  tally.gates += context->netlist().gateCount();
  double truth_s = 0.0;
  TimedBackend backend(run.fu.model, slug, &quiet);
  const std::size_t windows = stream.windows().size();
  std::vector<bool> sim_ok;
  std::vector<std::pair<int, int>> corners_seen;
  dta::DtaOptions dta_options;
  dta_options.keep_toggles = false;  // the controller needs delays only
  const dvfs::GroundTruth truth = [&](const dvfs::Window& w) {
    const std::int64_t start = nowNs();
    const liberty::CornerDelays* delays = nullptr;
    {
      const Span span("liberty.annotate");
      delays = &context->delaysAt(w.corner);
    }
    const std::pair<int, int> key = core::cornerKey(w.corner);
    if (std::find(corners_seen.begin(), corners_seen.end(), key) ==
        corners_seen.end()) {
      corners_seen.push_back(key);
    }
    const std::int64_t sim_start = nowNs();
    dta::DtaTrace trace;
    {
      const Span span("sim.characterize");
      trace = dta::characterize(context->netlist(), *delays,
                                stream.windowWorkload(w), dta_options);
    }
    tally.sim.fu_busy_s[slug] += secondsSince(sim_start);
    tally.sim.fu_cycles[slug] += trace.samples.size();
    tally.sim.cycles += trace.samples.size();
    tally.sim.events += trace.sim_events;
    sim_ok.push_back(checkSettledWords(kind, trace, report));
    std::vector<double> delays_ps;
    delays_ps.reserve(trace.samples.size());
    for (const dta::DtaSample& s : trace.samples) {
      delays_ps.push_back(s.delay_ps);
    }
    truth_s += secondsSince(start);
    return delays_ps;
  };

  dvfs::ControllerOptions controller;
  controller.guardband = kGuardband;
  const std::int64_t start = nowNs();
  dvfs::DvfsReport result;
  {
    const Span span("dvfs.run_controller");
    result = dvfs::runController(stream, backend, run.cert, controller,
                                 truth);
  }
  const std::int64_t end = nowNs();
  const double wall = static_cast<double>(end - start) * 1e-9;
  backend.window_starts_ns.push_back(end);
  for (std::size_t i = 1; i < backend.window_starts_ns.size(); ++i) {
    window_ms.push_back(static_cast<double>(backend.window_starts_ns[i] -
                                            backend.window_starts_ns[i - 1]) *
                        1e-6);
  }
  if (report.corruptNow("dvfs")) result.trace += result.trace;
  std::vector<bool> ok = checkDecisions(result, windows, report);
  for (std::size_t i = 0; i < windows; ++i) {
    report.attempt(ok[i] && i < sim_ok.size() && sim_ok[i]);
  }
  for (const dvfs::Window& w : stream.windows()) {
    tally.transitions += w.cycles();
  }
  tally.windows += windows;
  tally.replays += result.replays;
  tally.violations += result.violations;
  tally.clock_changes += result.clock_changes;
  tally.corners += corners_seen.size();
  tally.baseline_ps += result.baseline_ps;
  tally.adaptive_ps += result.adaptive_ps;
  tally.predict_s += backend.busy_s;
  tally.truth_s += truth_s;
  tally.controller_s += wall - backend.busy_s - truth_s;
}

}  // namespace

void runDvfs(const Options& options, Report& report) {
  const std::size_t cycles = options.tiny ? 65 : 1025;
  util::FaultInjector quiet;  // a clean loop: no induced faults
  std::vector<FuRun> runs;
  bool setup_ok = true;
  report.setup_s = timeSetup([&] {
    runs.clear();
    std::size_t index = 0;
    for (const circuits::FuKind kind :
         {circuits::FuKind::kIntAdd, circuits::FuKind::kIntMul}) {
      bool ok = true;
      FuRun run;
      run.fu = trainFu(kind, options.seed, options.tiny, report, ok);
      run.cert = staCertificate(kind);
      for (std::size_t k = 0; k < kStreamsPerFu; ++k) {
        dvfs::StreamOptions stream;
        stream.kind = kind;
        stream.cycles = cycles;
        stream.window = kWindow;
        stream.seed = options.seed * 7919ULL + index++;
        run.streams.push_back(dvfs::WindowedStream::generate(stream));
      }
      runs.push_back(std::move(run));
      setup_ok = setup_ok && ok;
    }
  });
  report.attempt(setup_ok);

  RoundTally counts;
  std::vector<double> step_ms;
  std::vector<double> rates;
  const RoundTimes times = runRounds(options, 3, [&] {
    RoundTally round;
    const std::int64_t start = nowNs();
    // The FUs' controllers run side by side on a chip; a control step is
    // window i of INT ADD's walk k plus window i of INT MUL's walk k,
    // and its latency is what the two windows cost together.
    std::vector<std::vector<double>> walk_ms;
    for (const FuRun& run : runs) {
      for (const dvfs::WindowedStream& stream : run.streams) {
        walk_ms.emplace_back();
        runStream(run, stream, quiet, round, walk_ms.back(), report);
      }
    }
    for (std::size_t k = 0; k < kStreamsPerFu; ++k) {
      const std::vector<double>& add = walk_ms[k];
      const std::vector<double>& mul = walk_ms[kStreamsPerFu + k];
      for (std::size_t i = 0; i < std::min(add.size(), mul.size()); ++i) {
        step_ms.push_back(add[i] + mul[i]);
      }
    }
    rates.push_back(static_cast<double>(round.transitions) /
                    secondsSince(start));
    counts = round;
  });

  report.throughput_per_s = median(rates);
  const double gain = counts.baseline_ps / counts.adaptive_ps;
  report.p50_ms = median(step_ms);
  report.say("dvfs_cycles_per_s", report.throughput_per_s,
             "transitions/s (host)");
  report.say("dvfs_gain", gain,
             "x over the certified worst-case clock");
  report.say("windows_per_round", static_cast<double>(counts.windows),
             "windows");
  report.say("round_rate_q1", percentile(rates, 0.25), "transitions/s");
  report.say("round_rate_q3", percentile(rates, 0.75),
             "transitions/s over " + std::to_string(rates.size()) + " rounds");

  if (!options.trace) return;
  const std::vector<SpanRecord> spans = collectSpans();
  const double rounds = static_cast<double>(times.traced_s.size());
  const double windows = static_cast<double>(counts.windows);
  report.layer("circuits.build_s", spanSeconds(spans, "circuits.build") / rounds);
  report.layer("circuits.gates", static_cast<double>(counts.gates));
  report.layer("liberty.annotate_s",
               spanSeconds(spans, "liberty.annotate") / rounds);
  report.layer("liberty.corners", static_cast<double>(counts.corners));
  const double sim_s = spanSeconds(spans, "sim.characterize") / rounds;
  report.layer("sim.busy_s", sim_s);
  report.layer("sim.cycles", static_cast<double>(counts.sim.cycles));
  report.layer("sim.events", static_cast<double>(counts.sim.events));
  report.layer("sim.ns_per_event",
               sim_s * 1e9 / static_cast<double>(counts.sim.events));
  for (const auto& [slug, cycles] : counts.sim.fu_cycles) {
    report.layer("sim.us_per_cycle." + slug,
                 counts.sim.fu_busy_s.at(slug) * 1e6 /
                     static_cast<double>(cycles));
  }
  report.layer("dvfs.predict_us_per_window", counts.predict_s * 1e6 / windows);
  report.layer("dvfs.truth_us_per_window", counts.truth_s * 1e6 / windows);
  report.layer("dvfs.controller_self_us_per_window",
               counts.controller_s * 1e6 / windows);
  report.layer("dvfs.replays", static_cast<double>(counts.replays));
  report.layer("dvfs.violations", static_cast<double>(counts.violations));
  report.layer("dvfs.clock_changes", static_cast<double>(counts.clock_changes));
  report.layer("dvfs.gain", gain);
  std::uint64_t repeats = 0;
  for (const FuRun& run : runs) {
    for (const dvfs::WindowedStream& stream : run.streams) {
      std::vector<std::pair<int, int>> seen;
      for (const dvfs::Window& w : stream.windows()) {
        const auto key = core::cornerKey(w.corner);
        if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
          ++repeats;
        } else {
          seen.push_back(key);
        }
      }
    }
  }
  report.layer("input.corner_repeat_frac",
               static_cast<double>(repeats) / windows);
  report.layer("input.batch_rows", static_cast<double>(kWindow));
  finishTrace(options, report, spans, times);
}

}  // namespace perfbench
