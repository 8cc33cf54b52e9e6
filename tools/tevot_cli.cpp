// tevot_cli — command-line driver for the library's main flows, so
// the characterization/training pipeline can be scripted without
// writing C++.
//
//   tevot_cli fu-list
//   tevot_cli export-verilog <fu> <file.v>
//   tevot_cli export-lib <file.lib>
//   tevot_cli sdf <fu> <V> <T> <file.sdf>
//   tevot_cli sta <fu> <V> <T>
//   tevot_cli characterize <fu> <V> <T> <cycles> [csv-file]
//   tevot_cli train <fu> <model-file> [cycles-per-corner]
//   tevot_cli predict <model-file> <V> <T> <a> <b> <prev_a> <prev_b>
//                     [tclk_ps]
//   tevot_cli check [n-seeds] [--seed S]
//   tevot_cli sweep <fu> <cycles-per-corner> [--out DIR] [--grid NVxNT]
//             [--seed S] [--resume] [--max-retries N] [--backoff-ms MS]
//             [--job-deadline MS] [--fail-fast] [--report FILE]
//   tevot_cli lint <fu>|--all [--grid NVxNT] [--budget PS]
//             [--waivers FILE] [--sdf FILE] [--json FILE]
//   tevot_cli serve-check <port> <model-file> <fu> [--clients N]
//             [--requests N] [--seed S]
//
// FU names: int_add, int_mul, fp_add, fp_mul. Numeric operands accept
// 0x-prefixed hex. `train` uses the Fig. 3 3x3 corner subset with
// random workloads; `predict` prints the predicted dynamic delay and,
// if a clock period is given, the error classification. `check` runs
// every differential oracle (src/check/) over n-seeds seeds (default
// 25) starting at S (default 1) and exits nonzero on the first
// violation, printing the exact seed so
// `tevot_cli check 1 --seed S` reproduces it.
//
// `lint` runs the static analyzer (src/lint/) over a generated FU (or
// all of them with --all): structural netlist rules, cross-artifact
// Liberty/SDF consistency rules over the --grid corners (the SDF side
// is a write->parse round trip of the netlist's own annotation unless
// --sdf supplies an external file), and static-timing reports. A
// --waivers file suppresses reviewed findings; --json writes the
// machine-readable report ("-" for stdout). Exit 3 when any un-waived
// error-severity finding remains, 0 when the design is clean or fully
// waived.
//
// `sweep` runs the resilient corner-sweep engine (dta::runSweep) over
// an NVxNT (V,T) grid: failing corners are recorded in the sweep
// report instead of killing the run, each completed corner is
// checkpointed atomically into --out, and --resume restores completed
// corners from disk. The TEVOT_FAULTS environment spec arms
// deterministic fault injection (see util/fault_injection.hpp).
// SIGINT/SIGTERM stop a sweep cooperatively: the in-flight corner
// finishes and flushes its checkpoint, the report is printed, and the
// process exits 130 — a subsequent --resume run picks up cleanly.
//
// `serve-check` drives a running tevot_serve instance on
// 127.0.0.1:<port> with concurrent clients (including malformed
// lines) and verifies the serving resilience contract against the
// offline model file: exactly one well-formed response per request,
// and OK answers bit-identical to local prediction. Exit 3 on any
// contract violation — this is the CI serve smoke check.
//
// The global `--jobs N` option (or TEVOT_JOBS) sets the worker count
// for the parallel commands (`train`, `sweep`, `lint`); N=0 means one
// job per hardware thread, N <= util::kMaxJobs. Results are
// bit-identical for every N. Values parse whole and in range: V, T
// finite; cycles and counts >= 1 (sweep cycles >= 2, --max-retries
// >= 0); PS, tclk_ps > 0; MS >= 0; port 1..65535; seeds and operands
// decimal, 0x hex or 0 octal.
//
// Exit codes: 0 success, 1 runtime failure (I/O error, failed sweep
// jobs), 2 usage error (including a malformed or out-of-range value),
// 3 check/oracle violation.
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/env.hpp"
#include "util/fault_injection.hpp"
#include "util/flags.hpp"
#include "util/signal.hpp"
#include "util/thread_pool.hpp"

#include "check/dvfs_oracle.hpp"
#include "check/flat_oracle.hpp"
#include "check/forest_fit_oracle.hpp"
#include "check/fleet_oracle.hpp"
#include "check/golden.hpp"
#include "check/oracles.hpp"
#include "check/property.hpp"
#include "check/serve_oracle.hpp"
#include "check/sim_queue_oracle.hpp"
#include "check/sweep_oracle.hpp"
#include "check/verify_oracle.hpp"
#include "dta/sweep.hpp"
#include "liberty/lib_format.hpp"
#include "lint/rules.hpp"
#include "lint/waiver.hpp"
#include "netlist/verilog.hpp"
#include "sdf/sdf.hpp"
#include "tevot/operating_grid.hpp"
#include "tevot/pipeline.hpp"
#include "verify/model_rules.hpp"

namespace {

using namespace tevot;

// Exit-code taxonomy, so scripts and CI can tell a misspelled command
// from a crashed run from a failed oracle.
constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;
constexpr int kExitCheckFailed = 3;
constexpr int kExitInterrupted = 130;  // 128 + SIGINT, shell convention

const std::string kUsage =
    "usage: tevot_cli [--jobs N] <command> [args]\n"
    "  fu-list\n"
    "  export-verilog <fu> <file.v>\n"
    "  export-lib <file.lib>\n"
    "  sdf <fu> <V> <T> <file.sdf>\n"
    "  sta <fu> <V> <T>\n"
    "  characterize <fu> <V> <T> <cycles> [csv-file]\n"
    "  train <fu> <model-file> [cycles-per-corner]\n"
    "  predict <model-file> <V> <T> <a> <b> <prev_a> <prev_b> [tclk_ps]\n"
    "  check [n-seeds] [--seed S]\n"
    "  sweep <fu> <cycles-per-corner> [--out DIR] [--grid NVxNT]\n"
    "        [--seed S] [--resume] [--max-retries N] [--backoff-ms MS]\n"
    "        [--job-deadline MS] [--fail-fast] [--report FILE]\n"
    "  lint <fu>|--all [--grid NVxNT] [--budget PS] [--waivers FILE]\n"
    "       [--sdf FILE] [--json FILE]\n"
    "  verify-model <model-file> [--grid NVxNT] [--tclk PS]\n"
    "               [--refine-budget N] [--waivers FILE]\n"
    "               [--json FILE] [--cert FILE]\n"
    "  serve-check <port> <model-file> <fu> [--clients N] [--requests N]\n"
    "              [--seed S]\n"
    "fu: int_add | int_mul | fp_add | fp_mul\n"
    "--jobs N: worker threads for parallel commands (0 = hardware\n"
    "  threads, at most " + std::to_string(util::kMaxJobs) + ")\n"
    "values: V, T finite; cycles, N >= 1 (sweep cycles >= 2,\n"
    "  --max-retries >= 0); PS, tclk_ps > 0; MS >= 0; S and\n"
    "  operands decimal, 0x hex or 0 octal; port 1..65535\n"
    "exit codes: 0 ok, 1 runtime failure, 2 usage, 3 check failure,\n"
    "            130 sweep interrupted by SIGINT/SIGTERM\n";

/// One command line: the tokens after the command name, parsed against
/// a flag table that already holds the global --jobs option.
struct Cli {
  int argc = 0;
  char** argv = nullptr;
  int first = 1;
  std::size_t jobs = 1;
  util::Flags flags{"tevot_cli", kUsage};

  bool parse() const { return flags.parse(argc, argv, first); }
};

/// Writes `body` to `path` and echoes "wrote <path>". A failure throws
/// with the path and errno, and main exits 1 (runtime failure).
void writeFile(const std::string& path, const std::string& body) {
  check::writeTextFile(path, body);
  std::printf("wrote %s\n", path.c_str());
}

util::ValueParser fuArg(circuits::FuKind* out) {
  return [out](std::string_view slug) {
    return circuits::fuFromSlug(slug, out);
  };
}

int cmdFuList(Cli& cli) {
  if (!cli.parse()) return cli.flags.usage();
  std::printf("%-8s %8s %8s %7s\n", "fu", "gates", "nets", "depth");
  for (const circuits::FuKind kind : circuits::kAllFus) {
    const netlist::Netlist nl = circuits::buildFu(kind);
    std::printf("%-8s %8zu %8zu %7d\n",
                std::string(circuits::fuName(kind)).c_str(),
                nl.gateCount(), nl.netCount(), nl.depth());
  }
  return 0;
}

int cmdExportVerilog(Cli& cli) {
  circuits::FuKind kind{};
  std::string path;
  cli.flags.arg("<fu>", fuArg(&kind)).arg("<file.v>", util::text(&path));
  if (!cli.parse()) return cli.flags.usage();
  netlist::writeVerilogFile(path, circuits::buildFu(kind));
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

int cmdExportLib(Cli& cli) {
  std::string path;
  cli.flags.arg("<file.lib>", util::text(&path));
  if (!cli.parse()) return cli.flags.usage();
  liberty::LibertyLibrary library;
  library.cells = liberty::CellLibrary::defaultLibrary();
  liberty::writeLibertyFile(path, library);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

/// Declares the <fu> <V> <T> positionals that sdf, sta and
/// characterize start with.
util::Flags& fuCornerArgs(Cli& cli, circuits::FuKind* kind, double* v,
                          double* t) {
  return cli.flags.arg("<fu>", fuArg(kind))
      .arg("<V>", util::finite(v))
      .arg("<T>", util::finite(t));
}

int cmdSdf(Cli& cli) {
  circuits::FuKind kind{};
  double v = 0.0, t = 0.0;
  std::string path;
  fuCornerArgs(cli, &kind, &v, &t).arg("<file.sdf>", util::text(&path));
  if (!cli.parse()) return cli.flags.usage();
  core::FuContext context(kind);
  sdf::writeSdfFile(path, context.netlist(),
                    context.delaysAt({v, t}));
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

int cmdSta(Cli& cli) {
  circuits::FuKind kind{};
  double v = 0.0, t = 0.0;
  fuCornerArgs(cli, &kind, &v, &t);
  if (!cli.parse()) return cli.flags.usage();
  core::FuContext context(kind);
  std::printf("%s @ (%.2f V, %.0f C): critical path %.1f ps\n",
              std::string(circuits::fuName(kind)).c_str(), v, t,
              context.staCriticalPathPs({v, t}));
  return 0;
}

int cmdCharacterize(Cli& cli) {
  circuits::FuKind kind{};
  double v = 0.0, t = 0.0;
  long cycles = 0;
  std::string csv_path;
  fuCornerArgs(cli, &kind, &v, &t)
      .arg("<cycles>", util::count(&cycles))
      .arg("[csv-file]", util::text(&csv_path), util::Flags::Arity::kOptional);
  if (!cli.parse()) return cli.flags.usage();
  core::FuContext context(kind);
  util::Rng rng(1);
  const auto workload = dta::randomWorkloadFor(
      kind, static_cast<std::size_t>(cycles), rng);
  const dta::DtaTrace trace = context.characterize({v, t}, workload);
  const auto stats = trace.delayStats();
  std::printf("%s @ (%.2f V, %.0f C), %zu cycles:\n",
              std::string(circuits::fuName(kind)).c_str(), v, t,
              trace.samples.size());
  std::printf("  dynamic delay: mean %.1f ps, stddev %.1f ps, max %.1f "
              "ps\n",
              stats.mean(), stats.stddev(), stats.max());
  for (const double speedup : dta::kClockSpeedups) {
    const double tclk = dta::speedupClockPs(trace.baseClockPs(), speedup);
    std::printf("  TER @ +%2.0f%% speedup (%.1f ps): %.3f%%\n",
                speedup * 100.0, tclk,
                100.0 * trace.timingErrorRate(tclk));
  }
  if (!csv_path.empty()) {
    std::ostringstream csv;
    csv << "cycle,a,b,prev_a,prev_b,delay_ps\n";
    for (std::size_t i = 0; i < trace.samples.size(); ++i) {
      const dta::DtaSample& sample = trace.samples[i];
      csv << i << ',' << sample.a << ',' << sample.b << ','
          << sample.prev_a << ',' << sample.prev_b << ','
          << sample.delay_ps << '\n';
    }
    check::writeTextFile(csv_path, csv.str());
    std::printf("  wrote %s\n", csv_path.c_str());
  }
  return 0;
}

int cmdTrain(Cli& cli) {
  circuits::FuKind kind{};
  std::string model_path;
  long cycles = 1500;
  cli.flags.arg("<fu>", fuArg(&kind))
      .arg("<model-file>", util::text(&model_path))
      .arg("[cycles-per-corner]", util::count(&cycles),
           util::Flags::Arity::kOptional);
  if (!cli.parse()) return cli.flags.usage();
  util::ThreadPool pool(cli.jobs);
  core::FuContext context(kind);
  util::Rng rng(7);
  // Draw every workload sequentially first, so the training data is
  // identical for any --jobs value, then characterize on the pool.
  const auto corners = core::OperatingGrid::paper().subsampled(3, 3);
  std::vector<dta::Workload> workloads;
  std::vector<dta::CharacterizeJob> jobs;
  workloads.reserve(corners.size());
  for (std::size_t c = 0; c < corners.size(); ++c) {
    workloads.push_back(dta::randomWorkloadFor(
        kind, static_cast<std::size_t>(cycles), rng));
  }
  for (std::size_t c = 0; c < corners.size(); ++c) {
    jobs.push_back(context.characterizeJob(corners[c], workloads[c]));
  }
  std::vector<dta::DtaTrace> traces = dta::characterizeAll(jobs, pool);
  for (std::size_t c = 0; c < corners.size(); ++c) {
    std::printf("characterized (%.2f V, %3.0f C): mean %.1f ps\n",
                corners[c].voltage, corners[c].temperature,
                traces[c].meanDelayPs());
  }
  core::TevotModel model;
  model.train(traces, rng, &pool);
  model.save(model_path);
  std::printf("trained on %zu corners x %ld cycles (jobs=%zu); saved %s\n",
              traces.size(), cycles, pool.threadCount(),
              model_path.c_str());
  return 0;
}

int cmdPredict(Cli& cli) {
  std::string model_path;
  double v = 0.0, t = 0.0, tclk = 0.0;
  std::uint32_t a = 0, b = 0, prev_a = 0, prev_b = 0;
  cli.flags.arg("<model-file>", util::text(&model_path))
      .arg("<V>", util::finite(&v))
      .arg("<T>", util::finite(&t))
      .arg("<a>", util::word(&a))
      .arg("<b>", util::word(&b))
      .arg("<prev_a>", util::word(&prev_a))
      .arg("<prev_b>", util::word(&prev_b))
      .arg("[tclk_ps]", util::positive(&tclk), util::Flags::Arity::kOptional);
  if (!cli.parse()) return cli.flags.usage();
  const core::TevotModel model = core::TevotModel::load(model_path);
  const double delay =
      model.predictDelay(a, b, prev_a, prev_b, {v, t});
  std::printf("predicted dynamic delay: %.1f ps\n", delay);
  if (tclk > 0.0) {
    std::printf("at tclk = %.1f ps: %s\n", tclk,
                delay > tclk ? "TIMING ERROR" : "timing correct");
  }
  return 0;
}

int cmdCheck(Cli& cli) {
  int n_seeds = 25;
  std::uint64_t base_seed = check::kDefaultSeedBase;
  cli.flags
      .arg("[n-seeds]", util::count(&n_seeds), util::Flags::Arity::kOptional)
      .option("--seed", util::seed(&base_seed));
  if (!cli.parse()) return cli.flags.usage();
  // One context per FU so the per-corner delay caches are shared
  // across seeds (FuContext holds a mutex, hence the unique_ptrs).
  std::vector<std::unique_ptr<core::FuContext>> contexts;
  for (const circuits::FuKind kind : circuits::kAllFus) {
    contexts.push_back(std::make_unique<core::FuContext>(kind));
  }
  std::vector<std::pair<std::string, check::Property>> properties;
  properties.emplace_back("sim-vs-sta/random-netlist",
                          check::checkSimVsStaOnRandomNetlist);
  properties.emplace_back("sim-vs-sta/sensitized-chain",
                          check::checkSimMeetsStaOnChain);
  properties.emplace_back("sim-queue/random-netlist",
                          check::checkSimQueueOnRandomNetlist);
  for (auto& context : contexts) {
    core::FuContext* fu = context.get();
    const std::string name(circuits::fuName(fu->kind()));
    properties.emplace_back(
        "sim-vs-sta/" + name,
        [fu](std::uint64_t seed, util::Rng& rng) {
          check::checkSimVsStaOnFu(*fu, seed, rng);
        });
    properties.emplace_back(
        "sim-vs-ref/" + name,
        [fu](std::uint64_t seed, util::Rng& rng) {
          check::checkSimVsReferenceOnFu(*fu, seed, rng);
        });
    properties.emplace_back(
        "sim-queue/" + name,
        [fu](std::uint64_t seed, util::Rng& rng) {
          check::checkSimQueueOnFu(*fu, seed, rng);
        });
  }
  properties.emplace_back("model-round-trip", check::checkModelRoundTrip);
  properties.emplace_back("flat-forest/bit-identity",
                          check::checkFlatForestBitIdentity);
  properties.emplace_back("forest-fit/bit-identity",
                          check::checkForestFitBitIdentity);
  properties.emplace_back("forest-fit/tevot-rows",
                          check::checkForestFitOnTevotRows);
  properties.emplace_back("sweep/fault-tolerance",
                          check::checkSweepFaultTolerance);
  properties.emplace_back("serve/resilience", check::checkServeResilience);
  properties.emplace_back("fleet/resilience", check::checkFleetResilience);
  properties.emplace_back("dvfs/safety", check::checkDvfsSafety);
  properties.emplace_back("verify/bounds-containment",
                          check::checkVerifyBoundsContainment);
  properties.emplace_back("verify/certification",
                          check::checkVerifyCertification);
  if (util::envFlag("TEVOT_CHECK_FORCE_FAIL")) {
    // Internal self-test knob: a property that always fails, so the
    // exit-code taxonomy (3 = check failure) can be tested end to end.
    properties.emplace_back("self-test/forced-failure",
                            [](std::uint64_t, util::Rng&) {
                              check::expect(false, "forced failure");
                            });
  }

  bool ok = true;
  for (const auto& [name, property] : properties) {
    const check::PropertyResult result =
        check::forAllSeeds(base_seed, n_seeds, property);
    std::printf("%s\n", result.report(name).c_str());
    if (!result.ok) {
      std::printf("  reproduce: tevot_cli check 1 --seed %llu\n",
                  static_cast<unsigned long long>(result.failing_seed));
      ok = false;
    }
  }
  return ok ? kExitOk : kExitCheckFailed;
}

int cmdLint(Cli& cli) {
  std::vector<circuits::FuKind> kinds;
  bool all = false;
  std::string waiver_path;
  std::string json_path;
  std::string sdf_path;
  double budget_ps = 0.0;
  int grid_v = 3, grid_t = 3;
  circuits::FuKind kind{};
  cli.flags.flag("--all", &all)
      .option("--waivers", util::text(&waiver_path))
      .option("--json", util::text(&json_path))
      .option("--sdf", util::text(&sdf_path))
      .option("--budget", util::positive(&budget_ps))
      .option("--grid", util::grid(&grid_v, &grid_t))
      .arg("<fu>",
           [&](std::string_view slug) {
             if (!circuits::fuFromSlug(slug, &kind)) return false;
             kinds.push_back(kind);
             return true;
           },
           util::Flags::Arity::kAny);
  if (!cli.parse() || all == !kinds.empty()) return cli.flags.usage();
  if (all) kinds.assign(circuits::kAllFus.begin(), circuits::kAllFus.end());
  if (!sdf_path.empty() && kinds.size() != 1) {
    std::fprintf(stderr, "lint: --sdf applies to a single fu\n");
    return cli.flags.usage();
  }

  util::ThreadPool pool(cli.jobs);
  const liberty::CellLibrary library = liberty::CellLibrary::defaultLibrary();
  const liberty::VtModel vt_model;
  const std::vector<liberty::Corner> corners =
      core::OperatingGrid::paper().subsampled(grid_v, grid_t);
  const liberty::Corner nominal{vt_model.params().vnom,
                                vt_model.params().tnom_c};

  // Each FU lints into an indexed slot (rule execution inside runLint
  // is pool-parallel too), then slots are rendered in FU order — the
  // output is byte-identical for any --jobs value.
  struct FuLintOutput {
    std::string text;
    std::string json;
    bool clean = true;
  };
  std::vector<FuLintOutput> outputs(kinds.size());
  const auto lint_one = [&](std::size_t idx) {
    const netlist::Netlist nl = circuits::buildFu(kinds[idx]);
    // The SDF under test: an external file, or a write->parse round
    // trip of this netlist's own nominal-corner annotation (proving
    // the writer, the parser and the annotator agree end to end).
    liberty::CornerDelays sdf_delays;
    if (!sdf_path.empty()) {
      sdf_delays = sdf::parseSdfFile(sdf_path, nl);
    } else {
      const liberty::CornerDelays annotated =
          liberty::annotateCorner(nl, library, vt_model, nominal);
      sdf_delays = sdf::parseSdfString(sdf::toSdfString(nl, annotated), nl);
    }

    lint::LintContext ctx;
    ctx.netlist = &nl;
    ctx.library = &library;
    ctx.vt_model = &vt_model;
    ctx.corners = corners;
    ctx.sdf_delays = &sdf_delays;
    ctx.clock_budget_ps = budget_ps;

    lint::WaiverSet waivers;
    if (!waiver_path.empty()) {
      waivers = lint::WaiverSet::parseFile(waiver_path);
    }
    const lint::LintReport report = lint::runLint(ctx, &waivers, &pool);
    outputs[idx].text = report.toText();
    outputs[idx].json = report.toJson();
    outputs[idx].clean = report.clean();
  };
  if (kinds.size() > 1 && pool.threadCount() > 1) {
    pool.parallelFor(kinds.size(), lint_one);
  } else {
    for (std::size_t i = 0; i < kinds.size(); ++i) lint_one(i);
  }

  bool clean = true;
  std::string json;
  for (const FuLintOutput& out : outputs) {
    std::printf("%s", out.text.c_str());
    clean = clean && out.clean;
    if (!json.empty()) json += ",\n";
    json += out.json;
  }
  if (kinds.size() > 1) json = "[\n" + json + "]\n";
  if (json_path == "-") {
    std::printf("%s", json.c_str());
  } else if (!json_path.empty()) {
    writeFile(json_path, json);
  }
  return clean ? kExitOk : kExitCheckFailed;
}

/// "0.85 V, 25 C" -> "0v85_25c" — the per-corner checkpoint key stem.
std::string cornerSlug(const liberty::Corner& corner) {
  const int centivolts = static_cast<int>(corner.voltage * 100.0 + 0.5);
  const int degrees = static_cast<int>(corner.temperature + 0.5);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%dv%02d_%dc", centivolts / 100,
                centivolts % 100, degrees);
  return buf;
}

int cmdSweep(Cli& cli) {
  circuits::FuKind kind{};
  long cycles = 0;
  int grid_v = 3, grid_t = 3;
  std::uint64_t seed = 7;
  std::string report_path;
  dta::SweepOptions options;
  options.faults = &util::FaultInjector::global();
  cli.flags.arg("<fu>", fuArg(&kind))
      .arg("<cycles-per-corner>", util::inRange(&cycles, 2L))
      .option("--out", util::text(&options.checkpoint_dir))
      .option("--grid", util::grid(&grid_v, &grid_t))
      .option("--seed", util::seed(&seed))
      .flag("--resume", &options.resume)
      .option("--max-retries", util::inRange(&options.max_retries, 0))
      .option("--backoff-ms", util::nonNegative(&options.backoff_ms))
      .option("--job-deadline", util::nonNegative(&options.job_deadline_ms))
      .flag("--fail-fast", &options.fail_fast)
      .option("--report", util::text(&report_path));
  if (!cli.parse()) return cli.flags.usage();
  if (options.resume && options.checkpoint_dir.empty()) {
    std::fprintf(stderr, "sweep: --resume requires --out\n");
    return cli.flags.usage();
  }

  if (options.faults->armed()) {
    std::printf("faults armed: %s\n",
                options.faults->plan().spec().c_str());
  }

  // Cooperative interruption: the first SIGINT/SIGTERM stops new
  // corners from starting; the in-flight corner completes and flushes
  // its checkpoint so --resume always sees a consistent directory.
  util::SignalFlag stop{SIGINT, SIGTERM};
  options.stop_requested = [&stop] { return stop.raised(); };

  util::ThreadPool pool(cli.jobs);
  core::FuContext context(kind);
  const auto corners =
      core::OperatingGrid::paper().subsampled(grid_v, grid_t);
  // Workloads are drawn sequentially from one seed, so the job set is
  // identical across runs — the property --resume depends on.
  util::Rng rng(seed);
  std::vector<dta::Workload> workloads;
  workloads.reserve(corners.size());
  for (std::size_t c = 0; c < corners.size(); ++c) {
    workloads.push_back(dta::randomWorkloadFor(
        kind, static_cast<std::size_t>(cycles), rng));
  }
  std::vector<dta::CharacterizeJob> jobs;
  jobs.reserve(corners.size());
  for (std::size_t c = 0; c < corners.size(); ++c) {
    dta::CharacterizeJob job =
        context.characterizeJob(corners[c], workloads[c]);
    job.name = std::string(circuits::fuSlug(kind)) + "_" +
               cornerSlug(corners[c]);
    jobs.push_back(std::move(job));
  }

  const dta::SweepResult result = dta::runSweep(jobs, pool, options);
  std::printf("%s", result.report.toText().c_str());
  if (!report_path.empty()) writeFile(report_path, result.report.toText());
  if (stop.raised()) {
    std::printf(
        "sweep interrupted by signal %d; completed corners are "
        "checkpointed%s\n",
        stop.lastSignal(),
        options.checkpoint_dir.empty() ? "" : " — rerun with --resume");
    std::fflush(stdout);
    return kExitInterrupted;
  }
  return result.report.allOk() ? kExitOk : kExitRuntime;
}

// verify-model: interval certification over a trained model's whole
// feature domain (MV rule catalog, DESIGN.md §5h). Exit taxonomy
// matches lint: 0 clean, 3 unwaived error findings, 1/2 runtime/usage.
int cmdVerifyModel(Cli& cli) {
  std::string model_path;
  std::string waiver_path;
  std::string json_path;
  std::string cert_path;
  double tclk_ps = 0.0;
  long refine_budget = 4096;
  int grid_v = 0, grid_t = 0;  // 0 = the full paper grid corner set
  cli.flags.arg("<model-file>", util::text(&model_path))
      .option("--tclk", util::positive(&tclk_ps))
      .option("--refine-budget", util::count(&refine_budget))
      .option("--waivers", util::text(&waiver_path))
      .option("--json", util::text(&json_path))
      .option("--cert", util::text(&cert_path))
      .option("--grid", util::grid(&grid_v, &grid_t));
  if (!cli.parse()) return cli.flags.usage();
  if (!cert_path.empty() && tclk_ps <= 0.0) {
    std::fprintf(stderr, "verify-model: --cert requires --tclk\n");
    return cli.flags.usage();
  }

  const core::TevotModel model = core::TevotModel::load(model_path);
  verify::ModelVerifyContext ctx;
  ctx.model = &model;
  ctx.tclk_ps = tclk_ps;
  ctx.refine_budget = static_cast<std::size_t>(refine_budget);
  ctx.model_path = model_path;
  if (grid_v > 0) ctx.corners = ctx.grid.subsampled(grid_v, grid_t);
  lint::WaiverSet waivers;
  if (!waiver_path.empty()) {
    waivers = lint::WaiverSet::parseFile(waiver_path);
  }

  const verify::ModelVerifyResult result =
      verify::runModelVerify(ctx, &waivers);
  std::printf("%s", result.report.toText().c_str());
  const verify::SafeTclkCertificate& cert = result.certificate;
  std::printf(
      "guaranteed delay bound over the operating box: [%.3f, %.3f] ps\n",
      static_cast<double>(cert.bound_lo_ps),
      static_cast<double>(cert.bound_hi_ps));
  if (tclk_ps > 0.0) {
    std::printf("safe-tclk %.3f ps: %s\n", tclk_ps,
                cert.certified ? "CERTIFIED" : "NOT CERTIFIED");
  }

  if (json_path == "-") {
    std::printf("%s\n", result.report.toJson().c_str());
  } else if (!json_path.empty()) {
    writeFile(json_path, result.report.toJson() + "\n");
  }
  if (!cert_path.empty()) writeFile(cert_path, cert.toJson() + "\n");
  return result.report.clean() ? kExitOk : kExitCheckFailed;
}

int cmdServeCheck(Cli& cli) {
  int port = 0;
  std::string model_path;
  circuits::FuKind kind{};
  check::ServeDriveOptions options;
  std::uint64_t seed = 1;
  cli.flags.arg("<port>", util::port(&port, 1))
      .arg("<model-file>", util::text(&model_path))
      .arg("<fu>", fuArg(&kind))
      .option("--clients", util::count(&options.clients))
      .option("--requests", util::count(&options.requests_per_client))
      .option("--seed", util::seed(&seed));
  if (!cli.parse()) return cli.flags.usage();
  const core::TevotModel reference = core::TevotModel::load(model_path);
  try {
    check::driveAndVerifyServer(reference, std::string(circuits::fuSlug(kind)),
                                port, seed, options);
  } catch (const check::PropertyViolation& violation) {
    std::fprintf(stderr, "serve-check: FAIL: %s\n", violation.what());
    return kExitCheckFailed;
  }
  std::printf("serve-check: ok (%d clients x %d requests, seed %llu)\n",
              options.clients, options.requests_per_client,
              static_cast<unsigned long long>(seed));
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli{argc, argv};
  const std::string env_jobs = util::envString("TEVOT_JOBS", "");
  if (!env_jobs.empty() && !util::jobs(&cli.jobs)(env_jobs)) {
    std::fprintf(stderr, "tevot_cli: bad value for TEVOT_JOBS: '%s'\n",
                 env_jobs.c_str());
    return cli.flags.usage();
  }
  // --jobs may come before the command; every command accepts it too.
  cli.flags.option("--jobs", util::jobs(&cli.jobs));
  int at = argc;
  if (!cli.flags.parse(argc, argv, 1, &at) || at == argc) {
    return cli.flags.usage();
  }
  cli.first = at + 1;
  const std::pair<std::string_view, int (*)(Cli&)> commands[] = {
      {"fu-list", cmdFuList},           {"export-verilog", cmdExportVerilog},
      {"export-lib", cmdExportLib},     {"sdf", cmdSdf},
      {"sta", cmdSta},                  {"characterize", cmdCharacterize},
      {"train", cmdTrain},              {"predict", cmdPredict},
      {"check", cmdCheck},              {"sweep", cmdSweep},
      {"lint", cmdLint},                {"verify-model", cmdVerifyModel},
      {"serve-check", cmdServeCheck},
  };
  try {
    for (const auto& [name, run] : commands) {
      if (name == argv[at]) return run(cli);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "tevot_cli: %s\n", error.what());
    return kExitRuntime;
  }
  return cli.flags.usage();
}
