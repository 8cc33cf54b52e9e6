// tevot_dvfs — closed-loop adaptive-clocking driver (src/dvfs/).
//
//   tevot_dvfs --cert-dir DIR (--model-dir DIR | --serve-port P)
//              [--fus a,b,...|--all] [--cycles N] [--window N]
//              [--seed N] [--guardband F] [--hysteresis F]
//              [--escape-budget N] [--deadline-ms MS] [--jobs N]
//              [--json PATH] [--trace-dir DIR] [--label TEXT]
//
// Runs the fault-tolerant DVFS controller over a seeded synthetic
// operand stream per FU: the model (in-process from --model-dir, or
// live over the wire against a tevot_serve on --serve-port) picks the
// per-window clock, every window is ground-truthed against the event
// simulator, and any degraded model answer falls back to the
// certified safe clock loaded from <cert-dir>/<fu>.cert.json (the
// `tevot_cli verify-model --cert` output). A missing or unusable
// certificate refuses adaptive mode for that FU — reported, never a
// crash.
//
// --json writes the machine-readable report (per-FU counters,
// throughput gain vs the worst-case clock); --trace-dir writes the
// per-window decision trace as <fu>.trace. Reports and traces are
// byte-identical across reruns with the same seed in in-process mode
// at any --jobs; with --serve-port the server's fault/request id
// space is shared across FUs, so exact trace reproducibility
// additionally requires --jobs 1.
//
// Exit codes: 0 adaptive clocking ran with zero unrecovered
// violations, 1 runtime failure (no FU could run), 2 usage error
// (including a malformed or out-of-range value: the port 1..65535,
// --cycles >= 2, --window >= 1, --jobs 0..util::kMaxJobs, --guardband,
// --hysteresis and --deadline-ms finite and >= 0), 3 unrecovered
// violations (escapes) remain after recovery.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dvfs/run.hpp"
#include "tevot/model.hpp"
#include "util/flags.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"
#include "verify/certificate_io.hpp"

namespace {

using namespace tevot;

constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;
constexpr int kExitEscapes = 3;

const std::string kUsage =
    "usage: tevot_dvfs --cert-dir DIR (--model-dir DIR | --serve-port P)\n"
    "                  [--fus a,b,...|--all] [--cycles N] [--window N]\n"
    "                  [--seed N] [--guardband F] [--hysteresis F]\n"
    "                  [--escape-budget N] [--deadline-ms MS]\n"
    "                  [--jobs N] [--json PATH] [--trace-dir DIR]\n"
    "                  [--label TEXT]\n"
    "P in 1..65535, --cycles >= 2, other N >= 1 (--escape-budget >= 0,\n"
    "--jobs 0.." + std::to_string(util::kMaxJobs) +
    " with 0 = hardware threads), F and MS finite and >= 0,\n"
    "seed N decimal, 0x hex or 0 octal\n";

/// "a,b,..." -> the named units; empty segments are skipped, an
/// unknown name or an empty list refuses the value.
util::ValueParser fuList(std::vector<circuits::FuKind>* out) {
  return [out](std::string_view text) {
    std::vector<circuits::FuKind> kinds;
    while (!text.empty()) {
      const std::size_t comma = std::min(text.find(','), text.size());
      circuits::FuKind kind{};
      if (comma > 0) {
        if (!circuits::fuFromSlug(text.substr(0, comma), &kind)) return false;
        kinds.push_back(kind);
      }
      text.remove_prefix(std::min(comma + 1, text.size()));
    }
    if (kinds.empty()) return false;
    *out = std::move(kinds);
    return true;
  };
}

}  // namespace

int main(int argc, char** argv) {
  std::string model_dir;
  std::string cert_dir;
  std::string json_path;
  std::string trace_dir;
  std::string label = "default";
  std::vector<circuits::FuKind> kinds = {circuits::FuKind::kIntAdd};
  dvfs::RunOptions options;
  std::size_t jobs = 1;

  util::Flags flags("tevot_dvfs", kUsage);
  flags.option("--model-dir", util::text(&model_dir))
      .option("--cert-dir", util::text(&cert_dir))
      .option("--serve-port", util::port(&options.serve_port, 1))
      .option("--fus", fuList(&kinds))
      .flag("--all",
            [&] {
              kinds.assign(circuits::kAllFus.begin(), circuits::kAllFus.end());
            })
      .option("--cycles", util::inRange<std::size_t>(&options.stream.cycles, 2))
      .option("--window", util::count(&options.stream.window))
      .option("--seed", util::seed(&options.stream.seed))
      .option("--guardband", util::nonNegative(&options.controller.guardband))
      .option("--hysteresis",
              util::nonNegative(&options.controller.hysteresis))
      .option("--escape-budget", util::inRange<std::uint64_t>(
                                     &options.controller.escape_budget, 0))
      .option("--deadline-ms", util::nonNegative(&options.deadline_ms))
      .option("--jobs", util::jobs(&jobs))
      .option("--json", util::text(&json_path))
      .option("--trace-dir", util::text(&trace_dir))
      .option("--label", util::text(&label));
  if (!flags.parse(argc, argv)) return flags.usage();
  if (cert_dir.empty()) {
    std::fprintf(stderr, "tevot_dvfs: --cert-dir is required\n");
    return flags.usage();
  }
  if (model_dir.empty() && options.serve_port == 0) {
    std::fprintf(stderr,
                 "tevot_dvfs: need --model-dir (in-process) or "
                 "--serve-port (live)\n");
    return flags.usage();
  }

  // Build the per-FU setups. Model-load failures in in-process mode
  // and certificate problems both degrade to a per-FU refusal.
  std::vector<dvfs::FuSetup> fus;
  std::vector<std::unique_ptr<core::TevotModel>> models;
  for (const circuits::FuKind kind : kinds) {
    const std::string slug(circuits::fuSlug(kind));
    dvfs::FuSetup setup;
    setup.kind = kind;
    setup.cert_status = verify::loadCertificateFile(
        cert_dir + "/" + slug + ".cert.json", &setup.cert);
    if (options.serve_port == 0) {
      try {
        models.push_back(std::make_unique<core::TevotModel>(
            core::TevotModel::load(model_dir + "/" + slug + ".model")));
        setup.model = models.back().get();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "tevot_dvfs: %s: cannot load model: %s\n",
                     slug.c_str(), e.what());
        continue;
      }
    }
    fus.push_back(std::move(setup));
  }
  if (fus.empty()) {
    std::fprintf(stderr, "tevot_dvfs: no usable FU\n");
    return kExitRuntime;
  }

  util::ThreadPool pool(jobs);
  dvfs::RunReport run;
  try {
    run = dvfs::runDvfs(fus, options, pool);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tevot_dvfs: %s\n", e.what());
    return kExitRuntime;
  }

  std::uint64_t escapes = 0;
  std::size_t ran = 0;
  for (const dvfs::DvfsReport& report : run.fus) {
    if (!report.status.ok()) {
      std::printf("tevot_dvfs: %s: refused adaptive mode: %s\n",
                  report.fu.c_str(), report.status.message.c_str());
      continue;
    }
    ++ran;
    escapes += report.escapes;
    std::printf(
        "tevot_dvfs: %s: %zu windows (%zu adaptive, %zu fallback) "
        "gain %.3fx viol=%llu recovered=%llu escapes=%llu\n",
        report.fu.c_str(), report.windows, report.adaptive_windows,
        report.fallback_windows, report.gain(),
        static_cast<unsigned long long>(report.violations),
        static_cast<unsigned long long>(report.recovered),
        static_cast<unsigned long long>(report.escapes));
    if (!trace_dir.empty()) {
      const std::string path = trace_dir + "/" + report.fu + ".trace";
      std::ofstream out(path);
      if (!out) {
        std::fprintf(stderr, "tevot_dvfs: cannot write %s\n", path.c_str());
        return kExitRuntime;
      }
      out << report.trace;
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "tevot_dvfs: cannot write %s\n",
                   json_path.c_str());
      return kExitRuntime;
    }
    out << run.toJson(label) << "\n";
    std::fprintf(stderr, "tevot_dvfs: wrote %s\n", json_path.c_str());
  }

  if (ran == 0) {
    std::fprintf(stderr, "tevot_dvfs: no FU ran adaptively\n");
    return kExitRuntime;
  }
  if (escapes > 0) {
    std::fprintf(stderr,
                 "tevot_dvfs: %llu unrecovered violation(s) escaped "
                 "recovery\n",
                 static_cast<unsigned long long>(escapes));
    return kExitEscapes;
  }
  return kExitOk;
}
