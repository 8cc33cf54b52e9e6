// tevot_perfbench: runs one benchmark workload and prints its figures.
//
//   tevot_perfbench --workload characterize|predict|serve|dvfs
//                   --seed N --seconds S --trace 0|1
//                   [--size full|tiny] [--corrupt CHECK] [--out-dir DIR]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Untraced runs (--trace 0)
// report the end-to-end metrics, traced runs every per-layer metric.
// The exit code is 0 when every output check passed, 1 when one
// failed, 2 on a usage error and 3 when the run could not complete.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

int usage(const char* message) {
  std::fprintf(stderr,
               "tevot_perfbench: %s\n"
               "usage: tevot_perfbench --workload "
               "characterize|predict|serve|dvfs --seed N --seconds S "
               "--trace 0|1 [--size full|tiny] [--corrupt CHECK] "
               "[--out-dir DIR]\n",
               message);
  return 2;
}

bool parseArgs(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") return false;
      options.tiny = value == "tiny";
    } else if (flag == "--corrupt") {
      options.corrupt = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void printMetric(bool& first, const std::string& name, double value,
                 const std::string& unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              first ? "" : ", ", name.c_str(), value, unit.c_str());
  first = false;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parseArgs(argc, argv, options)) return usage("bad arguments");
  const std::string& w = options.workload;
  if (w != "characterize" && w != "predict" && w != "serve" && w != "dvfs") {
    return usage("unknown workload");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);

  Report report(options);
  std::printf("workload %s, seed %llu, %.3g s%s%s\n", w.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? ", traced" : "",
              options.tiny ? ", tiny inputs" : "");
  std::fflush(stdout);
  try {
    if (w == "characterize") perfbench::runCharacterize(options, report);
    if (w == "predict") perfbench::runPredict(options, report);
    if (w == "serve") perfbench::runServe(options, report);
    if (w == "dvfs") perfbench::runDvfs(options, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tevot_perfbench: %s failed: %s\n", w.c_str(),
                 e.what());
    return 3;
  }

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  if (options.trace) {
    for (const auto& [name, unit] : perfbench::layerMetricUnits()) {
      const auto it = report.layers().find(name);
      metrics.push_back(
          {name, {it == report.layers().end() ? 0.0 : it->second, unit}});
    }
  } else {
    metrics = {
        {"setup_s", {report.setup_s, "s"}},
        {"peak_rss_mb", {peakRssMb(), "MB"}},
        {"throughput_per_s", {report.throughput_per_s, "1/s"}},
        {"p50_ms", {report.p50_ms, "ms"}},
    };
  }
  for (auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.first)) {
      report.expect(false, "metrics", name + " is not finite");
      metric.first = 0.0;
    }
  }
  const double fail_frac = report.attempted == 0
                               ? 1.0
                               : static_cast<double>(report.failed) /
                                     static_cast<double>(report.attempted);
  report.say("fail_frac", fail_frac,
             std::to_string(report.failed) + " failed of " +
                 std::to_string(report.attempted) + " attempted");
  const bool correct = report.correct() && report.attempted > 0;
  const std::uint64_t failed =
      correct ? report.failed : std::max<std::uint64_t>(1, report.failed);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  1, report.attempted)),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    printMetric(first, name, metric.first, metric.second);
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
