// The benches read their TEVOT_* environment knobs through util::Flags:
// a malformed or out-of-range value is a usage error (exit 2, "bad
// value for <knob>") reported before any work, never a silent
// fallback to the default. Binary paths are compiled in.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

/// Runs `binary` with `assignment` (NAME=value) in its environment.
RunResult runWith(const std::string& assignment, const std::string& binary) {
  const std::string command = assignment + " '" + binary + "' 2>&1";
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  std::size_t n;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

void expectUsageError(const std::string& assignment,
                      const std::string& binary, const std::string& knob,
                      const std::string& value) {
  const RunResult result = runWith(assignment, binary);
  EXPECT_EQ(result.exit_code, 2) << assignment << "\n" << result.output;
  EXPECT_NE(result.output.find("bad value for " + knob + ": '" + value + "'"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("usage:"), std::string::npos)
      << result.output;
}

TEST(BenchEnvTest, BenchScaleKnobsRejectGarbage) {
  expectUsageError("TEVOT_JOBS=abc", FIG3_BINARY, "TEVOT_JOBS", "abc");
  expectUsageError("TEVOT_JOBS=-1", FIG3_BINARY, "TEVOT_JOBS", "-1");
  expectUsageError("TEVOT_TRAIN_CYCLES=12x", FIG3_BINARY,
                   "TEVOT_TRAIN_CYCLES", "12x");
  expectUsageError("TEVOT_GRID_V=2.5", FIG3_BINARY, "TEVOT_GRID_V", "2.5");
  expectUsageError("TEVOT_IMAGE_SIZE=0", FIG3_BINARY, "TEVOT_IMAGE_SIZE",
                   "0");
}

TEST(BenchEnvTest, DvfsKnobsRejectGarbage) {
  expectUsageError("TEVOT_DVFS_WINDOW=abc", DVFS_BINARY,
                   "TEVOT_DVFS_WINDOW", "abc");
  expectUsageError("TEVOT_DVFS_GUARDBAND=-5", DVFS_BINARY,
                   "TEVOT_DVFS_GUARDBAND", "-5");
  expectUsageError("TEVOT_DVFS_SEED=0xzz", DVFS_BINARY, "TEVOT_DVFS_SEED",
                   "0xzz");
  // BenchScale's knobs apply to this bench too.
  expectUsageError("TEVOT_JOBS=many", DVFS_BINARY, "TEVOT_JOBS", "many");
}

TEST(BenchEnvTest, ServingBenchKnobsRejectGarbage) {
  expectUsageError("TEVOT_PREDICT_THREADS=-1", PREDICT_BINARY,
                   "TEVOT_PREDICT_THREADS", "-1");
  expectUsageError("TEVOT_PREDICT_ROWS=1e3", PREDICT_BINARY,
                   "TEVOT_PREDICT_ROWS", "1e3");
  // Out of range: refused before any client thread starts.
  expectUsageError("TEVOT_SERVE_CLIENTS=5000", SERVE_LATENCY_BINARY,
                   "TEVOT_SERVE_CLIENTS", "5000");
}

}  // namespace
