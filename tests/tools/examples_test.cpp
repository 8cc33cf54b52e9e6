// The examples parse their positionals strictly: a malformed value is
// a usage error (exit 2) reported before any characterization work,
// never a silent default or an abort. Binary paths are compiled in.
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

RunResult run(const std::string& binary, const std::string& args) {
  const std::string command = "'" + binary + "' " + args + " 2>&1";
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

TEST(ExamplesTest, ImageQualityMalformedVoltageIsUsageError) {
  const RunResult result = run(IMAGE_QUALITY_BINARY, "abc");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("bad value for [voltage]: 'abc'"),
            std::string::npos);
  EXPECT_NE(result.output.find("usage: image_quality"), std::string::npos);
}

TEST(ExamplesTest, GuardbandExplorerMalformedClockIsUsageError) {
  const RunResult result = run(GUARDBAND_EXPLORER_BINARY, "abc");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("bad value for [clock_ps]: 'abc'"),
            std::string::npos);
  EXPECT_NE(result.output.find("usage: guardband_explorer"),
            std::string::npos);
}

}  // namespace
