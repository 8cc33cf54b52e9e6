// Environment-knob parsing, exercised through setenv.
#include "util/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace tevot::util {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void SetVar(const char* value) {
    ::setenv("TEVOT_TEST_VAR", value, 1);
  }
  void TearDown() override { ::unsetenv("TEVOT_TEST_VAR"); }
};

TEST_F(EnvTest, StringFallbacks) {
  ::unsetenv("TEVOT_TEST_VAR");
  EXPECT_EQ(envString("TEVOT_TEST_VAR", "dflt"), "dflt");
  SetVar("");
  EXPECT_EQ(envString("TEVOT_TEST_VAR", "dflt"), "dflt");
  SetVar("value");
  EXPECT_EQ(envString("TEVOT_TEST_VAR", "dflt"), "value");
}

TEST_F(EnvTest, FlagParsing) {
  ::unsetenv("TEVOT_TEST_VAR");
  EXPECT_FALSE(envFlag("TEVOT_TEST_VAR"));
  EXPECT_TRUE(envFlag("TEVOT_TEST_VAR", true));
  for (const char* yes : {"1", "true", "TRUE", "Yes", "on"}) {
    SetVar(yes);
    EXPECT_TRUE(envFlag("TEVOT_TEST_VAR")) << yes;
  }
  for (const char* no : {"0", "false", "off", "banana"}) {
    SetVar(no);
    EXPECT_FALSE(envFlag("TEVOT_TEST_VAR")) << no;
  }
}

}  // namespace
}  // namespace tevot::util
