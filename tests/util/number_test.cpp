// The shared number grammar (util/number.hpp). Every text reader parses
// numbers through it, so its table here is the one place a spelling is
// decided.
#include "util/number.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

namespace tevot::util {
namespace {

bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::string printed(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

TEST(NumberGrammarTest, WriterSpellingsReadBackExactly) {
  const double values[] = {0.0,   -0.0,    DBL_TRUE_MIN, 1e-310, 0.87,
                           1.0 / 3.0, -1.5, DBL_MAX,      25.0};
  for (const double value : values) {
    // %a and %.17g round-trip every double bit for bit.
    for (const char* format : {"%a", "%A", "%.17g"}) {
      const std::string text = printed(format, value);
      double back = 1.0;
      ASSERT_TRUE(parseWhole(text, &back)) << text;
      EXPECT_TRUE(sameBits(back, value)) << text;
    }
  }
  // %.3f (the stats line's percentiles) reads as the nearest double.
  double back = 0.0;
  ASSERT_TRUE(parseWhole(printed("%.3f", 0.4871), &back));
  EXPECT_EQ(back, 0.487);
  ASSERT_TRUE(parseWhole(printed("%.3f", -1.5), &back));
  EXPECT_EQ(back, -1.5);
  // A hexfloat without a binary exponent, and a lower-case prefix.
  ASSERT_TRUE(parseWhole("0X1.8", &back));
  EXPECT_EQ(back, 1.5);
}

TEST(NumberGrammarTest, RefusesEverythingElse) {
  const char* bad[] = {
      "+1",     "--1",    "0x-1p0", "-0x-1p0", "0x",     "-",
      " 1",     "1 ",     "1e400",  "1e-400",  "1_",     "",
      "-0x",    "0xp0",   "0x1p",   "0xinf",   "0xnan",  "+0x1p0",
      "1p0",    "0x1p+1024", "0x1p-1080", "1,5",  "0x1p0x", "- 1",
  };
  for (const char* text : bad) {
    double value = 42.0;
    EXPECT_FALSE(parseWhole(text, &value)) << "'" << text << "'";
    EXPECT_EQ(value, 42.0) << "'" << text << "' wrote its output";
  }
}

TEST(NumberGrammarTest, FiniteRefusesNanAndInf) {
  double value = 7.0;
  for (const char* text : {"nan", "-nan", "inf", "-inf", "infinity"}) {
    double any = 0.0;
    EXPECT_TRUE(parseWhole(text, &any)) << text;
    EXPECT_FALSE(parseFinite(text, &value)) << text;
  }
  EXPECT_EQ(value, 7.0);
  EXPECT_TRUE(parseFinite("-0x1.8p+0", &value));
  EXPECT_EQ(value, -1.5);
}

TEST(NumberGrammarTest, IntegersAreWholeAndInRange) {
  std::uint32_t word = 0;
  EXPECT_TRUE(parseWhole("4294967295", &word));
  EXPECT_EQ(word, 0xffffffffu);
  for (const char* text : {"4294967296", "4294967297", "-1", "+1", "1.0",
                           "0x1", " 1", "1 ", "", "5junk"}) {
    EXPECT_FALSE(parseWhole(text, &word)) << "'" << text << "'";
  }
  std::uint8_t byte = 0;
  EXPECT_TRUE(parseWhole("00ff", &byte, 16));
  EXPECT_EQ(byte, 0xff);
  EXPECT_FALSE(parseWhole("0100", &byte, 16));
  std::int64_t signed_value = 0;
  EXPECT_TRUE(parseWhole("-25", &signed_value));
  EXPECT_EQ(signed_value, -25);
  std::uint64_t prefixed = 0;
  EXPECT_TRUE(parsePrefixed("0x1F", &prefixed));
  EXPECT_EQ(prefixed, 31u);
  EXPECT_TRUE(parsePrefixed("010", &prefixed));
  EXPECT_EQ(prefixed, 8u);
  EXPECT_FALSE(parsePrefixed("0x", &prefixed));
  EXPECT_FALSE(parsePrefixed("0x-1", &prefixed));
}

}  // namespace
}  // namespace tevot::util
