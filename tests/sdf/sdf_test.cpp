// SDF writer/parser tests: bit-exact round-trip of annotated corner
// delays, header handling, and rejection of malformed or mismatched
// input.
#include "sdf/sdf.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "circuits/int_add.hpp"
#include "circuits/fu.hpp"

namespace tevot::sdf {
namespace {

liberty::CornerDelays annotate(const netlist::Netlist& nl,
                               liberty::Corner corner) {
  return liberty::annotateCorner(nl,
                                 liberty::CellLibrary::defaultLibrary(),
                                 liberty::VtModel(), corner);
}

TEST(SdfTest, RoundTripBitExact) {
  const netlist::Netlist nl =
      circuits::buildIntAdd(8, circuits::AdderArch::kRipple);
  const liberty::CornerDelays original = annotate(nl, {0.87, 62.5});
  const std::string text = toSdfString(nl, original);
  const liberty::CornerDelays parsed = parseSdfString(text, nl);
  EXPECT_DOUBLE_EQ(parsed.corner.voltage, 0.87);
  EXPECT_DOUBLE_EQ(parsed.corner.temperature, 62.5);
  ASSERT_EQ(parsed.gateCount(), original.gateCount());
  for (std::size_t g = 0; g < original.gateCount(); ++g) {
    EXPECT_EQ(parsed.rise_ps[g], original.rise_ps[g]) << "gate " << g;
    EXPECT_EQ(parsed.fall_ps[g], original.fall_ps[g]) << "gate " << g;
  }
}

TEST(SdfTest, RoundTripLargeUnit) {
  const netlist::Netlist nl = circuits::buildFu(circuits::FuKind::kFpMul);
  const liberty::CornerDelays original = annotate(nl, {0.81, 100.0});
  const liberty::CornerDelays parsed =
      parseSdfString(toSdfString(nl, original), nl);
  for (std::size_t g = 0; g < original.gateCount(); ++g) {
    ASSERT_EQ(parsed.rise_ps[g], original.rise_ps[g]);
    ASSERT_EQ(parsed.fall_ps[g], original.fall_ps[g]);
  }
}

TEST(SdfTest, HeaderContainsFlowFields) {
  const netlist::Netlist nl =
      circuits::buildIntAdd(4, circuits::AdderArch::kRipple);
  const std::string text = toSdfString(nl, annotate(nl, {0.9, 50.0}));
  EXPECT_NE(text.find("(DELAYFILE"), std::string::npos);
  EXPECT_NE(text.find("(SDFVERSION \"3.0\")"), std::string::npos);
  EXPECT_NE(text.find("(DESIGN \"int_add4_rc\")"), std::string::npos);
  EXPECT_NE(text.find("(TIMESCALE 1ps)"), std::string::npos);
  EXPECT_NE(text.find("IOPATH"), std::string::npos);
}

TEST(SdfTest, DesignMismatchRejected) {
  const netlist::Netlist nl =
      circuits::buildIntAdd(4, circuits::AdderArch::kRipple);
  const std::string text = toSdfString(nl, annotate(nl, {0.9, 50.0}));
  const netlist::Netlist other =
      circuits::buildIntAdd(4, circuits::AdderArch::kKoggeStone);
  EXPECT_THROW(parseSdfString(text, other), std::runtime_error);
}

TEST(SdfTest, MalformedInputRejected) {
  const netlist::Netlist nl =
      circuits::buildIntAdd(4, circuits::AdderArch::kRipple);
  EXPECT_THROW(parseSdfString("", nl), std::runtime_error);
  EXPECT_THROW(parseSdfString("(DELAYFILE", nl), std::runtime_error);
  EXPECT_THROW(parseSdfString("(WRONGFILE )", nl), std::runtime_error);
  // Truncated cell list: count mismatch must be caught.
  const std::string text = toSdfString(nl, annotate(nl, {0.9, 50.0}));
  const std::size_t last_cell = text.rfind("  (CELL");
  std::string truncated = text.substr(0, last_cell);
  truncated += ")\n";
  EXPECT_THROW(parseSdfString(truncated, nl), std::runtime_error);
}

TEST(SdfTest, NegativeDelayRejected) {
  const netlist::Netlist nl =
      circuits::buildIntAdd(4, circuits::AdderArch::kRipple);
  liberty::CornerDelays delays = annotate(nl, {0.9, 50.0});
  delays.fall_ps[2] = -1.5;
  const std::string text = toSdfString(nl, delays);
  try {
    parseSdfString(text, nl);
    FAIL() << "negative delay accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("negative delay"),
              std::string::npos)
        << error.what();
  }
  // -0 is not negative: it parses as a zero delay.
  delays.fall_ps[2] = -0.0;
  EXPECT_EQ(parseSdfString(toSdfString(nl, delays), nl).fall_ps[2], 0.0);
}

TEST(SdfTest, FileRoundTrip) {
  const netlist::Netlist nl =
      circuits::buildIntAdd(6, circuits::AdderArch::kRipple);
  const liberty::CornerDelays original = annotate(nl, {0.93, 25.0});
  const std::string path = ::testing::TempDir() + "/tevot_test.sdf";
  writeSdfFile(path, nl, original);
  const liberty::CornerDelays parsed = parseSdfFile(path, nl);
  for (std::size_t g = 0; g < original.gateCount(); ++g) {
    EXPECT_EQ(parsed.rise_ps[g], original.rise_ps[g]);
  }
  std::remove(path.c_str());
  EXPECT_THROW(parseSdfFile(path, nl), std::runtime_error);
}

}  // namespace
}  // namespace tevot::sdf
