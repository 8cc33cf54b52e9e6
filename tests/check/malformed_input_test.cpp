// Malformed-input smoke tests for every text format the toolchain
// parses (SDF, Liberty, VCD): empty input, truncation at arbitrary
// byte offsets, non-finite numbers, and plain garbage must all raise
// a typed std::runtime_error — never crash, never return a silently
// partial parse. Truncation sweeps cut a VALID document at every
// prefix length, which walks the parser into every mid-token state.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "circuits/fu.hpp"
#include "liberty/lib_format.hpp"
#include "netlist/netlist.hpp"
#include "sdf/sdf.hpp"
#include "tevot/pipeline.hpp"
#include "vcd/vcd.hpp"

namespace tevot {
namespace {

/// A real netlist + SDF pair to truncate and corrupt.
class MalformedSdfTest : public testing::Test {
 protected:
  MalformedSdfTest() : context_(circuits::FuKind::kIntAdd) {
    sdf_text_ = sdf::toSdfString(context_.netlist(),
                                 context_.delaysAt({0.9, 50.0}));
  }
  core::FuContext context_;
  std::string sdf_text_;
};

TEST_F(MalformedSdfTest, ValidTextRoundTrips) {
  EXPECT_NO_THROW(sdf::parseSdfString(sdf_text_, context_.netlist()));
}

TEST_F(MalformedSdfTest, EmptyAndGarbageAreTypedErrors) {
  EXPECT_THROW(sdf::parseSdfString("", context_.netlist()),
               std::runtime_error);
  EXPECT_THROW(sdf::parseSdfString("hello world", context_.netlist()),
               std::runtime_error);
  EXPECT_THROW(
      sdf::parseSdfString("(DELAYFILE (BOGUS))", context_.netlist()),
      std::runtime_error);
}

TEST_F(MalformedSdfTest, EveryTruncationIsATypedError) {
  // Step 7 keeps the sweep fast while still hitting every token kind.
  // The bound excludes "full document minus the trailing newline",
  // which is the one prefix that parses.
  for (std::size_t cut = 0; cut + 1 < sdf_text_.size(); cut += 7) {
    EXPECT_THROW(
        sdf::parseSdfString(sdf_text_.substr(0, cut), context_.netlist()),
        std::runtime_error)
        << "prefix of " << cut << " bytes parsed";
  }
}

TEST_F(MalformedSdfTest, NonFiniteDelaysAreRejected) {
  EXPECT_THROW(
      sdf::parseSdfString("(DELAYFILE (VOLTAGE nan:nan:nan))",
                          context_.netlist()),
      std::runtime_error);
  EXPECT_THROW(
      sdf::parseSdfString("(DELAYFILE (TEMPERATURE inf:inf:inf))",
                          context_.netlist()),
      std::runtime_error);
  // A non-finite IOPATH delay inside an otherwise valid file.
  std::string mutated = sdf_text_;
  const std::size_t iopath = mutated.find("(IOPATH * ");
  ASSERT_NE(iopath, std::string::npos);
  const std::size_t open = mutated.find('(', iopath + 10);
  const std::size_t close = mutated.find(')', open);
  ASSERT_NE(close, std::string::npos);
  mutated.replace(open, close - open + 1, "(inf:inf:inf)");
  EXPECT_THROW(sdf::parseSdfString(mutated, context_.netlist()),
               std::runtime_error);
}

TEST_F(MalformedSdfTest, BadInstanceNumbersAreRejected) {
  EXPECT_THROW(sdf::parseSdfString(
                   "(DELAYFILE (CELL (CELLTYPE \"nand2\") "
                   "(INSTANCE gXYZ)))",
                   context_.netlist()),
               std::runtime_error);
  EXPECT_THROW(sdf::parseSdfString(
                   "(DELAYFILE (CELL (CELLTYPE \"nand2\") "
                   "(INSTANCE g999999999)))",
                   context_.netlist()),
               std::runtime_error);
  // In an otherwise valid file: 2^32 must not wrap to gate 0, and an
  // instance number takes no sign.
  ASSERT_NE(sdf_text_.find("(INSTANCE g0)"), std::string::npos);
  for (const char* instance : {"g4294967296", "g+0", "g-0"}) {
    std::string mutated = sdf_text_;
    mutated.replace(mutated.find("(INSTANCE g0)"), 13,
                    std::string("(INSTANCE ") + instance + ")");
    EXPECT_THROW(sdf::parseSdfString(mutated, context_.netlist()),
                 std::runtime_error)
        << instance;
  }
}

TEST_F(MalformedSdfTest, SignedOrUnderflowingNumbersAreRejected) {
  // An IOPATH delay inside an otherwise valid file: '+' and a real
  // that underflows to zero are refused, a hexfloat is read.
  const std::size_t iopath = sdf_text_.find("(IOPATH * ");
  ASSERT_NE(iopath, std::string::npos);
  const std::size_t open = sdf_text_.find('(', iopath + 10);
  const std::size_t close = sdf_text_.find(')', open);
  ASSERT_NE(close, std::string::npos);
  const auto with_delay = [&](const std::string& triple) {
    std::string mutated = sdf_text_;
    mutated.replace(open, close - open + 1, triple);
    return mutated;
  };
  EXPECT_THROW(sdf::parseSdfString(with_delay("(+1:+1:+1)"),
                                   context_.netlist()),
               std::runtime_error);
  EXPECT_THROW(sdf::parseSdfString(with_delay("(1e-400:1e-400:1e-400)"),
                                   context_.netlist()),
               std::runtime_error);
  EXPECT_NO_THROW(sdf::parseSdfString(with_delay("(0x1p+4:0x1p+4:0x1p+4)"),
                                      context_.netlist()));
}

class MalformedLibertyTest : public testing::Test {
 protected:
  MalformedLibertyTest() {
    liberty::LibertyLibrary library;
    library.cells = liberty::CellLibrary::defaultLibrary();
    lib_text_ = liberty::toLibertyString(library);
  }
  std::string lib_text_;
};

TEST_F(MalformedLibertyTest, ValidTextRoundTrips) {
  EXPECT_NO_THROW(liberty::parseLibertyString(lib_text_));
}

TEST_F(MalformedLibertyTest, EmptyAndGarbageAreTypedErrors) {
  EXPECT_THROW(liberty::parseLibertyString(""), std::runtime_error);
  EXPECT_THROW(liberty::parseLibertyString("not a library"),
               std::runtime_error);
  EXPECT_THROW(liberty::parseLibertyString("library (x) { cell (zzz) {} }"),
               std::runtime_error);
}

TEST_F(MalformedLibertyTest, EveryTruncationIsATypedError) {
  for (std::size_t cut = 0; cut + 1 < lib_text_.size(); cut += 11) {
    EXPECT_THROW(liberty::parseLibertyString(lib_text_.substr(0, cut)),
                 std::runtime_error)
        << "prefix of " << cut << " bytes parsed";
  }
}

TEST_F(MalformedLibertyTest, NonFiniteNumbersAreRejected) {
  EXPECT_THROW(
      liberty::parseLibertyString("library (x) { nom_voltage : nan ; }"),
      std::runtime_error);
  EXPECT_THROW(
      liberty::parseLibertyString("library (x) { nom_voltage : inf ; }"),
      std::runtime_error);
  EXPECT_THROW(
      liberty::parseLibertyString(
          "library (x) { nom_voltage : 0.9abc ; }"),
      std::runtime_error);
  EXPECT_THROW(
      liberty::parseLibertyString("library (x) { nom_voltage : +0.9 ; }"),
      std::runtime_error);
}

TEST(MalformedVcdTest, EmptyAndGarbageAreTypedErrors) {
  EXPECT_THROW(vcd::parseVcdString("what even is this"),
               std::runtime_error);
  EXPECT_THROW(vcd::parseVcdString("$var wire 1 ! clk"),  // missing $end
               std::runtime_error);
  EXPECT_THROW(vcd::parseVcdString("$var wire 32 ! bus $end"),
               std::runtime_error);
}

TEST(MalformedVcdTest, BadTimestampsAreTypedErrors) {
  const std::string header =
      "$var wire 1 ! clk $end $enddefinitions $end ";
  EXPECT_THROW(vcd::parseVcdString(header + "#12abc 1!"),
               std::runtime_error);
  EXPECT_THROW(vcd::parseVcdString(header + "# 1!"), std::runtime_error);
  EXPECT_THROW(vcd::parseVcdString(header + "#99999999999999999999999 1!"),
               std::runtime_error);
  EXPECT_NO_THROW(vcd::parseVcdString(header + "#5 1!"));
  // A negative time is not 2^64 - 1, and a time takes no sign.
  EXPECT_THROW(vcd::parseVcdString(header + "#-1 1!"), std::runtime_error);
  EXPECT_THROW(vcd::parseVcdString(header + "#+5 1!"), std::runtime_error);
}

TEST(MalformedVcdTest, ChangesBeforeDefinitionsOrUnknownSignalsFail) {
  EXPECT_THROW(vcd::parseVcdString("1!"), std::runtime_error);
  EXPECT_THROW(vcd::parseVcdString(
                   "$var wire 1 ! clk $end $enddefinitions $end #0 1\""),
               std::runtime_error);
}

}  // namespace
}  // namespace tevot
