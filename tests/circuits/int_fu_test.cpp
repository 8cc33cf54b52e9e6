// Functional-unit-level tests for the integer adder and multiplier
// netlists: exhaustive at small widths, randomized plus directed edge
// cases at 32 bits, and structural sanity (validation, gate census,
// depth ordering between architectures).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "circuits/fu.hpp"
#include "circuits/int_add.hpp"
#include "circuits/int_mul.hpp"
#include "util/rng.hpp"

namespace tevot::circuits {
namespace {

std::uint64_t evalFu(const netlist::Netlist& nl, std::uint32_t a,
                     std::uint32_t b) {
  const auto bits = encodeOperands(a, b);
  return nl.evalOutputsWord(bits);
}

TEST(IntAddFuTest, ExhaustiveSmallWidth) {
  for (const AdderArch arch : {AdderArch::kKoggeStone, AdderArch::kRipple,
                               AdderArch::kCarrySelect}) {
    netlist::Netlist nl = buildIntAdd(4, arch);
    nl.validate();
    for (std::uint32_t a = 0; a < 16; ++a) {
      for (std::uint32_t b = 0; b < 16; ++b) {
        std::vector<std::uint8_t> in;
        for (int i = 0; i < 4; ++i) {
          in.push_back(static_cast<std::uint8_t>((a >> i) & 1));
        }
        for (int i = 0; i < 4; ++i) {
          in.push_back(static_cast<std::uint8_t>((b >> i) & 1));
        }
        EXPECT_EQ(nl.evalOutputsWord(in), (a + b) & 0xf);
      }
    }
  }
}

TEST(IntAddFuTest, Random32BitMatchesReference) {
  netlist::Netlist nl = buildFu(FuKind::kIntAdd);
  nl.validate();
  ASSERT_EQ(nl.inputs().size(), 64u);
  ASSERT_EQ(nl.outputs().size(), 32u);
  util::Rng rng(101);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint32_t a = rng.nextU32();
    const std::uint32_t b = rng.nextU32();
    EXPECT_EQ(evalFu(nl, a, b), fuReference(FuKind::kIntAdd, a, b));
  }
}

TEST(IntAddFuTest, DirectedEdgeCases) {
  netlist::Netlist nl = buildFu(FuKind::kIntAdd);
  const std::uint32_t cases[] = {0u,          1u,          0xffffffffu,
                                 0x80000000u, 0x7fffffffu, 0x55555555u,
                                 0xaaaaaaaau, 0x0000ffffu, 0xffff0000u};
  for (const std::uint32_t a : cases) {
    for (const std::uint32_t b : cases) {
      EXPECT_EQ(evalFu(nl, a, b), a + b) << a << "+" << b;
    }
  }
}

TEST(IntAddFuTest, RippleIsDeeperThanKoggeStone) {
  const netlist::Netlist ks = buildIntAdd(32, AdderArch::kKoggeStone);
  const netlist::Netlist rc = buildIntAdd(32, AdderArch::kRipple);
  EXPECT_GT(rc.depth(), ks.depth());
  // Kogge-Stone trades depth for area.
  EXPECT_GT(ks.gateCount(), rc.gateCount());
}

TEST(IntMulFuTest, ExhaustiveSmallWidth) {
  netlist::Netlist nl = buildIntMul(5);
  nl.validate();
  for (std::uint32_t a = 0; a < 32; ++a) {
    for (std::uint32_t b = 0; b < 32; ++b) {
      std::vector<std::uint8_t> in;
      for (int i = 0; i < 5; ++i) {
        in.push_back(static_cast<std::uint8_t>((a >> i) & 1));
      }
      for (int i = 0; i < 5; ++i) {
        in.push_back(static_cast<std::uint8_t>((b >> i) & 1));
      }
      EXPECT_EQ(nl.evalOutputsWord(in), (a * b) & 0x1f);
    }
  }
}

TEST(IntMulFuTest, BoothExhaustiveSmallWidth) {
  netlist::Netlist nl = buildIntMul(6, MulArch::kBooth);
  nl.validate();
  for (std::uint32_t a = 0; a < 64; ++a) {
    for (std::uint32_t b = 0; b < 64; ++b) {
      std::vector<std::uint8_t> in;
      for (int i = 0; i < 6; ++i) {
        in.push_back(static_cast<std::uint8_t>((a >> i) & 1));
      }
      for (int i = 0; i < 6; ++i) {
        in.push_back(static_cast<std::uint8_t>((b >> i) & 1));
      }
      EXPECT_EQ(nl.evalOutputsWord(in), (a * b) & 0x3f)
          << a << "*" << b;
    }
  }
}

TEST(IntMulFuTest, BoothRandom32BitMatchesReference) {
  netlist::Netlist nl = buildIntMul(32, MulArch::kBooth);
  nl.validate();
  util::Rng rng(104);
  for (int trial = 0; trial < 400; ++trial) {
    const std::uint32_t a = rng.nextU32();
    const std::uint32_t b = rng.nextU32();
    EXPECT_EQ(evalFu(nl, a, b), a * b) << a << "*" << b;
  }
}

TEST(IntMulFuTest, BoothStructure) {
  // Booth recoding halves the addend rows entering the compressor
  // (16 partial products + corrections vs 32 AND rows), trading
  // row count for per-bit select logic.
  const netlist::Netlist booth = buildIntMul(32, MulArch::kBooth);
  const netlist::Netlist array =
      buildIntMul(32, MulArch::kCarrySaveArray);
  // Same interface, distinct structure: both are valid DTA targets.
  booth.validate();
  EXPECT_EQ(booth.inputs().size(), array.inputs().size());
  EXPECT_EQ(booth.outputs().size(), array.outputs().size());
  EXPECT_NE(booth.gateCount(), array.gateCount());
  EXPECT_THROW(buildIntMul(5, MulArch::kBooth), std::invalid_argument);
}

TEST(IntMulFuTest, Random32BitMatchesReference) {
  netlist::Netlist nl = buildFu(FuKind::kIntMul);
  nl.validate();
  util::Rng rng(103);
  for (int trial = 0; trial < 500; ++trial) {
    const std::uint32_t a = rng.nextU32();
    const std::uint32_t b = rng.nextU32();
    EXPECT_EQ(evalFu(nl, a, b), fuReference(FuKind::kIntMul, a, b));
  }
}

TEST(IntMulFuTest, DirectedEdgeCases) {
  netlist::Netlist nl = buildFu(FuKind::kIntMul);
  const std::uint32_t cases[] = {0u,          1u,          2u,
                                 0xffffffffu, 0x80000000u, 0x10001u,
                                 0xffffu,     0x12345678u};
  for (const std::uint32_t a : cases) {
    for (const std::uint32_t b : cases) {
      EXPECT_EQ(evalFu(nl, a, b), a * b) << a << "*" << b;
    }
  }
}

TEST(FuInterfaceTest, NamesAndShapes) {
  for (const FuKind kind : kAllFus) {
    const netlist::Netlist nl = buildFu(kind);
    EXPECT_EQ(nl.inputs().size(), 64u) << fuName(kind);
    EXPECT_EQ(nl.outputs().size(), 32u) << fuName(kind);
    EXPECT_GT(nl.gateCount(), 60u) << fuName(kind);
  }
  EXPECT_EQ(fuName(FuKind::kIntAdd), "INT ADD");
  EXPECT_EQ(fuName(FuKind::kFpMul), "FP MUL");
}

TEST(FuInterfaceTest, SlugLookupRoundTripsAndIsExact) {
  for (const FuKind kind : kAllFus) {
    FuKind parsed = kind == FuKind::kIntAdd ? FuKind::kFpMul : FuKind::kIntAdd;
    ASSERT_TRUE(fuFromSlug(fuSlug(kind), &parsed)) << fuSlug(kind);
    EXPECT_EQ(parsed, kind);
  }
  // The display name, the empty string, trailing bytes and unknown
  // names are refused and leave the output untouched.
  for (const char* bad : {"INT ADD", "", "int_add ", "bogus"}) {
    FuKind parsed = FuKind::kFpAdd;
    EXPECT_FALSE(fuFromSlug(bad, &parsed)) << "'" << bad << "'";
    EXPECT_EQ(parsed, FuKind::kFpAdd);
  }
}

TEST(FuInterfaceTest, MultiplierIsLargerThanAdder) {
  // Structural sanity used by the paper's "more complex circuit"
  // argument: the multipliers dwarf the adders.
  EXPECT_GT(buildFu(FuKind::kIntMul).gateCount(),
            3 * buildFu(FuKind::kIntAdd).gateCount());
}

TEST(FuInterfaceTest, EncodeOperandsLayout) {
  const auto bits = encodeOperands(0x00000001u, 0x80000000u);
  ASSERT_EQ(bits.size(), 64u);
  EXPECT_EQ(bits[0], 1);   // a LSB
  EXPECT_EQ(bits[31], 0);  // a MSB
  EXPECT_EQ(bits[32], 0);  // b LSB
  EXPECT_EQ(bits[63], 1);  // b MSB
}

}  // namespace
}  // namespace tevot::circuits
