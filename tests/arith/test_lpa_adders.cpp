// LOA and truncation are RippleAdder cell vectors; ETA-I keeps its own
// class. The LOA/Trunc suite names predate the fold into RippleAdder.
#include "axc/arith/lpa_adders.hpp"

#include <gtest/gtest.h>

#include "axc/designspace/static_adder.hpp"
#include "axc/error/evaluate.hpp"

namespace axc::arith {
namespace {

RippleAdder loa(unsigned width, unsigned k) {
  return RippleAdder(designspace::static_adder_cells(
      designspace::StaticAdderKind::Loa, width, k));
}

RippleAdder truncated(unsigned width, unsigned k) {
  return RippleAdder::lsb_approximated(width, FullAdderKind::Zero, k);
}

TEST(LoaAdder, ZeroApproxBitsIsExact) {
  const RippleAdder adder = loa(8, 0);
  EXPECT_TRUE(adder.is_exact());
  for (unsigned a = 0; a < 256; a += 3) {
    for (unsigned b = 0; b < 256; b += 7) {
      EXPECT_EQ(adder.add(a, b, 0), a + b);
    }
  }
}

TEST(LoaAdder, HandComputedCases) {
  const RippleAdder adder = loa(8, 4);
  // Low nibbles OR'd: 0b0101 | 0b0011 = 0b0111; carry = a3 & b3 = 0;
  // high: 0 + 0 = 0 -> result 0b0111.
  EXPECT_EQ(adder.add(0x05, 0x03, 0), 0x07u);
  // a = 0x1F, b = 0x0F: low = 0xF, carry = 1&1 = 1, high = 1+0+1 = 2.
  EXPECT_EQ(adder.add(0x1F, 0x0F, 0), 0x2Fu);
  // Upper part stays exact: 0xF0 + 0xF0 -> high 0xF+0xF = 0x1E -> 0x1E0.
  EXPECT_EQ(adder.add(0xF0, 0xF0, 0), 0x1E0u);
  // The OR cells have no carry input: a carry-in is absorbed.
  EXPECT_EQ(adder.add(0x05, 0x03, 1), 0x07u);
  EXPECT_EQ(adder.add(0x1F, 0x0F, 1), 0x2Fu);
}

TEST(LoaAdder, UpperBitsAlwaysWithinOneCarry) {
  // LOA's high part differs from exact by at most the mispredicted carry.
  const RippleAdder adder = loa(8, 4);
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      const std::int64_t high_exact = (a + b) >> 4;
      const std::int64_t high_loa =
          static_cast<std::int64_t>(adder.add(a, b, 0)) >> 4;
      EXPECT_LE(std::abs(high_loa - high_exact), 1) << a << "+" << b;
    }
  }
}

TEST(EtaiAdder, ZeroApproxBitsIsExact) {
  const EtaiAdder adder(8, 0);
  EXPECT_TRUE(adder.is_exact());
  EXPECT_EQ(adder.add(200, 55, 1), 256u);
}

TEST(EtaiAdder, SaturationSemantics) {
  const EtaiAdder adder(8, 4);
  // Low nibbles a=0b1010, b=0b0101: no (1,1) pair -> pure XOR = 0b1111.
  EXPECT_EQ(adder.add(0x0A, 0x05, 0) & 0xF, 0xFu);
  // a=0b1100, b=0b0100: bit2 has (1,1) -> bits 2..0 saturate; bit3 = XOR.
  // low = 1 (bit3: 1^0) 111 = 0b1111? bit3: a=1,b=0 -> 1; bits 2..0 -> 1.
  EXPECT_EQ(adder.add(0x0C, 0x04, 0) & 0xF, 0xFu);
  // a=0b0010, b=0b0001 -> XOR everywhere: 0b0011.
  EXPECT_EQ(adder.add(0x02, 0x01, 0) & 0xF, 0x3u);
}

TEST(EtaiAdder, NoCarryEverCrossesTheSplit) {
  const EtaiAdder adder(8, 4);
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      EXPECT_EQ(adder.add(a, b, 0) >> 4, (a >> 4) + (b >> 4));
    }
  }
}

TEST(TruncatedAdder, LowBitsAreZero) {
  const RippleAdder adder = truncated(8, 3);
  for (unsigned a = 0; a < 256; a += 5) {
    for (unsigned b = 0; b < 256; b += 3) {
      const std::uint64_t sum = adder.add(a, b, 0);
      EXPECT_EQ(sum & 0x7, 0u);
      EXPECT_EQ(sum >> 3, (a >> 3) + (b >> 3));
    }
  }
}

TEST(LpaAdders, QualityOrderingOverUniformInputs) {
  // For the same number of approximated bits, the literature's ordering of
  // mean error distance holds: ETAI/LOA track the low bits (small MED),
  // truncation discards them entirely (larger MED).
  const unsigned width = 10, k = 4;
  const auto med = [](const Adder& adder) {
    return error::evaluate_adder(adder).mean_error_distance;
  };
  const double loa_med = med(loa(width, k));
  const double etai_med = med(EtaiAdder(width, k));
  const double trunc_med = med(truncated(width, k));
  EXPECT_LT(loa_med, trunc_med);
  EXPECT_LT(etai_med, trunc_med);
  EXPECT_GT(loa_med, 0.0);
  EXPECT_GT(etai_med, 0.0);
}

TEST(LpaAdders, ShapeValidation) {
  EXPECT_THROW(loa(0, 0), std::invalid_argument);
  EXPECT_THROW(loa(8, 9), std::invalid_argument);
  EXPECT_THROW(EtaiAdder(64, 0), std::invalid_argument);
  EXPECT_THROW(truncated(8, 9), std::invalid_argument);
}

TEST(LpaAdders, Names) {
  EXPECT_EQ(loa(8, 4).name(), "Ripple<LowOr x3+LowOrCarry x1/8>");
  EXPECT_EQ(EtaiAdder(8, 4).name(), "ETAI(8,4)");
  EXPECT_EQ(truncated(8, 4).name(), "Ripple<Zero x4/8>");
}

}  // namespace
}  // namespace axc::arith
