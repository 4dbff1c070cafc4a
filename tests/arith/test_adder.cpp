#include "axc/arith/adder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "axc/common/bits.hpp"
#include "axc/common/rng.hpp"

namespace axc::arith {
namespace {

TEST(ExactAdder, MatchesArithmeticExhaustively8Bit) {
  const ExactAdder adder(8);
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      EXPECT_EQ(adder.add(a, b, 0), a + b);
      EXPECT_EQ(adder.add(a, b, 1), a + b + 1u);
    }
  }
}

TEST(ExactAdder, MasksHighOperandBits) {
  const ExactAdder adder(4);
  EXPECT_EQ(adder.add(0xF5, 0x01, 0), 0x6u);
}

TEST(ExactAdder, WidthValidation) {
  EXPECT_THROW(ExactAdder(0), std::invalid_argument);
  EXPECT_THROW(ExactAdder(64), std::invalid_argument);
  EXPECT_NO_THROW(ExactAdder(63));
}

TEST(RippleAdder, AllAccurateCellsEqualExact) {
  const RippleAdder ripple =
      RippleAdder::lsb_approximated(8, FullAdderKind::Apx3, 0);
  EXPECT_TRUE(ripple.is_exact());
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      EXPECT_EQ(ripple.add(a, b, 0), a + b);
    }
  }
}

// For an LSB-approximated ripple adder the upper bits can only be wrong
// through the carry crossing the boundary, so the absolute error is
// bounded by the weight of the approximated region.
class RippleErrorBound
    : public ::testing::TestWithParam<std::tuple<FullAdderKind, unsigned>> {};

TEST_P(RippleErrorBound, ErrorBoundedByApproxRegion) {
  const auto [kind, lsbs] = GetParam();
  const unsigned width = 8;
  const RippleAdder adder = RippleAdder::lsb_approximated(width, kind, lsbs);
  // Worst case: every approximated sum bit wrong (2^lsbs - 1) plus a wrong
  // carry into the accurate region propagating fully (2^width+ ... bounded
  // by 2^(width+1)); the practically useful bound asserted here is that
  // the error never exceeds the full output range and the *typical* bound
  // 2^(lsbs+1) holds for the carry-preserving variants.
  std::uint64_t worst = 0;
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      const std::uint64_t approx = adder.add(a, b, 0);
      const std::uint64_t exact = a + b;
      const std::uint64_t err =
          approx > exact ? approx - exact : exact - approx;
      worst = std::max(worst, err);
    }
  }
  if (lsbs == 0) {
    EXPECT_EQ(worst, 0u);
  } else {
    EXPECT_GT(worst, 0u);  // approximation must actually bite
    EXPECT_LT(worst, std::uint64_t{1} << (width + 1));
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndWidths, RippleErrorBound,
    ::testing::Combine(::testing::Values(FullAdderKind::Apx1,
                                         FullAdderKind::Apx2,
                                         FullAdderKind::Apx3,
                                         FullAdderKind::Apx4,
                                         FullAdderKind::Apx5),
                       ::testing::Values(0u, 2u, 4u, 6u)));

TEST(RippleAdder, MoreApproxLsbsNeverReducesErrorRate8Bit) {
  for (const FullAdderKind kind :
       {FullAdderKind::Apx2, FullAdderKind::Apx3, FullAdderKind::Apx5}) {
    double previous_rate = -1.0;
    for (unsigned lsbs = 0; lsbs <= 8; lsbs += 2) {
      const RippleAdder adder =
          RippleAdder::lsb_approximated(8, kind, lsbs);
      unsigned errors = 0;
      for (unsigned a = 0; a < 256; ++a) {
        for (unsigned b = 0; b < 256; ++b) {
          errors += adder.add(a, b, 0) != a + b;
        }
      }
      const double rate = errors / 65536.0;
      EXPECT_GE(rate, previous_rate) << full_adder_name(kind) << " lsbs "
                                     << lsbs;
      previous_rate = rate;
    }
  }
}

TEST(RippleAdder, NameSummarizesLayout) {
  EXPECT_EQ(RippleAdder::lsb_approximated(8, FullAdderKind::Apx3, 4).name(),
            "Ripple<ApxFA3 x4/8>");
  EXPECT_EQ(RippleAdder::lsb_approximated(8, FullAdderKind::Apx3, 0).name(),
            "Ripple<AccuFA/8>");
  // Any other layout: its runs, LSB first, up to the top approximate cell.
  EXPECT_EQ(RippleAdder({FullAdderKind::Apx1, FullAdderKind::Accurate,
                         FullAdderKind::Zero, FullAdderKind::Zero,
                         FullAdderKind::Accurate})
                .name(),
            "Ripple<ApxFA1 x1+AccuFA x1+Zero x2/5>");
}

TEST(RippleAdder, ValidationRejectsBadShapes) {
  EXPECT_THROW(RippleAdder({}), std::invalid_argument);
  EXPECT_THROW(RippleAdder::lsb_approximated(4, FullAdderKind::Apx1, 5),
               std::invalid_argument);
}

TEST(SubtractVia, ExactAdderGivesTwosComplement) {
  const ExactAdder adder(8);
  EXPECT_EQ(subtract_via(adder, 10, 3) & 0xFF, 7u);
  EXPECT_EQ(bit_of(subtract_via(adder, 10, 3), 8), 1u);  // no borrow
  // 3 - 10 = -7 -> 0xF9 two's complement, borrow (carry 0).
  EXPECT_EQ(subtract_via(adder, 3, 10) & 0xFF, 0xF9u);
  EXPECT_EQ(bit_of(subtract_via(adder, 3, 10), 8), 0u);
}

TEST(AbsDiffVia, ExactAdderGivesAbsoluteDifference) {
  const ExactAdder adder(8);
  for (unsigned a = 0; a < 256; a += 7) {
    for (unsigned b = 0; b < 256; b += 5) {
      const std::uint64_t expected = a > b ? a - b : b - a;
      EXPECT_EQ(abs_diff_via(adder, a, b), expected) << a << " " << b;
    }
  }
}

TEST(AbsDiffVia, ApproximateAdderStaysClose) {
  // With 2 approximated LSBs, |SAD cell error| stays within a few LSB
  // weights — the property the motion-estimation case study relies on.
  const RippleAdder adder =
      RippleAdder::lsb_approximated(8, FullAdderKind::Apx3, 2);
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    const unsigned a = static_cast<unsigned>(rng.bits(8));
    const unsigned b = static_cast<unsigned>(rng.bits(8));
    const std::uint64_t exact = a > b ? a - b : b - a;
    const std::uint64_t approx = abs_diff_via(adder, a, b);
    const std::uint64_t err =
        approx > exact ? approx - exact : exact - approx;
    EXPECT_LE(err, 16u) << a << " " << b;
  }
}

// ---------------------------------------------------------------------------
// The compiled adder against the per-bit reference loop.

/// Whether \p adder.add equals ripple_add_reference on one input triple.
/// Bits above the width and above bit 0 of the carry are garbage the
/// reference ignores.
::testing::AssertionResult matches_reference(const RippleAdder& adder,
                                             std::uint64_t a, std::uint64_t b,
                                             unsigned carry_in) {
  const std::uint64_t got = adder.add(a, b, carry_in);
  const std::uint64_t want =
      ripple_add_reference(adder.cells(), a, b, carry_in);
  if (got == want) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << adder.name() << " a=" << a << " b=" << b << " cin=" << carry_in
         << ": " << got << " != reference " << want;
}

/// Garbage for the bits at and above \p width.
std::uint64_t junk_above(Rng& rng, unsigned width) {
  return rng() << width;
}

constexpr std::uint64_t kOnes = ~std::uint64_t{0};

/// A random carry-in word: bit 0 is the carry, the rest is garbage.
unsigned random_carry(Rng& rng) { return static_cast<unsigned>(rng()); }

class CompiledRippleAdder : public ::testing::TestWithParam<FullAdderKind> {};

// Exhaustive over a, b and cin for widths 1-8 and every k. The reference
// costs ~20 ns per bit, so widths 9-12 exhaustively would take minutes;
// they are in the seeded sweep below.
TEST_P(CompiledRippleAdder, EqualsReferenceExhaustivelyUpToWidth8) {
  const FullAdderKind kind = GetParam();
  Rng rng(static_cast<std::uint64_t>(kind) + 11);
  for (unsigned width = 1; width <= 8; ++width) {
    for (unsigned k = 0; k <= width; ++k) {
      const RippleAdder adder = RippleAdder::lsb_approximated(width, kind, k);
      const std::uint64_t junk_a = junk_above(rng, width);
      const std::uint64_t junk_b = junk_above(rng, width);
      for (std::uint64_t a = 0; a < (std::uint64_t{1} << width); ++a) {
        for (std::uint64_t b = 0; b < (std::uint64_t{1} << width); ++b) {
          for (unsigned cin = 0; cin < 2; ++cin) {
            ASSERT_TRUE(matches_reference(adder, a | junk_a, b | junk_b,
                                          cin | static_cast<unsigned>(a << 1)));
          }
        }
      }
    }
  }
}

TEST_P(CompiledRippleAdder, EqualsReferenceOnSeededInputsUpToWidth63) {
  const FullAdderKind kind = GetParam();
  Rng rng(static_cast<std::uint64_t>(kind) + 101);
  for (unsigned width = 9; width <= 63; ++width) {
    for (unsigned k = 0; k <= width; ++k) {
      const RippleAdder adder = RippleAdder::lsb_approximated(width, kind, k);
      for (int i = 0; i < 64; ++i) {
        ASSERT_TRUE(matches_reference(adder, rng(), rng(), random_carry(rng)));
      }
      // All-ones operands push a carry through every cell.
      ASSERT_TRUE(matches_reference(adder, kOnes, kOnes, 1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, CompiledRippleAdder, ::testing::ValuesIn(kAllCellKinds),
    [](const ::testing::TestParamInfo<FullAdderKind>& info) {
      return std::string(full_adder_name(info.param));
    });

TEST(CompiledRippleAdder, FullWidthApproximationHasNoUndefinedShift) {
  // k = width = 63: sixteen chunks, the last one padded past the width.
  for (const FullAdderKind kind : kAllCellKinds) {
    const RippleAdder adder = RippleAdder::lsb_approximated(63, kind, 63);
    Rng rng(63);
    for (int i = 0; i < 4096; ++i) {
      ASSERT_TRUE(matches_reference(adder, rng(), rng(), random_carry(rng)));
    }
    ASSERT_TRUE(matches_reference(adder, kOnes, kOnes, 1));
    ASSERT_TRUE(matches_reference(adder, 0, 0, 0));
  }
}

TEST(CompiledRippleAdder, MixedNonPrefixLayoutsEqualReference) {
  Rng rng(2024);
  for (int layout = 0; layout < 400; ++layout) {
    const unsigned width = 1 + static_cast<unsigned>(rng.below(63));
    std::vector<FullAdderKind> cells(width);
    for (FullAdderKind& cell : cells) {
      // Accurate cells inside the approximate region, approximate cells
      // high up, and everything between.
      cell = kAllCellKinds[rng.below(kCellKindCount)];
    }
    const RippleAdder adder(cells);
    EXPECT_EQ(adder.is_exact(),
              std::all_of(cells.begin(), cells.end(), [](FullAdderKind k) {
                return k == FullAdderKind::Accurate;
              }));
    for (int i = 0; i < 256; ++i) {
      ASSERT_TRUE(matches_reference(adder, rng(), rng(), random_carry(rng)));
    }
  }
  // Exhaustive on two hand-picked 8-bit layouts: accurate cells between
  // approximate ones, and one approximate cell at the MSB.
  const std::vector<std::vector<FullAdderKind>> layouts = {
      {FullAdderKind::Apx3, FullAdderKind::Accurate, FullAdderKind::Apx1,
       FullAdderKind::Accurate, FullAdderKind::Accurate, FullAdderKind::Apx5,
       FullAdderKind::Accurate, FullAdderKind::Accurate},
      {FullAdderKind::Accurate, FullAdderKind::Accurate,
       FullAdderKind::Accurate, FullAdderKind::Accurate,
       FullAdderKind::Accurate, FullAdderKind::Accurate,
       FullAdderKind::Accurate, FullAdderKind::Apx4},
  };
  for (const auto& cells : layouts) {
    const RippleAdder adder(cells);
    for (std::uint64_t a = 0; a < 256; ++a) {
      for (std::uint64_t b = 0; b < 256; ++b) {
        ASSERT_TRUE(matches_reference(adder, a, b, 0));
        ASSERT_TRUE(matches_reference(adder, a, b, 1));
      }
    }
  }
}

TEST(CompiledRippleAdder, ConcurrentConstructionSharesCorrectTables) {
  // Every thread builds the same adders at once, racing on the table
  // intern; each must still equal the reference.
  constexpr int kThreads = 8;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &failures] {
      Rng rng(static_cast<std::uint64_t>(t));
      for (const FullAdderKind kind : kAllCellKinds) {
        for (unsigned width = 1; width <= 16; ++width) {
          for (unsigned k = 0; k <= width; ++k) {
            const RippleAdder adder =
                RippleAdder::lsb_approximated(width, kind, k);
            for (int i = 0; i < 16; ++i) {
              const std::uint64_t a = rng();
              const std::uint64_t b = rng();
              const unsigned cin = static_cast<unsigned>(rng() & 1u);
              failures[t] += adder.add(a, b, cin) !=
                             ripple_add_reference(adder.cells(), a, b, cin);
            }
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
}

TEST(AbsDiffVia, ConcreteAndVirtualCallsAgree) {
  const RippleAdder ripple =
      RippleAdder::lsb_approximated(8, FullAdderKind::Apx2, 4);
  const Adder& virtual_view = ripple;
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      ASSERT_EQ(abs_diff_via(ripple, a, b), abs_diff_via(virtual_view, a, b));
    }
  }
}

}  // namespace
}  // namespace axc::arith
