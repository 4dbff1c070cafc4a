#include "axc/logic/mul_netlists.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>

#include "axc/arith/multiplier.hpp"
#include "axc/arith/wallace.hpp"
#include "axc/logic/simulator.hpp"

namespace axc::logic {
namespace {

using arith::FullAdderKind;
using arith::Mul2x2Kind;

class Mul2x2NetlistEquivalence : public ::testing::TestWithParam<Mul2x2Kind> {
};

TEST_P(Mul2x2NetlistEquivalence, MatchesBehaviouralBlock) {
  const Mul2x2Kind kind = GetParam();
  const Netlist netlist = mul2x2_netlist(kind);
  Simulator sim(netlist);
  for (unsigned a = 0; a <= 3; ++a) {
    for (unsigned b = 0; b <= 3; ++b) {
      // Inputs a0,a1,b0,b1.
      const std::uint64_t word = (a & 3u) | ((b & 3u) << 2);
      EXPECT_EQ(sim.apply_word(word), arith::mul2x2(kind, a, b))
          << a << "x" << b;
    }
  }
}

TEST_P(Mul2x2NetlistEquivalence, ConfigurableMatchesBothModes) {
  const Mul2x2Kind kind = GetParam();
  const Netlist netlist = cfg_mul2x2_netlist(kind);
  Simulator sim(netlist);
  for (unsigned mode = 0; mode <= 1; ++mode) {
    for (unsigned a = 0; a <= 3; ++a) {
      for (unsigned b = 0; b <= 3; ++b) {
        const std::uint64_t word =
            (a & 3u) | ((b & 3u) << 2) |
            (static_cast<std::uint64_t>(mode) << 4);
        EXPECT_EQ(sim.apply_word(word),
                  arith::cfg_mul2x2(kind, a, b, mode != 0))
            << arith::mul2x2_name(kind) << " mode=" << mode << " " << a
            << "x" << b;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, Mul2x2NetlistEquivalence,
                         ::testing::ValuesIn(arith::kAllMul2x2Kinds),
                         [](const auto& info) {
                           return std::string(
                               arith::mul2x2_name(info.param));
                         });

TEST(Mul2x2Netlists, AreaRelationsMatchFig5Trends) {
  const double acc = mul2x2_netlist(Mul2x2Kind::Accurate).area_ge();
  const double soa = mul2x2_netlist(Mul2x2Kind::SoA).area_ge();
  const double ours = mul2x2_netlist(Mul2x2Kind::Ours).area_ge();
  const double cfg_soa = cfg_mul2x2_netlist(Mul2x2Kind::SoA).area_ge();
  const double cfg_ours = cfg_mul2x2_netlist(Mul2x2Kind::Ours).area_ge();
  EXPECT_LT(soa, acc);       // plain approximations are smaller
  EXPECT_LT(ours, acc);
  EXPECT_GT(cfg_soa, acc);   // SoA + correction adder exceeds accurate
  EXPECT_LT(cfg_ours, cfg_soa);  // our correction is cheaper (paper claim)
}

// Structural multiplier == behavioural ApproxMultiplier with the same
// configuration, across widths / blocks / adder approximations.
//
// gtest names an unprintable parameter by its raw bytes and
// gtest_discover_tests copies them into the CTest name, so the parameter
// structs here hold no padding and no pointers: every byte, label
// included, is the same in every build.
struct MulSpecCase {
  std::uint32_t width;
  std::uint32_t approx_lsbs;
  Mul2x2Kind block;
  FullAdderKind adder_cell;
  char label[14];

  MulNetlistSpec spec() const {
    return {width, block, adder_cell, approx_lsbs};
  }
};
static_assert(std::has_unique_object_representations_v<MulSpecCase>);

class MulNetlistEquivalence : public ::testing::TestWithParam<MulSpecCase> {};

TEST_P(MulNetlistEquivalence, MatchesBehaviouralMultiplier) {
  const MulNetlistSpec spec = GetParam().spec();
  arith::MultiplierConfig config;
  config.width = spec.width;
  config.block = spec.block;
  config.adder_cell = spec.adder_cell;
  config.approx_lsbs = spec.approx_lsbs;
  const arith::ApproxMultiplier model(config);

  const Netlist netlist = multiplier_netlist(spec);
  ASSERT_EQ(netlist.inputs().size(), 2u * spec.width);
  ASSERT_EQ(netlist.outputs().size(), 2u * spec.width);
  Simulator sim(netlist);
  const std::uint64_t limit = std::uint64_t{1} << spec.width;
  const std::uint64_t step = spec.width >= 8 ? 7 : 1;
  for (std::uint64_t a = 0; a < limit; a += step) {
    for (std::uint64_t b = 0; b < limit; b += step) {
      const std::uint64_t word = a | (b << spec.width);
      ASSERT_EQ(sim.apply_word(word), model.multiply(a, b))
          << "a=" << a << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, MulNetlistEquivalence,
    ::testing::Values(
        MulSpecCase{4, 0, Mul2x2Kind::Accurate, FullAdderKind::Accurate,
                    "exact4"},
        MulSpecCase{4, 0, Mul2x2Kind::SoA, FullAdderKind::Accurate, "soa4"},
        MulSpecCase{4, 2, Mul2x2Kind::Ours, FullAdderKind::Apx3,
                    "ours4apx"},
        MulSpecCase{8, 0, Mul2x2Kind::Accurate, FullAdderKind::Accurate,
                    "exact8"},
        MulSpecCase{8, 4, Mul2x2Kind::Ours, FullAdderKind::Apx2,
                    "ours8apx"}),
    [](const auto& info) { return std::string(info.param.label); });

TEST(MulNetlists, ExactMultiplierIsCorrect4Bit) {
  const Netlist netlist = multiplier_netlist({4, Mul2x2Kind::Accurate,
                                              FullAdderKind::Accurate, 0});
  Simulator sim(netlist);
  for (unsigned a = 0; a < 16; ++a) {
    for (unsigned b = 0; b < 16; ++b) {
      ASSERT_EQ(sim.apply_word(a | (b << 4)), a * b);
    }
  }
}

TEST(MulNetlists, AreaGrowsWithWidth) {
  double previous = 0.0;
  for (unsigned w = 2; w <= 16; w *= 2) {
    const double area =
        multiplier_netlist({w, Mul2x2Kind::Accurate,
                            FullAdderKind::Accurate, 0})
            .area_ge();
    EXPECT_GT(area, previous);
    previous = area;
  }
}

TEST(MulNetlists, ApproximationReducesArea) {
  const double exact =
      multiplier_netlist({8, Mul2x2Kind::Accurate, FullAdderKind::Accurate, 0})
          .area_ge();
  const double approx =
      multiplier_netlist({8, Mul2x2Kind::SoA, FullAdderKind::Apx5, 8})
          .area_ge();
  EXPECT_LT(approx, exact);
}

// Wallace netlist == behavioural WallaceMultiplier, including with
// approximate compressors (the dot diagrams must match bit-for-bit).
struct WallaceCase {
  std::uint32_t width;
  std::uint32_t approx_lsbs;
  arith::FullAdderKind cell;
  char label[15];
};
static_assert(std::has_unique_object_representations_v<WallaceCase>);

class WallaceNetlistEquivalence
    : public ::testing::TestWithParam<WallaceCase> {};

TEST_P(WallaceNetlistEquivalence, MatchesBehaviouralWallace) {
  const WallaceCase c = GetParam();
  const arith::WallaceMultiplier model(
      arith::WallaceConfig{c.width, c.cell, c.approx_lsbs});
  const Netlist nl = wallace_netlist(c.width, c.cell, c.approx_lsbs);
  ASSERT_EQ(nl.outputs().size(), 2u * c.width);
  Simulator sim(nl);
  const std::uint64_t limit = std::uint64_t{1} << c.width;
  const std::uint64_t step = c.width >= 8 ? 7 : 1;
  for (std::uint64_t a = 0; a < limit; a += step) {
    for (std::uint64_t b = 0; b < limit; b += step) {
      ASSERT_EQ(sim.apply_word(a | (b << c.width)), model.multiply(a, b))
          << model.name() << " a=" << a << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, WallaceNetlistEquivalence,
    ::testing::Values(
        WallaceCase{4, 0, arith::FullAdderKind::Accurate, "exact4"},
        WallaceCase{4, 3, arith::FullAdderKind::Apx3, "apx3_4"},
        WallaceCase{5, 4, arith::FullAdderKind::Apx2, "apx2_5"},
        WallaceCase{8, 0, arith::FullAdderKind::Accurate, "exact8"},
        WallaceCase{8, 6, arith::FullAdderKind::Apx4, "apx4_8"}),
    [](const auto& info) { return std::string(info.param.label); });

TEST(WallaceNetlist, ApproximationReducesArea) {
  const double exact =
      wallace_netlist(8, arith::FullAdderKind::Accurate, 0).area_ge();
  const double approx =
      wallace_netlist(8, arith::FullAdderKind::Apx5, 8).area_ge();
  EXPECT_LT(approx, exact);
}

TEST(MulNetlists, BadWidthRejected) {
  EXPECT_THROW(multiplier_netlist({3, Mul2x2Kind::Accurate,
                                   FullAdderKind::Accurate, 0}),
               std::invalid_argument);
  EXPECT_THROW(multiplier_netlist({32, Mul2x2Kind::Accurate,
                                   FullAdderKind::Accurate, 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace axc::logic
