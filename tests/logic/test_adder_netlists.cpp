#include "axc/logic/adder_netlists.hpp"

#include <gtest/gtest.h>

#include "axc/arith/adder.hpp"
#include "axc/logic/simulator.hpp"

namespace axc::logic {
namespace {

using arith::FullAdderKind;
using arith::GeArConfig;

// The hand-mapped gate-level full adders must agree with the behavioural
// truth tables of Table III on every input row.
class FaNetlistEquivalence : public ::testing::TestWithParam<FullAdderKind> {
};

TEST_P(FaNetlistEquivalence, MatchesBehaviouralModel) {
  const FullAdderKind kind = GetParam();
  const Netlist netlist = full_adder_netlist(kind);
  Simulator sim(netlist);
  for (unsigned w = 0; w < 8; ++w) {
    const unsigned a = w & 1u, b = (w >> 1) & 1u, cin = (w >> 2) & 1u;
    const auto expect = arith::full_add(kind, a, b, cin);
    const std::uint64_t got = sim.apply_word(w);
    EXPECT_EQ(got & 1u, expect.sum) << "row " << w;
    EXPECT_EQ((got >> 1) & 1u, expect.carry) << "row " << w;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FaNetlistEquivalence,
                         ::testing::ValuesIn(arith::kAllCellKinds),
                         [](const auto& info) {
                           return std::string(
                               arith::full_adder_name(info.param));
                         });

TEST(FaNetlists, AreaOrderingMatchesApproximationDepth) {
  // Our substrate's areas won't equal the paper's GE values, but the
  // qualitative ordering must hold: the accurate adder is the largest and
  // the wiring-only ApxFA5 is exactly zero.
  const double acc = full_adder_netlist(FullAdderKind::Accurate).area_ge();
  for (const FullAdderKind kind : arith::kAllFullAdderKinds) {
    const double area = full_adder_netlist(kind).area_ge();
    EXPECT_LE(area, acc) << arith::full_adder_name(kind);
  }
  EXPECT_DOUBLE_EQ(full_adder_netlist(FullAdderKind::Apx5).area_ge(), 0.0);
  EXPECT_EQ(full_adder_netlist(FullAdderKind::Apx5).gate_count(), 0u);
}

TEST(RippleNetlist, EquivalentToBehaviouralRipple8Bit) {
  for (const FullAdderKind kind :
       {FullAdderKind::Accurate, FullAdderKind::Apx3, FullAdderKind::Apx5}) {
    const arith::RippleAdder model =
        arith::RippleAdder::lsb_approximated(8, kind, 4);
    const Netlist netlist = ripple_adder_netlist(model.cells());
    Simulator sim(netlist);
    for (unsigned a = 0; a < 256; a += 5) {
      for (unsigned b = 0; b < 256; b += 3) {
        // Netlist inputs are a0..a7 then b0..b7.
        const std::uint64_t word = a | (static_cast<std::uint64_t>(b) << 8);
        ASSERT_EQ(sim.apply_word(word), model.add(a, b, 0))
            << arith::full_adder_name(kind) << " a=" << a << " b=" << b;
      }
    }
  }
}

// Every cell at every low-part size: the gate mapping of add_full_adder
// (including the shared tie-low of the carry-dropping cells) equals the
// compiled behavioural ripple on all 6-bit operand pairs.
TEST(RippleNetlist, EveryCellLayoutMatchesBehaviourAtWidth6) {
  constexpr unsigned kWidth = 6;
  for (const FullAdderKind kind : arith::kAllCellKinds) {
    for (unsigned k = 0; k <= kWidth; ++k) {
      const arith::RippleAdder model =
          arith::RippleAdder::lsb_approximated(kWidth, kind, k);
      const Netlist netlist = ripple_adder_netlist(model.cells());
      Simulator sim(netlist);
      for (std::uint64_t a = 0; a < (1u << kWidth); ++a) {
        for (std::uint64_t b = 0; b < (1u << kWidth); ++b) {
          ASSERT_EQ(sim.apply_word(a | (b << kWidth)), model.add(a, b, 0))
              << model.name() << " a=" << a << " b=" << b;
        }
      }
    }
  }
}

TEST(RippleNetlist, WidthMismatchRejected) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId z = nl.add_const(false);
  const std::vector<FullAdderKind> cells(2, FullAdderKind::Accurate);
  const std::vector<NetId> one = {a};
  const std::vector<NetId> two = {a, b};
  EXPECT_THROW(add_ripple_adder(nl, one, two, z, cells),
               std::invalid_argument);
}

class GearNetlistEquivalence : public ::testing::TestWithParam<GeArConfig> {
};

TEST_P(GearNetlistEquivalence, MatchesBehaviouralGeAr) {
  const GeArConfig config = GetParam();
  const arith::GeArAdder model(config);
  const Netlist netlist = gear_adder_netlist(config);
  ASSERT_EQ(netlist.inputs().size(), 2u * config.n);
  ASSERT_EQ(netlist.outputs().size(), config.n + 1u);
  Simulator sim(netlist);
  const std::uint64_t limit = std::uint64_t{1} << config.n;
  for (std::uint64_t a = 0; a < limit; a += 3) {
    for (std::uint64_t b = 0; b < limit; b += 5) {
      const std::uint64_t word = a | (b << config.n);
      ASSERT_EQ(sim.apply_word(word), model.add(a, b, 0))
          << config.name() << " a=" << a << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GearNetlistEquivalence,
    ::testing::Values(GeArConfig{6, 2, 2}, GeArConfig{8, 2, 2},
                      GeArConfig{8, 2, 4}, GeArConfig{8, 1, 1},
                      GeArConfig{12, 4, 4}),
    [](const auto& info) {
      const auto& c = info.param;
      return "N" + std::to_string(c.n) + "R" + std::to_string(c.r) + "P" +
             std::to_string(c.p);
    });

TEST(GearNetlist, AreaGrowsWithP) {
  // Redundant overlap computation: more prediction bits => more area.
  const double small = gear_adder_netlist({16, 2, 2}).area_ge();
  const double large = gear_adder_netlist({16, 2, 6}).area_ge();
  EXPECT_LT(small, large);
}

TEST(GearNetlist, ExactConfigMatchesPlainRipple) {
  // L == N degenerates to one full-width ripple adder.
  const Netlist gear = gear_adder_netlist({8, 4, 4});
  const std::vector<FullAdderKind> cells(8, FullAdderKind::Accurate);
  const Netlist ripple = ripple_adder_netlist(cells);
  EXPECT_DOUBLE_EQ(gear.area_ge(), ripple.area_ge());
}

}  // namespace
}  // namespace axc::logic
