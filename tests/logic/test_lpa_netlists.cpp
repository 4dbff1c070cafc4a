#include <gtest/gtest.h>

#include "axc/arith/lpa_adders.hpp"
#include "axc/designspace/static_adder.hpp"
#include "axc/logic/adder_netlists.hpp"
#include "axc/logic/simulator.hpp"

namespace axc::logic {
namespace {

std::vector<arith::FullAdderKind> loa_cells(unsigned width, unsigned k) {
  return designspace::static_adder_cells(designspace::StaticAdderKind::Loa,
                                         width, k);
}

// Structural LOA / ETA-I must match their behavioural models bit-for-bit.
class LpaNetlistEquivalence
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(LpaNetlistEquivalence, LoaMatchesBehaviouralModel) {
  const auto [width, k] = GetParam();
  const arith::RippleAdder model(loa_cells(width, k));
  const Netlist nl = ripple_adder_netlist(model.cells());
  ASSERT_EQ(nl.outputs().size(), width + 1u);
  Simulator sim(nl);
  const std::uint64_t limit = std::uint64_t{1} << width;
  for (std::uint64_t a = 0; a < limit; a += 3) {
    for (std::uint64_t b = 0; b < limit; b += 5) {
      ASSERT_EQ(sim.apply_word(a | (b << width)), model.add(a, b, 0))
          << model.name() << " a=" << a << " b=" << b;
    }
  }
}

TEST_P(LpaNetlistEquivalence, EtaiMatchesBehaviouralModel) {
  const auto [width, k] = GetParam();
  const arith::EtaiAdder model(width, k);
  const Netlist nl = etai_adder_netlist(width, k);
  ASSERT_EQ(nl.outputs().size(), width + 1u);
  Simulator sim(nl);
  const std::uint64_t limit = std::uint64_t{1} << width;
  for (std::uint64_t a = 0; a < limit; a += 3) {
    for (std::uint64_t b = 0; b < limit; b += 5) {
      ASSERT_EQ(sim.apply_word(a | (b << width)), model.add(a, b, 0))
          << model.name() << " a=" << a << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LpaNetlistEquivalence,
    ::testing::Values(std::pair{6u, 2u}, std::pair{8u, 4u},
                      std::pair{8u, 0u}, std::pair{8u, 8u},
                      std::pair{10u, 5u}),
    [](const auto& info) {
      return "w" + std::to_string(info.param.first) + "k" +
             std::to_string(info.param.second);
    });

TEST(LpaNetlists, LoaIsSmallerThanExactRipple) {
  const std::vector<arith::FullAdderKind> cells(
      8, arith::FullAdderKind::Accurate);
  const double exact = ripple_adder_netlist(cells).area_ge();
  const double loa = ripple_adder_netlist(loa_cells(8, 4)).area_ge();
  const double etai = etai_adder_netlist(8, 4).area_ge();
  EXPECT_LT(loa, exact);
  EXPECT_LT(etai, exact);
  // LOA's OR-only low part is cheaper than ETAI's saturation chain.
  EXPECT_LT(loa, etai);
}

}  // namespace
}  // namespace axc::logic
