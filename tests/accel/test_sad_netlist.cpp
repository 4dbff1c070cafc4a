#include "axc/accel/sad_netlist.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "axc/common/rng.hpp"
#include "axc/logic/characterize.hpp"
#include "axc/logic/simulator.hpp"

namespace axc::accel {
namespace {

std::uint64_t simulate_sad(const logic::Netlist& nl,
                           std::span<const std::uint8_t> a,
                           std::span<const std::uint8_t> b,
                           logic::Simulator& sim) {
  std::vector<unsigned> stimulus;
  stimulus.reserve(nl.inputs().size());
  for (const std::uint8_t px : a) {
    for (unsigned bit = 0; bit < 8; ++bit) stimulus.push_back(px >> bit & 1u);
  }
  for (const std::uint8_t px : b) {
    for (unsigned bit = 0; bit < 8; ++bit) stimulus.push_back(px >> bit & 1u);
  }
  const std::vector<unsigned> out = sim.apply(stimulus);
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    value |= static_cast<std::uint64_t>(out[i]) << i;
  }
  return value;
}

// The netlist and the behavioural accelerator must agree bit-for-bit —
// this ties the quality experiments (behavioural) to the area/power
// numbers (structural), as the paper's Fig. 2 flow requires.
//
// The parameter is a SadConfig flattened to three 32-bit words: gtest
// names an unprintable parameter by its raw bytes and
// gtest_discover_tests copies them into the CTest name, so the struct has
// no padding (SadConfig has three bytes after `cell`) and the name is the
// same in every build.
struct SadCase {
  std::uint32_t block_pixels;
  std::uint32_t cell;  // a FullAdderKind
  std::uint32_t approx_lsbs;

  SadConfig config() const {
    return {block_pixels, static_cast<arith::FullAdderKind>(cell),
            approx_lsbs};
  }
};
static_assert(std::has_unique_object_representations_v<SadCase>);

SadCase sad_case(const SadConfig& config) {
  return {config.block_pixels, static_cast<std::uint32_t>(config.cell),
          config.approx_lsbs};
}

class SadNetlistEquivalence : public ::testing::TestWithParam<SadCase> {};

TEST_P(SadNetlistEquivalence, MatchesBehaviouralAccelerator) {
  const SadConfig config = GetParam().config();
  const SadAccelerator model(config);
  const logic::Netlist nl = sad_netlist(config);
  logic::Simulator sim(nl);
  axc::Rng rng(11);
  std::vector<std::uint8_t> a(config.block_pixels);
  std::vector<std::uint8_t> b(config.block_pixels);
  for (int trial = 0; trial < 60; ++trial) {
    for (auto& px : a) px = static_cast<std::uint8_t>(rng.bits(8));
    for (auto& px : b) px = static_cast<std::uint8_t>(rng.bits(8));
    ASSERT_EQ(simulate_sad(nl, a, b, sim), model.sad(a, b))
        << config.name() << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, SadNetlistEquivalence,
    ::testing::Values(sad_case(accu_sad(4)), sad_case(accu_sad(16)),
                      sad_case(apx_sad_variant(1, 2, 16)),
                      sad_case(apx_sad_variant(3, 4, 16)),
                      sad_case(apx_sad_variant(5, 6, 16)),
                      sad_case(apx_sad_variant(2, 4, 64))),
    [](const auto& info) {
      std::string name = info.param.config().name();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(SadNetlist, ApproximationReducesAreaAndPower) {
  const auto exact = characterize_sad(accu_sad(16), 128);
  const auto apx4 = characterize_sad(apx_sad_variant(3, 4, 16), 128);
  const auto apx6 = characterize_sad(apx_sad_variant(3, 6, 16), 128);
  EXPECT_LT(apx4.area_ge, exact.area_ge);
  EXPECT_LT(apx6.area_ge, apx4.area_ge);
  EXPECT_LT(apx4.power_nw, exact.power_nw);
  EXPECT_LT(apx6.power_nw, apx4.power_nw);
}

TEST(SadNetlist, Fig9PowerClaim4LsbBelow2Lsb) {
  // "approximating 4-bits always resulted in lower power than 2-bits, for
  // all types of approximate adders" — Sec. 6 case study.
  for (int variant = 1; variant <= 5; ++variant) {
    const auto two = characterize_sad(apx_sad_variant(variant, 2, 16), 128);
    const auto four = characterize_sad(apx_sad_variant(variant, 4, 16), 128);
    EXPECT_LT(four.power_nw, two.power_nw) << "variant " << variant;
  }
}

TEST(SadNetlist, CharacterizeSadMemoizedOnStructureAndStimulus) {
  // characterize_sad shares the logic-layer characterization cache: an
  // identical (config, vectors, seed) triple is a hit, any change misses.
  logic::clear_characterization_cache();
  const SadConfig config = apx_sad_variant(2, 4, 16);
  const auto first = characterize_sad(config, 64, 3);
  EXPECT_EQ(logic::characterization_cache_stats().misses, 1u);
  const auto repeat = characterize_sad(config, 64, 3);
  const auto stats = logic::characterization_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_DOUBLE_EQ(repeat.area_ge, first.area_ge);
  EXPECT_DOUBLE_EQ(repeat.power_nw, first.power_nw);
  EXPECT_EQ(repeat.gate_count, first.gate_count);

  characterize_sad(config, 128, 3);                      // vectors change
  characterize_sad(config, 64, 4);                       // seed change
  characterize_sad(apx_sad_variant(2, 6, 16), 64, 3);    // structure change
  EXPECT_EQ(logic::characterization_cache_stats().misses, 4u);
}

TEST(SadNetlist, OutputWidthMatchesTreeDepth) {
  // 16 pixels -> 8-bit absdiff, 4 tree levels of widths 8..11 -> the last
  // adder emits 12 bits (max SAD = 16 * 255 = 4080 < 2^12).
  const logic::Netlist nl = sad_netlist(accu_sad(16));
  EXPECT_EQ(nl.outputs().size(), 12u);
  EXPECT_EQ(nl.inputs().size(), 2u * 16u * 8u);
}

}  // namespace
}  // namespace axc::accel
