/// Heterogeneous block adders: the closed-form error model is pinned
/// bit-exactly against exhaustive enumeration on the compiled tape
/// engine (via error::evaluate_adder / evaluate_netlist), and the
/// behavioral model against the netlist factory, over a pinned grid of
/// widths, block widths and approximation depths.
#include "axc/designspace/hetero_adder.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "axc/error/evaluate.hpp"
#include "axc/logic/adder_netlists.hpp"
#include "axc/logic/simulator.hpp"

namespace axc::designspace {
namespace {

/// The model's figures are dyadic rationals computed by a different
/// route than the accumulator's long sum; 1e-12 absorbs only the
/// summation-order difference, not any modelling slack.
constexpr double kTol = 1e-12;

error::EvalOptions exhaustive_options() {
  error::EvalOptions options;
  options.max_exhaustive_bits = 24;
  options.threads = 1;
  return options;
}

void expect_model_matches_exhaustive(
    const std::vector<HeteroBlockSpec>& blocks) {
  const HeteroBlockAdder adder(blocks);
  const error::AdderErrorModel model = hetero_error_model(blocks);
  const error::ErrorStats stats =
      error::evaluate_adder(adder, exhaustive_options());
  ASSERT_TRUE(stats.exhaustive) << adder.name();
  EXPECT_NEAR(model.error_rate, stats.error_rate, kTol) << adder.name();
  EXPECT_NEAR(model.med, stats.mean_error_distance, kTol) << adder.name();
  EXPECT_NEAR(model.nmed, stats.normalized_med, kTol) << adder.name();
  EXPECT_EQ(model.wce, stats.max_error) << adder.name();
  EXPECT_EQ(model.exact, stats.error_count == 0) << adder.name();
}

TEST(HeteroErrorModel, MatchesExhaustiveOnPinnedGrid) {
  for (const unsigned width : {8u, 10u}) {
    for (const unsigned block_width : {2u, 3u, 4u}) {
      const unsigned count = (width + block_width - 1) / block_width;
      for (const HeteroSubAdder kind :
           {HeteroSubAdder::CarryCut, HeteroSubAdder::Truncated}) {
        for (unsigned m = 0; m <= count; ++m) {
          expect_model_matches_exhaustive(
              make_hetero_blocks(width, block_width, kind, m));
        }
      }
    }
  }
}

TEST(HeteroErrorModel, MixedKindsMatchExhaustive) {
  // Hand-built lists the sweep grid never produces: truncated above
  // carry-cut, accurate sandwiched between approximations.
  expect_model_matches_exhaustive({{HeteroSubAdder::CarryCut, 2},
                                   {HeteroSubAdder::Truncated, 3},
                                   {HeteroSubAdder::Accurate, 3}});
  expect_model_matches_exhaustive({{HeteroSubAdder::Accurate, 2},
                                   {HeteroSubAdder::Truncated, 2},
                                   {HeteroSubAdder::Accurate, 2},
                                   {HeteroSubAdder::CarryCut, 2}});
  expect_model_matches_exhaustive({{HeteroSubAdder::Truncated, 4},
                                   {HeteroSubAdder::CarryCut, 4},
                                   {HeteroSubAdder::Accurate, 2}});
}

TEST(HeteroBlockAdder, BehavioralMatchesNetlistExhaustively) {
  for (const auto& blocks :
       {make_hetero_blocks(6, 2, HeteroSubAdder::CarryCut, 2),
        make_hetero_blocks(6, 3, HeteroSubAdder::Truncated, 1),
        std::vector<HeteroBlockSpec>{{HeteroSubAdder::Truncated, 2},
                                     {HeteroSubAdder::CarryCut, 2},
                                     {HeteroSubAdder::Accurate, 2}}}) {
    const HeteroBlockAdder adder(blocks);
    const logic::Netlist netlist = logic::hetero_adder_netlist(blocks);
    logic::Simulator sim(netlist);
    const unsigned width = adder.width();
    for (std::uint64_t a = 0; a < (1ull << width); ++a) {
      for (std::uint64_t b = 0; b < (1ull << width); ++b) {
        const std::uint64_t word = a | (b << width);
        ASSERT_EQ(adder.add(a, b, 0), sim.apply_word(word))
            << adder.name() << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(HeteroBlockAdder, AllAccurateIsExact) {
  const auto blocks = make_hetero_blocks(12, 4, HeteroSubAdder::CarryCut, 0);
  const HeteroBlockAdder adder(blocks);
  EXPECT_TRUE(adder.is_exact());
  EXPECT_EQ(adder.add(4095, 4095, 1), 8191u);
  const error::AdderErrorModel model = hetero_error_model(blocks);
  EXPECT_TRUE(model.exact);
  EXPECT_EQ(model.wce, 0u);
  EXPECT_EQ(model.med, 0.0);
}

TEST(HeteroBlockAdder, CarryInReachesLowestBlock) {
  const auto blocks = make_hetero_blocks(8, 4, HeteroSubAdder::CarryCut, 1);
  const HeteroBlockAdder adder(blocks);
  // Carry-cut low block still adds its carry-in; only the carry *out* is
  // dropped.
  EXPECT_EQ(adder.add(0, 0, 1), 1u);
  // Truncated low block reads 0 regardless of the carry-in.
  const HeteroBlockAdder truncated(
      make_hetero_blocks(8, 4, HeteroSubAdder::Truncated, 1));
  EXPECT_EQ(truncated.add(3, 2, 1) & 0xF, 0u);
}

TEST(HeteroBlocks, MakeAndWidenShapes) {
  const auto blocks = make_hetero_blocks(10, 4, HeteroSubAdder::CarryCut, 2);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0].width, 4u);
  EXPECT_EQ(blocks[1].width, 4u);
  EXPECT_EQ(blocks[2].width, 2u);  // top block takes the remainder
  EXPECT_EQ(blocks[2].kind, HeteroSubAdder::Accurate);
  EXPECT_EQ(hetero_width(blocks), 10u);
}

}  // namespace
}  // namespace axc::designspace
