#include "axc/accel/datapath.hpp"

#include <gtest/gtest.h>

#include "axc/designspace/static_adder.hpp"

namespace axc::accel {
namespace {

using arith::FullAdderKind;

TEST(Datapath, ExactEvaluationOfMixedGraph) {
  Datapath dp("mixed");
  const NodeId a = dp.add_input(8);
  const NodeId b = dp.add_input(8);
  const NodeId c = dp.add_const(8, 10);
  const NodeId sum = dp.add_op(OpKind::Add, a, b);
  const NodeId diff = dp.add_op(OpKind::AbsDiff, sum, c);
  const NodeId prod = dp.add_mul(diff, c);
  const NodeId shifted = dp.add_shift(prod, 2);
  dp.mark_output(shifted);
  // a=20, b=30: sum=50, |50-10|=40, 40*10=400, >>2 = 100.
  EXPECT_EQ(dp.evaluate({20, 30}).front(), 100u);
  EXPECT_EQ(dp.evaluate_exact({20, 30}).front(), 100u);
}

TEST(Datapath, MinMaxOperations) {
  Datapath dp;
  const NodeId a = dp.add_input(8);
  const NodeId b = dp.add_input(8);
  dp.mark_output(dp.add_op(OpKind::Min, a, b));
  dp.mark_output(dp.add_op(OpKind::Max, a, b));
  const auto out = dp.evaluate({13, 200});
  EXPECT_EQ(out[0], 13u);
  EXPECT_EQ(out[1], 200u);
}

TEST(Datapath, ApproximateAdderBindingIsUsed) {
  Datapath dp;
  const NodeId a = dp.add_input(8);
  const NodeId b = dp.add_input(8);
  auto adder = std::make_shared<const arith::RippleAdder>(
      arith::RippleAdder::lsb_approximated(8, FullAdderKind::Apx5, 8));
  dp.mark_output(dp.add_op(OpKind::Add, a, b, adder));
  // ApxFA5 everywhere: sum bit i = b_i, carry chain = a; huge error.
  EXPECT_NE(dp.evaluate({0x55, 0x0F}).front(),
            dp.evaluate_exact({0x55, 0x0F}).front());
}

TEST(Datapath, SubUsesTwosComplementPath) {
  Datapath dp;
  const NodeId a = dp.add_input(8);
  const NodeId b = dp.add_input(8);
  dp.mark_output(dp.add_op(OpKind::Sub, a, b));
  EXPECT_EQ(dp.evaluate({100, 58}).front(), 42u);
  EXPECT_EQ(dp.evaluate({58, 100}).front(), (58u - 100u) & 0xFFu);
}

TEST(Datapath, AdderWidthValidated) {
  Datapath dp;
  const NodeId a = dp.add_input(8);
  const NodeId b = dp.add_input(8);
  auto wrong = std::make_shared<const arith::ExactAdder>(4);
  EXPECT_THROW(dp.add_op(OpKind::Add, a, b, wrong), std::invalid_argument);
  auto right = std::make_shared<const arith::ExactAdder>(8);
  EXPECT_NO_THROW(dp.add_op(OpKind::Add, a, b, right));
}

TEST(Datapath, SadBuilderMatchesReference) {
  Datapath dp("sad16");
  build_sad_datapath(dp, 16);
  ASSERT_EQ(dp.input_count(), 32u);
  std::vector<std::uint64_t> in(32);
  std::uint64_t expect = 0;
  for (unsigned p = 0; p < 16; ++p) {
    in[2 * p] = (p * 17) & 0xFF;
    in[2 * p + 1] = (p * 5 + 100) & 0xFF;
    const std::int64_t d = static_cast<std::int64_t>(in[2 * p]) -
                           static_cast<std::int64_t>(in[2 * p + 1]);
    expect += static_cast<std::uint64_t>(d < 0 ? -d : d);
  }
  EXPECT_EQ(dp.evaluate(in).front(), expect);
}

TEST(Datapath, AnalyzeReportsZeroForExactGraph) {
  Datapath dp;
  build_sad_datapath(dp, 4);
  const auto stats = dp.analyze(2000);
  EXPECT_EQ(stats.error_count, 0u);
}

TEST(Datapath, AnalyzeReportsErrorsForApproxGraph) {
  Datapath dp;
  build_sad_datapath(dp, 4,
                     arith::ripple_adder_factory(FullAdderKind::Apx3, 3));
  const auto stats = dp.analyze(2000);
  EXPECT_GT(stats.error_rate, 0.0);
  EXPECT_GT(stats.mean_error_distance, 0.0);
}

// The paper's masking insight, made quantitative: a min() with a small
// constant masks upstream approximation errors almost completely, while a
// plain sum lets them through.
TEST(Datapath, MinMasksUpstreamErrors) {
  const auto approx_adder = [] {
    return std::make_shared<const arith::RippleAdder>(
        designspace::static_adder_cells(designspace::StaticAdderKind::Loa, 8,
                                        4));
  };

  Datapath open_path("open");
  {
    const NodeId a = open_path.add_input(8);
    const NodeId b = open_path.add_input(8);
    open_path.mark_output(open_path.add_op(OpKind::Add, a, b, approx_adder()));
  }
  Datapath masked_path("masked");
  {
    const NodeId a = masked_path.add_input(8);
    const NodeId b = masked_path.add_input(8);
    const NodeId sum =
        masked_path.add_op(OpKind::Add, a, b, approx_adder());
    const NodeId clamp = masked_path.add_const(9, 3);
    masked_path.mark_output(masked_path.add_op(OpKind::Min, sum, clamp));
  }
  const double open_med = open_path.analyze(20000).mean_error_distance;
  const double masked_med = masked_path.analyze(20000).mean_error_distance;
  EXPECT_GT(open_med, 0.5);
  EXPECT_LT(masked_med, open_med / 10.0);
}

TEST(Datapath, MaskingProfileRanksNodesBySurvivingError) {
  // In a SAD tree, an approximate adder near the root hits the output
  // 1:1 while the same cell in an absdiff leaf is averaged over the tree —
  // but with identical bindings everywhere the per-node solo MEDs expose
  // exactly which stages matter.
  Datapath dp;
  build_sad_datapath(dp, 8,
                     arith::ripple_adder_factory(FullAdderKind::Apx3, 4));
  const auto profile = dp.masking_profile(4000);
  ASSERT_FALSE(profile.empty());
  double leaf_med = 0.0, root_med = 0.0;
  for (const auto& entry : profile) {
    if (entry.kind == OpKind::AbsDiff) leaf_med += entry.solo_output_med;
    if (entry.kind == OpKind::Add) root_med = entry.solo_output_med;
  }
  // The final Add's solo error is nonzero, and leaves contribute too.
  EXPECT_GT(root_med, 0.0);
  EXPECT_GT(leaf_med, 0.0);
}

TEST(Datapath, Validation) {
  Datapath dp;
  const NodeId a = dp.add_input(8);
  EXPECT_THROW(dp.add_op(OpKind::Add, a, 99), std::invalid_argument);
  EXPECT_THROW(dp.add_op(OpKind::Mul, a, a), std::invalid_argument);
  EXPECT_THROW(dp.evaluate({1}), std::invalid_argument);  // no outputs
  dp.mark_output(a);
  EXPECT_THROW(dp.evaluate({1, 2}), std::invalid_argument);  // arity
  EXPECT_THROW(dp.add_input(0), std::invalid_argument);
}

TEST(DatapathMisuse, AdderWidthMismatchOnSubAndAbsDiff) {
  // Sub/AbsDiff keep the wider operand width, so an adder sized for the
  // narrow operand must be rejected at construction, not mis-evaluated.
  Datapath dp;
  const NodeId narrow = dp.add_input(8);
  const NodeId wide = dp.add_input(12);
  const auto adder8 = std::make_shared<arith::ExactAdder>(8);
  EXPECT_THROW(dp.add_op(OpKind::Sub, narrow, wide, adder8),
               std::invalid_argument);
  EXPECT_THROW(dp.add_op(OpKind::AbsDiff, wide, narrow, adder8),
               std::invalid_argument);
  // The matching 12-bit adder is accepted.
  const auto adder12 = std::make_shared<arith::ExactAdder>(12);
  EXPECT_NO_THROW(dp.add_op(OpKind::Sub, narrow, wide, adder12));
  // Add grows by the carry bit and wants the pre-growth operand width.
  EXPECT_THROW(dp.add_op(OpKind::Add, narrow, wide, adder8),
               std::invalid_argument);
  EXPECT_NO_THROW(dp.add_op(OpKind::Add, narrow, wide, adder12));
}

TEST(DatapathMisuse, MinMaxRejectAdderBinding) {
  Datapath dp;
  const NodeId a = dp.add_input(8);
  const NodeId b = dp.add_input(8);
  const auto adder = std::make_shared<arith::ExactAdder>(8);
  EXPECT_THROW(dp.add_op(OpKind::Min, a, b, adder), std::invalid_argument);
  EXPECT_THROW(dp.add_op(OpKind::Max, a, b, adder), std::invalid_argument);
}

TEST(DatapathMisuse, WrongInputVectorLength) {
  Datapath dp;
  const NodeId a = dp.add_input(8);
  const NodeId b = dp.add_input(8);
  dp.mark_output(dp.add_op(OpKind::Add, a, b));
  EXPECT_THROW(dp.evaluate({}), std::invalid_argument);
  EXPECT_THROW(dp.evaluate({1}), std::invalid_argument);
  EXPECT_THROW(dp.evaluate({1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(dp.evaluate_exact({1}), std::invalid_argument);
  EXPECT_NO_THROW(dp.evaluate({1, 2}));
}

TEST(DatapathMisuse, OutOfRangeNodeId) {
  Datapath dp;
  const NodeId a = dp.add_input(8);
  const NodeId sum = dp.add_op(OpKind::Add, a, a);
  dp.mark_output(sum);
  const NodeId bogus = 1000;
  EXPECT_THROW(dp.node_width(bogus), std::invalid_argument);
  EXPECT_THROW(dp.mark_output(bogus), std::invalid_argument);
  EXPECT_THROW(dp.add_shift(bogus, 1), std::invalid_argument);
  EXPECT_THROW(dp.add_op(OpKind::Sub, bogus, a), std::invalid_argument);
  EXPECT_THROW(dp.add_mul(a, bogus), std::invalid_argument);
  EXPECT_THROW(dp.evaluate_solo(bogus, {1}), std::invalid_argument);
}

TEST(DatapathMisuse, HookMustBeCallable) {
  Datapath dp;
  const NodeId a = dp.add_input(8);
  dp.mark_output(dp.add_op(OpKind::Add, a, a));
  EXPECT_THROW(dp.evaluate_with_hook({1}, Datapath::NodeHook{}),
               std::invalid_argument);
}

TEST(DatapathMisuse, RequireMessagesCarrySourceLocation) {
  // AXC_REQUIRE annotates the exception with file:line and the failed
  // expression so misuse reports point at the guilty check.
  Datapath dp;
  try {
    dp.node_width(42);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("datapath.cpp:"), std::string::npos) << what;
    EXPECT_NE(what.find("no such node"), std::string::npos) << what;
    EXPECT_NE(what.find("[requirement:"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace axc::accel
