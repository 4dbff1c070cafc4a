/// The exact ripple error model against exhaustive evaluation: every cell
/// at every low-part size, mixed layouts, and the width independence the
/// model rests on.
#include "axc/error/ripple_model.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "axc/arith/adder.hpp"
#include "axc/error/evaluate.hpp"

namespace axc::error {
namespace {

using arith::FullAdderKind;
using arith::RippleAdder;

constexpr double kTol = 1e-12;

void expect_matches_exhaustive(const RippleAdder& adder) {
  EvalOptions options;
  options.max_exhaustive_bits = 24;
  options.threads = 1;
  const ErrorStats stats = evaluate_adder(adder, options);
  ASSERT_TRUE(stats.exhaustive) << adder.name();
  const AdderErrorModel model = ripple_error_model(adder.cells());
  EXPECT_NEAR(model.error_rate, stats.error_rate, kTol) << adder.name();
  EXPECT_NEAR(model.med, stats.mean_error_distance, kTol) << adder.name();
  EXPECT_NEAR(model.nmed, stats.normalized_med, kTol) << adder.name();
  EXPECT_EQ(model.wce, stats.max_error) << adder.name();
  EXPECT_EQ(model.exact, stats.error_count == 0) << adder.name();
}

TEST(RippleErrorModel, MatchesExhaustiveForEveryCellAndK) {
  for (const FullAdderKind kind : arith::kAllCellKinds) {
    for (unsigned k = 0; k <= 8; ++k) {
      expect_matches_exhaustive(RippleAdder::lsb_approximated(8, kind, k));
    }
  }
}

TEST(RippleErrorModel, MatchesExhaustiveOnMixedLayouts) {
  // Accurate cells inside the low part, Table III and lower-part cells
  // mixed, and an approximate cell at the MSB.
  using K = FullAdderKind;
  const std::vector<std::vector<FullAdderKind>> layouts = {
      {K::Apx3, K::Accurate, K::Apx1, K::Accurate, K::Accurate, K::Apx5,
       K::Accurate, K::Accurate},
      {K::Zero, K::LowOr, K::HalfAdd, K::Apx2, K::Accurate, K::Accurate,
       K::Accurate, K::Accurate},
      {K::Accurate, K::Accurate, K::Accurate, K::Accurate, K::Accurate,
       K::Accurate, K::Accurate, K::Apx4},
  };
  for (const auto& cells : layouts) {
    expect_matches_exhaustive(RippleAdder(cells));
  }
}

TEST(RippleErrorModel, UpperWidthOnlyRescalesNmed) {
  // The Fig. 8/9 layouts (ApxFA1-5 on the low 2/4/6 bits): the error
  // lives in the low part, so ER, MED and WCE do not depend on the width
  // and NMED scales with the output ceiling 2^(N+1) - 2.
  for (const FullAdderKind kind : arith::kAllFullAdderKinds) {
    for (const unsigned k : {2u, 4u, 6u}) {
      const AdderErrorModel narrow = ripple_error_model(
          RippleAdder::lsb_approximated(8, kind, k).cells());
      const AdderErrorModel wide = ripple_error_model(
          RippleAdder::lsb_approximated(16, kind, k).cells());
      EXPECT_EQ(narrow.error_rate, wide.error_rate);
      EXPECT_EQ(narrow.med, wide.med);
      EXPECT_EQ(narrow.wce, wide.wce);
      EXPECT_DOUBLE_EQ(wide.nmed * 131070.0, narrow.nmed * 510.0);
    }
  }
}

TEST(RippleErrorModel, RejectsBadShapes) {
  EXPECT_THROW(ripple_error_model({}), std::invalid_argument);
  EXPECT_THROW(ripple_error_model(
                   std::vector<FullAdderKind>(64, FullAdderKind::Accurate)),
               std::invalid_argument);
  std::vector<FullAdderKind> cells(32, FullAdderKind::Accurate);
  cells[12] = FullAdderKind::Apx1;  // k = 13
  EXPECT_THROW(ripple_error_model(cells), std::invalid_argument);
  cells[12] = FullAdderKind::Accurate;
  cells[11] = FullAdderKind::Apx1;  // k = 12 is the cap
  EXPECT_FALSE(ripple_error_model(cells).exact);
}

}  // namespace
}  // namespace axc::error
