/// Static approximate adders (LOA / LOAWA / HEAA) as RippleAdder cell
/// vectors: the 4^k-enumeration error model is exact, so it must match
/// exhaustive evaluation to floating-point summation tolerance on every
/// pinned configuration, the behavioral adder must match its netlist bit
/// for bit, and the netlists keep the gate structure of the hand-built
/// LOA / LOAWA / HEAA factories they replace. The StaticApproxAdder and
/// StaticAdderModel suite names predate the fold into RippleAdder.
#include "axc/designspace/static_adder.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "axc/arith/adder.hpp"
#include "axc/error/evaluate.hpp"
#include "axc/error/ripple_model.hpp"
#include "axc/logic/adder_netlists.hpp"
#include "axc/logic/simulator.hpp"

namespace axc::designspace {
namespace {

constexpr double kTol = 1e-12;
constexpr StaticAdderKind kAllKinds[] = {
    StaticAdderKind::Loa, StaticAdderKind::Loawa, StaticAdderKind::Heaa};

arith::RippleAdder static_adder(StaticAdderKind kind, unsigned width,
                                unsigned k) {
  return arith::RippleAdder(static_adder_cells(kind, width, k));
}

error::AdderErrorModel static_model(StaticAdderKind kind, unsigned width,
                                    unsigned k) {
  return error::ripple_error_model(static_adder_cells(kind, width, k));
}

error::EvalOptions exhaustive_options() {
  error::EvalOptions options;
  options.max_exhaustive_bits = 24;
  options.threads = 1;
  return options;
}

TEST(StaticAdderModel, MatchesExhaustiveOnPinnedGrid) {
  for (const StaticAdderKind kind : kAllKinds) {
    for (const unsigned width : {8u, 10u}) {
      for (unsigned k = 0; k <= 6; ++k) {
        const arith::RippleAdder adder = static_adder(kind, width, k);
        const error::AdderErrorModel model = static_model(kind, width, k);
        const error::ErrorStats stats =
            error::evaluate_adder(adder, exhaustive_options());
        ASSERT_TRUE(stats.exhaustive) << adder.name();
        EXPECT_NEAR(model.error_rate, stats.error_rate, kTol)
            << adder.name();
        EXPECT_NEAR(model.med, stats.mean_error_distance, kTol)
            << adder.name();
        EXPECT_NEAR(model.nmed, stats.normalized_med, kTol) << adder.name();
        EXPECT_EQ(model.wce, stats.max_error) << adder.name();
        EXPECT_EQ(model.exact, stats.error_count == 0) << adder.name();
      }
    }
  }
}

TEST(StaticApproxAdder, BehavioralMatchesNetlistExhaustively) {
  for (const StaticAdderKind kind : kAllKinds) {
    const unsigned width = 6;
    for (unsigned k = 0; k <= width; k += 3) {
      const arith::RippleAdder adder = static_adder(kind, width, k);
      const logic::Netlist netlist = logic::ripple_adder_netlist(adder.cells());
      logic::Simulator sim(netlist);
      for (std::uint64_t a = 0; a < (1ull << width); ++a) {
        for (std::uint64_t b = 0; b < (1ull << width); ++b) {
          ASSERT_EQ(adder.add(a, b, 0), sim.apply_word(a | (b << width)))
              << adder.name() << " a=" << a << " b=" << b;
        }
      }
    }
  }
}

TEST(StaticApproxAdder, ExactWhenNoApproximateBits) {
  for (const StaticAdderKind kind : kAllKinds) {
    const arith::RippleAdder adder = static_adder(kind, 8, 0);
    EXPECT_TRUE(adder.is_exact());
    EXPECT_EQ(adder.add(255, 255, 1), 511u);
    const error::AdderErrorModel model = static_model(kind, 8, 0);
    EXPECT_TRUE(model.exact);
    EXPECT_EQ(model.med, 0.0);
    EXPECT_EQ(model.wce, 0u);
  }
}

TEST(StaticApproxAdder, KnownSmallCases) {
  // LOA with k=1: low bit ORed, so only a=b=1 in the low bit errs (OR
  // gives 1, exact sum bit is 0 with a lost carry... recovered as
  // a0 & b0). For k=1 LOA the recovered carry makes the config exact on
  // the carry but the sum bit stays 1 instead of 0: error 1 with
  // probability 1/4.
  const error::AdderErrorModel loa = static_model(StaticAdderKind::Loa, 8, 1);
  EXPECT_NEAR(loa.error_rate, 0.25, kTol);
  EXPECT_NEAR(loa.med, 0.25, kTol);
  EXPECT_EQ(loa.wce, 1u);

  // LOAWA with k=1 drops the carry entirely: a0=b0=1 loses value 1 (the
  // OR keeps the sum bit at 1 but 1+1=2 needed the carry).
  const error::AdderErrorModel loawa =
      static_model(StaticAdderKind::Loawa, 8, 1);
  EXPECT_NEAR(loawa.error_rate, 0.25, kTol);
  EXPECT_EQ(loawa.wce, 1u);

  // HEAA with k=1: XOR computes the exact sum bit and the recovered
  // carry a0 & b0 is the exact carry — zero error.
  const error::AdderErrorModel heaa =
      static_model(StaticAdderKind::Heaa, 8, 1);
  EXPECT_TRUE(heaa.exact);
}

TEST(StaticApproxAdder, AbsorbsCarryInWhenApproximate) {
  // The low cells have no carry input, so a carry-in changes nothing;
  // with no approximate bit it enters the exact ripple.
  for (const StaticAdderKind kind : kAllKinds) {
    const arith::RippleAdder adder = static_adder(kind, 8, 2);
    for (std::uint64_t a = 0; a < 256; a += 7) {
      for (std::uint64_t b = 0; b < 256; b += 5) {
        EXPECT_EQ(adder.add(a, b, 1), adder.add(a, b, 0))
            << adder.name() << " a=" << a << " b=" << b;
      }
    }
    EXPECT_EQ(static_adder(kind, 8, 0).add(1, 1, 1), 3u);
  }
}

TEST(StaticAdderModel, RejectsOversizedEnumeration) {
  EXPECT_THROW(static_model(StaticAdderKind::Loa, 32, 13),
               std::invalid_argument);
}

TEST(StaticAdderCells, LayoutsPerKind) {
  using arith::FullAdderKind;
  using Cells = std::vector<FullAdderKind>;
  constexpr FullAdderKind A = FullAdderKind::Accurate;
  EXPECT_EQ(static_adder_cells(StaticAdderKind::Loa, 5, 3),
            (Cells{FullAdderKind::LowOr, FullAdderKind::LowOr,
                   FullAdderKind::LowOrCarry, A, A}));
  EXPECT_EQ(static_adder_cells(StaticAdderKind::Loawa, 5, 3),
            (Cells{FullAdderKind::LowOr, FullAdderKind::LowOr,
                   FullAdderKind::LowOr, A, A}));
  EXPECT_EQ(static_adder_cells(StaticAdderKind::Heaa, 5, 3),
            (Cells{FullAdderKind::LowXor, FullAdderKind::LowXor,
                   FullAdderKind::HalfAdd, A, A}));
  EXPECT_EQ(static_adder_cells(StaticAdderKind::Heaa, 3, 0), (Cells{A, A, A}));
  EXPECT_THROW(static_adder_cells(StaticAdderKind::Loa, 8, 9),
               std::invalid_argument);
}

// Gate count and area of the 16-bit netlists, as the hand-built LOA,
// LOAWA and HEAA factories produced them before the cell-vector fold: OR2
// or XOR2 per low bit, one AND2 for a recovered carry, accurate cells
// above. The areas are the exact sums the static_adder_design_space
// golden response carries.
TEST(StaticAdderCells, NetlistGateStructurePinnedAtWidth16) {
  struct Pin {
    StaticAdderKind kind;
    unsigned k;
    std::size_t gates;
    double area_ge;
  };
  const Pin pins[] = {
      {StaticAdderKind::Loa, 0, 48, 111.83999999999993},
      {StaticAdderKind::Loa, 1, 47, 107.50999999999993},
      {StaticAdderKind::Loa, 4, 41, 90.529999999999959},
      {StaticAdderKind::Loa, 8, 33, 67.889999999999972},
      {StaticAdderKind::Loa, 16, 17, 22.609999999999992},
      {StaticAdderKind::Loawa, 0, 48, 111.83999999999993},
      {StaticAdderKind::Loawa, 1, 46, 106.17999999999994},
      {StaticAdderKind::Loawa, 4, 40, 89.199999999999946},
      {StaticAdderKind::Loawa, 8, 32, 66.559999999999974},
      {StaticAdderKind::Loawa, 16, 16, 21.279999999999994},
      {StaticAdderKind::Heaa, 0, 48, 111.83999999999993},
      {StaticAdderKind::Heaa, 1, 47, 108.50999999999993},
      {StaticAdderKind::Heaa, 4, 41, 94.529999999999944},
      {StaticAdderKind::Heaa, 8, 33, 75.889999999999958},
      {StaticAdderKind::Heaa, 16, 17, 38.609999999999985},
  };
  for (const Pin& pin : pins) {
    const logic::Netlist netlist =
        logic::ripple_adder_netlist(static_adder_cells(pin.kind, 16, pin.k));
    EXPECT_EQ(netlist.gate_count(), pin.gates)
        << static_adder_kind_name(pin.kind) << " k=" << pin.k;
    EXPECT_EQ(netlist.area_ge(), pin.area_ge)
        << static_adder_kind_name(pin.kind) << " k=" << pin.k;
    // Every constant-0 output shares the tied-low carry-in.
    std::size_t tie_lows = 0;
    for (logic::NetId net = 0; net < netlist.net_count(); ++net) {
      tie_lows += netlist.driver(net) == logic::CellType::Const0;
    }
    EXPECT_EQ(tie_lows, 1u)
        << static_adder_kind_name(pin.kind) << " k=" << pin.k;
  }
}

}  // namespace
}  // namespace axc::designspace
