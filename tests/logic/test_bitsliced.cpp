#include "axc/logic/bitsliced.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "axc/accel/sad_netlist.hpp"
#include "axc/common/bits.hpp"
#include "axc/common/rng.hpp"
#include "axc/designspace/static_adder.hpp"
#include "axc/logic/adder_netlists.hpp"
#include "axc/logic/mul_netlists.hpp"
#include "axc/logic/simulator.hpp"

namespace axc::logic {
namespace {

using arith::FullAdderKind;
using arith::Mul2x2Kind;

// ---------------------------------------------------------------------------
// Equivalence harnesses.
//
// Exhaustive: counting-lane enumeration must reproduce Simulator::apply_word
// on every input word (functional bit-exactness over the whole space).
//
// Randomized: a packed run of T stimulus words over 64 lanes must equal 64
// independent scalar Simulators, lane k fed the bit-k stream — outputs per
// lane per step, per-gate toggle totals, and switched energy all identical.
// ---------------------------------------------------------------------------

void expect_exhaustive_equivalence(const Netlist& nl) {
  const unsigned n_in = static_cast<unsigned>(nl.inputs().size());
  ASSERT_LE(n_in, 20u) << nl.name() << ": too wide for exhaustive sweep";
  const std::uint64_t total = std::uint64_t{1} << n_in;
  Simulator scalar(nl);
  BitslicedSimulator packed(nl);
  for (std::uint64_t base = 0; base < total;
       base += BitslicedSimulator::kLanes) {
    const unsigned lanes = static_cast<unsigned>(
        std::min<std::uint64_t>(BitslicedSimulator::kLanes, total - base));
    packed.apply_word_range(base, lanes);
    for (unsigned k = 0; k < lanes; ++k) {
      ASSERT_EQ(packed.lane_output(k), scalar.apply_word(base + k))
          << nl.name() << ": word " << (base + k);
    }
  }
}

void expect_random_stream_equivalence(const Netlist& nl, unsigned steps,
                                      std::uint64_t seed) {
  constexpr unsigned kLanes = BitslicedSimulator::kLanes;
  const std::size_t n_in = nl.inputs().size();

  // One packed stimulus word per input per step.
  Rng rng(seed);
  std::vector<std::vector<std::uint64_t>> stimulus(steps);
  for (auto& words : stimulus) {
    words.resize(n_in);
    for (auto& word : words) word = rng();
  }

  BitslicedSimulator packed(nl);
  std::vector<std::vector<std::uint64_t>> packed_out(steps);
  for (unsigned t = 0; t < steps; ++t) {
    const auto out = packed.apply_lanes(stimulus[t]);
    packed_out[t].assign(out.begin(), out.end());
  }

  // Scalar reference: 64 independent simulators, one per lane.
  std::vector<std::uint64_t> toggle_sum(nl.gate_count(), 0);
  std::vector<unsigned> bits(n_in);
  for (unsigned lane = 0; lane < kLanes; ++lane) {
    Simulator scalar(nl);
    for (unsigned t = 0; t < steps; ++t) {
      for (std::size_t i = 0; i < n_in; ++i) {
        bits[i] = bit_of(stimulus[t][i], lane);
      }
      const std::vector<unsigned> out = scalar.apply(bits);
      for (std::size_t j = 0; j < out.size(); ++j) {
        ASSERT_EQ(out[j], bit_of(packed_out[t][j], lane))
            << nl.name() << ": lane " << lane << " step " << t << " output "
            << j;
      }
    }
    for (std::size_t g = 0; g < nl.gate_count(); ++g) {
      toggle_sum[g] += scalar.gate_toggles(g);
    }
  }

  // Toggle counts must match gate for gate, and the energy computed from
  // the summed counts (same accumulation order as the packed simulator)
  // must match bit for bit.
  double expected_energy = 0.0;
  for (std::size_t g = 0; g < nl.gate_count(); ++g) {
    EXPECT_EQ(packed.gate_toggles(g), toggle_sum[g])
        << nl.name() << ": gate " << g;
    expected_energy += static_cast<double>(toggle_sum[g]) *
                       cell_info(nl.gates()[g].type).energy_fj;
  }
  EXPECT_DOUBLE_EQ(packed.switched_energy_fj(), expected_energy)
      << nl.name();
  EXPECT_EQ(packed.vectors_applied(),
            static_cast<std::uint64_t>(steps) * kLanes);
  EXPECT_EQ(packed.transition_pairs(),
            static_cast<std::uint64_t>(steps - 1) * kLanes);
}

// --- Adder netlist factories ----------------------------------------------

TEST(BitslicedEquivalence, FullAdderAllKindsExhaustive) {
  for (const FullAdderKind kind : arith::kAllFullAdderKinds) {
    const Netlist nl = full_adder_netlist(kind);
    expect_exhaustive_equivalence(nl);
    expect_random_stream_equivalence(nl, 16, 0xFA00 + static_cast<int>(kind));
  }
}

TEST(BitslicedEquivalence, RippleAdderMixedCellsExhaustive) {
  for (const FullAdderKind kind :
       {FullAdderKind::Accurate, FullAdderKind::Apx3, FullAdderKind::Apx5}) {
    const arith::RippleAdder model =
        arith::RippleAdder::lsb_approximated(8, kind, 4);
    const Netlist nl = ripple_adder_netlist(model.cells());
    expect_exhaustive_equivalence(nl);
  }
}

TEST(BitslicedEquivalence, RippleAdderWideRandomStreams) {
  // 16-bit ripple adder: 32 primary inputs, too wide to enumerate — 1024
  // randomized lane-vectors (16 packed steps x 64 lanes).
  const arith::RippleAdder model = arith::RippleAdder::lsb_approximated(
      16, FullAdderKind::Apx2, 6);
  const Netlist nl = ripple_adder_netlist(model.cells());
  expect_random_stream_equivalence(nl, 16, 0x51DE);
}

TEST(BitslicedEquivalence, LoaAdderExhaustiveAndRandom) {
  const Netlist nl = ripple_adder_netlist(designspace::static_adder_cells(
      designspace::StaticAdderKind::Loa, 8, 4));
  expect_exhaustive_equivalence(nl);
  expect_random_stream_equivalence(nl, 16, 0x10A);
}

TEST(BitslicedEquivalence, EtaiAdderExhaustiveAndRandom) {
  const Netlist nl = etai_adder_netlist(8, 4);
  expect_exhaustive_equivalence(nl);
  expect_random_stream_equivalence(nl, 16, 0xE7A1);
}

TEST(BitslicedEquivalence, GearAdderExhaustiveAndRandom) {
  const Netlist nl = gear_adder_netlist({8, 2, 2});
  expect_exhaustive_equivalence(nl);
  expect_random_stream_equivalence(nl, 16, 0x6EA2);
}

// --- Multiplier netlist factories -----------------------------------------

TEST(BitslicedEquivalence, Mul2x2AllKindsExhaustive) {
  for (const Mul2x2Kind kind : {Mul2x2Kind::Accurate, Mul2x2Kind::SoA,
                                Mul2x2Kind::Ours}) {
    expect_exhaustive_equivalence(mul2x2_netlist(kind));
    expect_exhaustive_equivalence(cfg_mul2x2_netlist(kind));
  }
}

TEST(BitslicedEquivalence, RecursiveMultiplierExhaustive) {
  MulNetlistSpec spec;
  spec.width = 4;
  spec.block = Mul2x2Kind::Ours;
  spec.adder_cell = FullAdderKind::Apx3;
  spec.approx_lsbs = 2;
  const Netlist nl = multiplier_netlist(spec);
  expect_exhaustive_equivalence(nl);
  expect_random_stream_equivalence(nl, 16, 0x4321);
}

TEST(BitslicedEquivalence, WallaceMultiplierExhaustiveAndRandom) {
  expect_exhaustive_equivalence(wallace_netlist(4, FullAdderKind::Apx3, 2));
  // 8x8 Wallace: 16 inputs — exhaustive too, plus randomized lane streams.
  const Netlist wide = wallace_netlist(8, FullAdderKind::Accurate, 0);
  expect_exhaustive_equivalence(wide);
  expect_random_stream_equivalence(wide, 16, 0xA11);
}

// --- SAD netlist (wide: > 64 primary inputs) ------------------------------

TEST(BitslicedEquivalence, SadNetlistRandomStreams) {
  accel::SadConfig config;
  config.block_pixels = 4;  // 2x2 blocks: 64 primary inputs
  config.cell = FullAdderKind::Apx3;
  config.approx_lsbs = 2;
  const Netlist nl = accel::sad_netlist(config);
  expect_random_stream_equivalence(nl, 16, 0x5AD);
}

TEST(BitslicedEquivalence, SadNetlistWideRandomStreams) {
  accel::SadConfig config;
  config.block_pixels = 16;  // 4x4 blocks: 256 primary inputs
  const Netlist nl = accel::sad_netlist(config);
  expect_random_stream_equivalence(nl, 8, 0x5AD16);
}

// --- API details ----------------------------------------------------------

TEST(BitslicedSimulatorApi, CountingLanePackingMatchesDefinition) {
  std::vector<std::uint64_t> words(8);
  pack_counting_lanes(/*base=*/128, /*num_inputs=*/8, /*lanes=*/64, words);
  for (unsigned k = 0; k < 64; ++k) {
    for (unsigned i = 0; i < 8; ++i) {
      EXPECT_EQ(bit_of(words[i], k), bit_of(128 + k, i))
          << "lane " << k << " input " << i;
    }
  }
  // Unaligned bases take the generic path.
  pack_counting_lanes(/*base=*/3, /*num_inputs=*/8, /*lanes=*/5, words);
  for (unsigned k = 0; k < 5; ++k) {
    for (unsigned i = 0; i < 8; ++i) {
      EXPECT_EQ(bit_of(words[i], k), bit_of(3 + k, i));
    }
  }
}

TEST(BitslicedSimulatorApi, PartialLanesExcludedFromToggles) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  nl.mark_output(nl.add_gate(CellType::Inv, a), "y");
  BitslicedSimulator sim(nl);
  const std::uint64_t all = ~std::uint64_t{0};
  std::vector<std::uint64_t> w0 = {0};
  std::vector<std::uint64_t> w1 = {all};
  sim.apply_lanes(w0, 2);  // baseline, 2 active lanes
  sim.apply_lanes(w1, 2);  // both lanes toggle
  EXPECT_EQ(sim.gate_toggles(0), 2u);
  EXPECT_EQ(sim.vectors_applied(), 4u);
  EXPECT_EQ(sim.transition_pairs(), 2u);
}

TEST(BitslicedSimulatorApi, ResetActivityClearsCounters) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  nl.mark_output(nl.add_gate(CellType::Inv, a), "y");
  BitslicedSimulator sim(nl);
  sim.apply_word_range(0, 2);
  sim.apply_word_range(2, 2);
  EXPECT_GT(sim.vectors_applied(), 0u);
  sim.reset_activity();
  EXPECT_EQ(sim.vectors_applied(), 0u);
  EXPECT_EQ(sim.transition_pairs(), 0u);
  EXPECT_EQ(sim.gate_toggles(0), 0u);
}

TEST(BitslicedSimulatorApi, RejectsBadArity) {
  Netlist nl;
  nl.add_input("a");
  nl.mark_output(nl.add_input("b"), "y");
  BitslicedSimulator sim(nl);
  const std::vector<std::uint64_t> too_few = {0};
  EXPECT_THROW(sim.apply_lanes(too_few), std::invalid_argument);
  const std::vector<std::uint64_t> ok = {0, 0};
  EXPECT_THROW(sim.apply_lanes(ok, 0), std::invalid_argument);
  EXPECT_THROW(sim.apply_lanes(ok, 65), std::invalid_argument);
}

}  // namespace
}  // namespace axc::logic
