/// \file bitsliced.hpp
/// The observable 64-lane netlist simulator.
///
/// Every net holds a std::uint64_t word whose bit k is lane k's logic
/// value, so one pass over the compiled tape (tape.hpp, tape_engine.hpp)
/// evaluates 64 stimulus vectors at once using nothing but bitwise ops.
/// Toggle counting stays exact: per gate, the toggles of one step are
/// popcount(old_word ^ new_word) restricted to the active lanes, i.e. each
/// lane carries its own independent stimulus stream and contributes its
/// own transitions. Simulating L lanes for T steps is therefore
/// bit-identical — outputs, per-gate toggle counts and
/// switched_energy_fj() — to running L scalar reference Simulators
/// (simulator.hpp), lane k fed the bit-k stream (asserted by
/// tests/logic/test_bitsliced.cpp).
///
/// BitslicedSimulator is TapeSimulator<std::uint64_t> plus the two obs
/// instruments every pass records: logic.sim.passes and
/// logic.sim.lane_occupancy. It is the entry point the characterization,
/// power and SAD layers use.
#pragma once

#include <cstdint>
#include <span>

#include "axc/logic/netlist.hpp"
#include "axc/logic/tape_engine.hpp"

namespace axc::logic {

/// Evaluates a Netlist over 64 stimulus lanes per pass and accumulates
/// per-gate toggle counts; the lane discipline (per-lane baselines, masked
/// stimulus merge for partial-lane passes) is TapeSimulator's.
class BitslicedSimulator : private TapeSimulator<std::uint64_t> {
  using Engine = TapeSimulator<std::uint64_t>;

 public:
  /// Lanes per simulation word.
  static constexpr unsigned kLanes = Engine::kLanes;

  explicit BitslicedSimulator(const Netlist& netlist)
      : Engine(netlist), netlist_(netlist) {}

  /// TapeSimulator::apply_lanes, counted as one pass.
  std::span<const std::uint64_t> apply_lanes(
      std::span<const std::uint64_t> input_words, unsigned lanes = kLanes);

  /// Counting-lane convenience for netlists with <= 64 primary inputs:
  /// lane k simulates the packed input word `base + k` (bit i = input i),
  /// i.e. one call covers the exhaustive range [base, base + lanes).
  std::span<const std::uint64_t> apply_word_range(std::uint64_t base,
                                                  unsigned lanes = kLanes);

  /// The packed output word of one lane of the most recent apply call
  /// (bit j = output j, as Simulator::apply_word). Requires <= 64 outputs.
  using Engine::lane_output;

  /// Total lane-vectors applied since construction / reset_activity().
  using Engine::vectors_applied;

  /// Number of (vector, predecessor) pairs that contributed to toggle
  /// accounting — vectors_applied() minus one baseline vector per lane
  /// ever active in this window. This is the denominator for
  /// energy-per-vector power estimates.
  using Engine::transition_pairs;

  /// Total output toggles of gate \p gate_index (Netlist::gates() order),
  /// summed over all lanes.
  using Engine::gate_toggles;

  /// Switching energy accumulated so far, in femtojoules: for every gate,
  /// toggles x per-cell energy, summed in gate order.
  using Engine::switched_energy_fj;

  /// Clears toggle counts and the vector counters (net state persists).
  using Engine::reset_activity;

  const Netlist& netlist() const { return netlist_; }

 private:
  const Netlist& netlist_;
};

}  // namespace axc::logic
