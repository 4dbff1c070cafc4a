/// \file simulator.hpp
/// The scalar reference simulator.
///
/// Replaces the paper's ModelSim + VCD/SAIF step (Fig. 2): applying a
/// stimulus sequence yields both output values (functional verification)
/// and per-gate toggle counts (the switching activity that drives the
/// dynamic power estimate in power.hpp).
///
/// Simulator is deliberately the plainest possible evaluator — one bit per
/// net, eval_cell per gate in Netlist::gates() order — and shares no code
/// with the compiled tape (tape.hpp), which does all production
/// simulation. It is the oracle the tape is checked against: the
/// equivalence suites replay every packed lane through one Simulator and
/// require identical outputs, toggles and energy.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "axc/logic/netlist.hpp"

namespace axc::logic {

/// Evaluates a Netlist over stimulus vectors and accumulates toggle counts.
///
/// The simulator is zero-delay: each vector produces the settled output.
/// Toggles are counted per driven net between consecutive vectors, which is
/// exactly the information a SAIF file carries for power estimation; the
/// first vector after construction or reset_activity() is a baseline that
/// establishes state without counting. Glitching is not modelled; this
/// under-reports power uniformly across designs and therefore preserves
/// relative comparisons.
class Simulator {
 public:
  explicit Simulator(const Netlist& netlist);

  /// Applies one input vector (one bit per primary input, in the order of
  /// Netlist::inputs()) and returns the primary-output bits.
  std::vector<unsigned> apply(std::span<const unsigned> input_bits);

  /// Packs the low bits of \p input_word onto the primary inputs
  /// (input[i] = bit i) and returns outputs packed the same way
  /// (bit i = output[i]). Requires <= 64 inputs/outputs.
  std::uint64_t apply_word(std::uint64_t input_word);

  /// Number of vectors applied since construction / reset_activity().
  std::uint64_t vectors_applied() const { return vectors_applied_; }

  /// Total output toggles of gate \p gate_index accumulated so far.
  std::uint64_t gate_toggles(std::size_t gate_index) const {
    return gate_toggles_.at(gate_index);
  }

  /// Switching energy accumulated so far, in femtojoules: for every gate
  /// in gate order, toggles x per-cell energy.
  double switched_energy_fj() const;

  /// Clears toggle counts and the vector counter (state values persist so
  /// the next run still starts from the current state).
  void reset_activity();

  const Netlist& netlist() const { return netlist_; }

 private:
  /// Evaluates every gate in gate order from the current input bits.
  void evaluate();

  const Netlist& netlist_;
  std::vector<unsigned> value_;  ///< one bit per net
  std::vector<std::uint64_t> gate_toggles_;
  std::uint64_t vectors_applied_ = 0;
  bool baselined_ = false;  ///< a vector has set state in this window
};

}  // namespace axc::logic
