/// \file fault.hpp
/// Seeded transient fault injection across the stack.
///
/// Designed-in approximation is not the only error source a deployed
/// accelerator faces: particle-strike SEUs and marginal-voltage upsets
/// perturb outputs beyond what any static error analysis predicted. This
/// module stresses the resilience claims against exactly that: a
/// deterministic (seeded) bit-flip process applied at three levels of the
/// stack — individual nets of a gate-level logic::Netlist, node outputs of
/// an accel::Datapath, and the result word of any accel::SadUnit. The
/// QualityMonitor / AdaptiveController loop (monitor.hpp, controller.hpp)
/// is then responsible for detecting the quality loss and recovering.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "axc/accel/datapath.hpp"
#include "axc/accel/sad.hpp"
#include "axc/accel/sad_unit.hpp"
#include "axc/common/rng.hpp"
#include "axc/logic/netlist.hpp"
#include "axc/logic/tape.hpp"

namespace axc::resilience {

/// Parameters of the SEU-style transient fault process.
struct FaultSpec {
  /// Probability that any individual bit flips, independently, each time a
  /// value passes the injection point. 0 disables injection entirely.
  double bit_flip_probability = 0.0;
  /// Seed of the fault process; equal seeds reproduce identical campaigns.
  std::uint64_t seed = 1;
};

/// The core bit-flip process: a seeded Bernoulli trial per bit.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultSpec& spec);

  /// Returns \p word with each of its low \p width bits independently
  /// flipped with probability spec().bit_flip_probability.
  std::uint64_t corrupt(std::uint64_t word, unsigned width);

  /// Draws \p width independent Bernoulli trials and returns them as an
  /// XOR fault word (bit k set = flip). corrupt() is exactly
  /// `(word & low_mask(width)) ^ flip_mask(width)`; the bitsliced
  /// FaultySimulator applies one such word per gate to upset all 64
  /// simulation lanes at once. Counters update as for corrupt().
  std::uint64_t flip_mask(unsigned width);

  /// Total bits flipped since construction / reseed().
  std::uint64_t bits_flipped() const { return bits_flipped_; }

  /// Number of corrupt() calls that flipped at least one bit.
  std::uint64_t words_corrupted() const { return words_corrupted_; }

  /// Restarts the fault process from \p seed (counters reset too).
  void reseed(std::uint64_t seed);

  const FaultSpec& spec() const { return spec_; }

 private:
  FaultSpec spec_;
  Rng rng_;
  std::uint64_t bits_flipped_ = 0;
  std::uint64_t words_corrupted_ = 0;
};

/// Gate-level fault injection: evaluates a logic::Netlist like
/// logic::Simulator, but every gate output may flip (SEU on the driven
/// net) before fanout sees it. Primary inputs and constants are not
/// perturbed — upsets strike logic, stimuli are given.
///
/// Runs on the compiled tape (logic/tape_engine.hpp): every net holds a
/// 64-lane word and each gate's output lanes are upset independently via
/// one per-gate XOR fault word, so apply_lanes() advances 64 campaign
/// vectors per pass. Each pass draws one flip_mask(lanes) per gate in
/// Netlist::gates() order and the tape applies them in its own op order,
/// so a seed fixes the campaign independently of how the tape is laid
/// out. The scalar apply()/apply_word() entry points are 1-lane passes.
class FaultySimulator {
 public:
  FaultySimulator(const logic::Netlist& netlist, const FaultSpec& spec);

  /// Applies one input vector (one bit per primary input, in the order of
  /// Netlist::inputs()) and returns the primary-output bits.
  std::vector<unsigned> apply(std::span<const unsigned> input_bits);

  /// Packs the low bits of \p input_word onto the primary inputs and
  /// returns outputs packed the same way. Requires <= 64 inputs/outputs.
  std::uint64_t apply_word(std::uint64_t input_word);

  /// Packed campaign step: input_words[i] bit k = lane k's value of
  /// primary input i; returns one packed word per primary output. Each
  /// gate draws `lanes` Bernoulli trials (lane k's upset of that gate).
  std::vector<std::uint64_t> apply_lanes(
      std::span<const std::uint64_t> input_words, unsigned lanes = 64);

  /// Bits flipped across all vectors so far.
  std::uint64_t faults_injected() const { return injector_.bits_flipped(); }

  const logic::Netlist& netlist() const { return netlist_; }

 private:
  const logic::Netlist& netlist_;
  FaultInjector injector_;
  std::shared_ptr<const logic::Tape> tape_;
  std::vector<std::uint64_t> slots_;   ///< lane words, one per net
  std::vector<std::uint64_t> faults_;  ///< XOR fault word per tape op
};

/// Datapath-level fault injection: evaluates \p dp with every computed
/// node's output word passed through \p injector (each bit flips with the
/// spec probability). Word-level analogue of FaultySimulator, built on
/// Datapath::evaluate_with_hook().
std::vector<std::uint64_t> evaluate_with_faults(
    const accel::Datapath& dp, std::vector<std::uint64_t> input_values,
    FaultInjector& injector);

/// Accelerator-level fault injection: wraps any SadUnit and corrupts its
/// result word. The width of the injection surface is the true SAD result
/// width (ceil(log2(block_pixels * 255 + 1))), so flips range from LSB
/// noise to catastrophic MSB upsets.
class FaultySad final : public accel::SadUnit {
 public:
  FaultySad(const accel::SadUnit& inner, const FaultSpec& spec);

  unsigned block_pixels() const override { return inner_.block_pixels(); }
  std::uint64_t sad(std::span<const std::uint8_t> a,
                    std::span<const std::uint8_t> b) const override;

  /// "Faulty<inner name>".
  std::string name() const override;

  /// Never exact: the fault process may strike any call.
  bool is_exact() const override { return false; }

  std::uint64_t faults_injected() const { return injector_.bits_flipped(); }

 private:
  const accel::SadUnit& inner_;
  unsigned result_width_;
  mutable FaultInjector injector_;
};

/// Gate-level faulty SAD engine: the structural SAD netlist evaluated
/// through FaultySimulator, so SEUs strike *inside* the accelerator (any
/// gate output) rather than only its result word. sad_batch() packs up to
/// 64 candidate blocks into simulation lanes per pass; each gate draws one
/// independent upset word per pass, exactly as FaultySimulator::apply_lanes
/// specifies, so every lane carries its own fault pattern.
///
/// Note the RNG-order contract: the scalar path draws one Bernoulli per
/// gate per call while a k-lane batch draws k per gate per pass, so batch
/// boundaries are part of a campaign's identity (seeded campaigns
/// reproduce exactly given the same call sequence). Not concurrency-safe —
/// the fault process is ordered.
class FaultyNetlistSad final : public accel::SadUnit {
 public:
  FaultyNetlistSad(const accel::SadConfig& config, const FaultSpec& spec);

  unsigned block_pixels() const override { return config_.block_pixels; }
  std::uint64_t sad(std::span<const std::uint8_t> a,
                    std::span<const std::uint8_t> b) const override;
  void sad_batch(std::span<const std::uint8_t> a,
                 std::span<const std::uint8_t> candidates,
                 std::span<std::uint64_t> out) const override;

  /// "FaultyNetlist<ApxSAD3<4lsb,8x8>>".
  std::string name() const override;

  /// Never exact: the fault process may strike any call.
  bool is_exact() const override { return false; }

  std::uint64_t faults_injected() const { return sim_.faults_injected(); }

  const accel::SadConfig& config() const { return config_; }
  const logic::Netlist& netlist() const { return netlist_; }

 private:
  void apply_chunk(std::span<const std::uint8_t> a,
                   std::span<const std::uint8_t> candidates, unsigned lanes,
                   std::span<std::uint64_t> out) const;

  accel::SadConfig config_;
  logic::Netlist netlist_;
  mutable FaultySimulator sim_;
  mutable std::vector<std::uint64_t> in_words_;
};

}  // namespace axc::resilience
