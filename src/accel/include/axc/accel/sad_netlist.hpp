/// \file sad_netlist.hpp
/// Structural (gate-level) SAD accelerator — the area/power side of the
/// Fig. 8/9 experiments. Functionally equivalent to accel::SadAccelerator
/// (asserted in tests); characterized through axc::logic.
#pragma once

#include <vector>

#include "axc/accel/sad.hpp"
#include "axc/logic/bitsliced.hpp"
#include "axc/logic/netlist.hpp"

namespace axc::accel {

/// Builds the full SAD netlist for \p config. Inputs are the 8-bit pixels
/// of block A then block B, LSB-first per pixel; outputs are the SAD bits.
logic::Netlist sad_netlist(const SadConfig& config);

/// Area/power summary of a SAD variant, via the calibrated power model.
/// Memoized on the netlist's structural hash + (vectors, seed) — repeated
/// characterizations of an identical configuration reuse the simulated
/// result (see logic::characterization_cache_stats()).
struct SadHardwareReport {
  double area_ge = 0.0;
  double power_nw = 0.0;
  std::size_t gate_count = 0;
};
SadHardwareReport characterize_sad(const SadConfig& config,
                                   std::uint64_t vectors = 512,
                                   std::uint64_t seed = 3);

/// Gate-level SAD engine: a SadUnit evaluated by simulating the structural
/// netlist, with switching-activity (toggle/energy) accounting — the
/// "run the real hardware" end of the Fig. 8/9 case study.
///
/// sad() is a one-lane pass over the gate list; sad_batch() packs up to 64
/// candidate blocks into logic::BitslicedSimulator lanes per pass (the
/// current block is broadcast across lanes), which is where the full-search
/// motion-estimation speedup comes from. Lane packing keeps the activity
/// accounting exact per lane: candidate k's toggles are counted against the
/// previous vector lane k held (see tape_engine.hpp).
///
/// The simulator state is mutable, so a NetlistSad is NOT safe for
/// concurrent use (is_concurrent_safe() = false); the block-parallel
/// encoder serializes around it automatically.
class NetlistSad final : public SadUnit {
 public:
  explicit NetlistSad(const SadConfig& config);

  const SadConfig& config() const { return config_; }

  unsigned block_pixels() const override { return config_.block_pixels; }
  std::uint64_t sad(std::span<const std::uint8_t> a,
                    std::span<const std::uint8_t> b) const override;
  void sad_batch(std::span<const std::uint8_t> a,
                 std::span<const std::uint8_t> candidates,
                 std::span<std::uint64_t> out) const override;

  /// "Netlist<ApxSAD3<4lsb,8x8>>".
  std::string name() const override;
  bool is_exact() const override;

  /// Activity accounting, forwarded from the packed simulator: total
  /// vectors evaluated (scalar calls count 1, batch calls count the batch
  /// size) and the exact switched energy they caused.
  std::uint64_t vectors_applied() const { return sim_.vectors_applied(); }
  double switched_energy_fj() const { return sim_.switched_energy_fj(); }
  std::uint64_t gate_toggles(std::size_t gate_index) const {
    return sim_.gate_toggles(gate_index);
  }
  void reset_activity() { sim_.reset_activity(); }

  const logic::Netlist& netlist() const { return netlist_; }

 private:
  /// Packs one <=64-candidate chunk onto the primary inputs and reads the
  /// per-lane SAD words back.
  void apply_chunk(std::span<const std::uint8_t> a,
                   std::span<const std::uint8_t> candidates, unsigned lanes,
                   std::span<std::uint64_t> out) const;

  SadConfig config_;
  logic::Netlist netlist_;
  mutable logic::BitslicedSimulator sim_;
  mutable std::vector<std::uint64_t> in_words_;  ///< packed stimulus scratch
};

}  // namespace axc::accel
