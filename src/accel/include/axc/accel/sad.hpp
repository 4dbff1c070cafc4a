/// \file sad.hpp
/// The SAD (Sum of Absolute Differences) accelerator of Sec. 6 — the
/// motion-estimation workhorse evaluated in Figs. 8 and 9.
///
/// Architecture (the standard systolic SAD): one absolute-difference stage
/// per pixel pair (two ripple subtractors + a borrow-controlled mux),
/// followed by a binary adder tree whose width grows by one bit per level.
/// Approximation: every full adder in the low `approx_lsbs` positions of
/// the subtractors and tree adders uses one of the Table III ApxFA cells —
/// the paper's ApxSAD1..ApxSAD5 variants, parameterized additionally by
/// the number of approximated LSBs (2/4/6 in Fig. 9).
///
/// Two coordinated realizations exist, mirroring the paper's flow (Fig. 2):
/// the *behavioural* model here (fast, drives quality experiments) and the
/// *structural netlist* in sad_netlist.hpp (drives area/power). Their
/// equivalence is asserted by the test suite.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "axc/accel/sad_unit.hpp"
#include "axc/arith/adder.hpp"

namespace axc::accel {

/// Configuration of a SAD accelerator variant.
struct SadConfig {
  unsigned block_pixels = 64;  ///< pixels per block (e.g. 8x8 = 64)
  arith::FullAdderKind cell = arith::FullAdderKind::Accurate;
  unsigned approx_lsbs = 0;  ///< approximated LSB positions per adder

  /// "ApxSAD3<4lsb,8x8>" / "AccuSAD<8x8>".
  std::string name() const;
};

/// Behavioural SAD accelerator.
class SadAccelerator final : public SadUnit {
 public:
  explicit SadAccelerator(const SadConfig& config);

  const SadConfig& config() const { return config_; }

  unsigned block_pixels() const override { return config_.block_pixels; }
  std::string name() const override { return config_.name(); }

  /// Sum of absolute differences over two equally-sized 8-bit blocks.
  /// Blocks must have exactly config().block_pixels elements.
  std::uint64_t sad(std::span<const std::uint8_t> a,
                    std::span<const std::uint8_t> b) const override;

  /// Same results as the default; the size checks run once per batch.
  void sad_batch(std::span<const std::uint8_t> a,
                 std::span<const std::uint8_t> candidates,
                 std::span<std::uint64_t> out) const override;

  /// True when every adder cell is accurate.
  bool is_exact() const override;

  /// Purely functional — safe for concurrent block-parallel encoding.
  bool is_concurrent_safe() const override { return true; }

 private:
  SadConfig config_;
  arith::RippleAdder subtractor_;  ///< 8-bit abs-diff datapath
  std::vector<arith::RippleAdder> tree_adders_;  ///< one per tree level
};

/// The paper's named variants: ApxSAD1..ApxSAD5 use ApxFA1..ApxFA5 cells.
/// \p variant in [1, 5]; \p approx_lsbs as in Fig. 9 (2/4/6).
SadConfig apx_sad_variant(int variant, unsigned approx_lsbs,
                          unsigned block_pixels = 64);

/// The accurate baseline.
SadConfig accu_sad(unsigned block_pixels = 64);

}  // namespace axc::accel
