#include "axc/accel/sad.hpp"

#include <bit>

#include "axc/accel/sad_tree.hpp"
#include "axc/common/bits.hpp"
#include "axc/common/require.hpp"

namespace axc::accel {

using arith::FullAdderKind;
using arith::RippleAdder;

std::string SadConfig::name() const {
  const unsigned side = static_cast<unsigned>(std::bit_width(block_pixels) - 1) / 2;
  const std::string geometry =
      std::to_string(1u << side) + "x" + std::to_string(1u << side);
  if (cell == FullAdderKind::Accurate || approx_lsbs == 0) {
    return "AccuSAD<" + geometry + ">";
  }
  const int variant = static_cast<int>(cell);  // Apx1 = 1 ... Apx5 = 5
  return "ApxSAD" + std::to_string(variant) + "<" +
         std::to_string(approx_lsbs) + "lsb," + geometry + ">";
}

namespace {

constexpr unsigned kPixelBits = 8;

unsigned tree_levels(unsigned block_pixels) {
  return static_cast<unsigned>(std::bit_width(block_pixels) - 1);
}

}  // namespace

SadAccelerator::SadAccelerator(const SadConfig& config)
    : config_(config),
      subtractor_(RippleAdder::lsb_approximated(
          kPixelBits, config.cell,
          std::min(config.approx_lsbs, kPixelBits))) {
  require(config.block_pixels >= 2 &&
              config.block_pixels <= kMaxBlockPixels &&
              std::has_single_bit(config.block_pixels),
          "SadAccelerator: block_pixels must be a power of two in [2, 4096]");
  // Tree level i sums (block_pixels >> (i+1)) pairs of (8+i)-bit values.
  const unsigned levels = tree_levels(config_.block_pixels);
  tree_adders_.reserve(levels);
  for (unsigned level = 0; level < levels; ++level) {
    const unsigned width = kPixelBits + level;
    tree_adders_.push_back(RippleAdder::lsb_approximated(
        width, config_.cell, std::min(config_.approx_lsbs, width)));
  }
}

std::uint64_t SadAccelerator::sad(std::span<const std::uint8_t> a,
                                  std::span<const std::uint8_t> b) const {
  require(a.size() == config_.block_pixels && b.size() == a.size(),
          "SadAccelerator::sad: block size mismatch");
  return detail::sad_tree<RippleAdder>(a, b, subtractor_, tree_adders_);
}

void SadAccelerator::sad_batch(std::span<const std::uint8_t> a,
                               std::span<const std::uint8_t> candidates,
                               std::span<std::uint64_t> out) const {
  const std::size_t bp = config_.block_pixels;
  AXC_REQUIRE(a.size() == bp,
              "SadAccelerator::sad_batch: current block size mismatch");
  AXC_REQUIRE(candidates.size() == out.size() * bp,
              "SadAccelerator::sad_batch: candidates must hold exactly one "
              "block per output slot");
  detail::count_sad_batch(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = detail::sad_tree<RippleAdder>(a, candidates.subspan(i * bp, bp),
                                           subtractor_, tree_adders_);
  }
}

bool SadAccelerator::is_exact() const {
  return config_.cell == FullAdderKind::Accurate || config_.approx_lsbs == 0;
}

SadConfig apx_sad_variant(int variant, unsigned approx_lsbs,
                          unsigned block_pixels) {
  require(variant >= 1 && variant <= 5,
          "apx_sad_variant: variant must be in [1, 5]");
  SadConfig config;
  config.block_pixels = block_pixels;
  config.cell = static_cast<FullAdderKind>(variant);
  config.approx_lsbs = approx_lsbs;
  return config;
}

SadConfig accu_sad(unsigned block_pixels) {
  SadConfig config;
  config.block_pixels = block_pixels;
  return config;
}

}  // namespace axc::accel
