#include "axc/resilience/gear_sad.hpp"

#include <bit>

#include "axc/accel/sad_tree.hpp"
#include "axc/common/require.hpp"

namespace axc::resilience {

arith::GeArConfig gear_config_for_width(const arith::GeArConfig& base,
                                        unsigned width) {
  AXC_REQUIRE(base.is_valid(), "gear_config_for_width: invalid base config");
  AXC_REQUIRE(width >= 1 && width <= 63,
              "gear_config_for_width: width must be in [1, 63]");
  if (base.l() >= width) {
    // The base window already covers the word: one exact sub-adder.
    return arith::GeArConfig{width, width, 0};
  }
  // Keep R; grow P by the tiling remainder so (width - L) % R == 0. The
  // growth is at most R - 1 bits, and L stays <= width because the
  // remainder never exceeds width - L.
  const unsigned p = base.p + (width - base.l()) % base.r;
  return arith::GeArConfig{width, base.r, p};
}

namespace {

constexpr unsigned kPixelBits = 8;

arith::GeArAdder make_adder(const arith::GeArConfig& base, unsigned width,
                            unsigned corrections) {
  return arith::GeArAdder(gear_config_for_width(base, width), corrections);
}

}  // namespace

GearSad::GearSad(unsigned block_pixels, const arith::GeArConfig& base,
                 unsigned correction_iterations)
    : block_pixels_(block_pixels),
      base_(base),
      corrections_(correction_iterations),
      subtractor_(make_adder(base, kPixelBits, correction_iterations)) {
  AXC_REQUIRE(block_pixels >= 2 && block_pixels <= accel::kMaxBlockPixels &&
                  std::has_single_bit(block_pixels),
              "GearSad: block_pixels must be a power of two in [2, 4096]");
  AXC_REQUIRE(base.is_valid() && base.n == kPixelBits,
              "GearSad: base must be a valid 8-bit GeAr configuration");
  // Tree level i sums (block_pixels >> (i+1)) pairs of (8+i)-bit values.
  const unsigned levels =
      static_cast<unsigned>(std::bit_width(block_pixels_) - 1);
  tree_adders_.reserve(levels);
  for (unsigned level = 0; level < levels; ++level) {
    tree_adders_.push_back(
        make_adder(base, kPixelBits + level, correction_iterations));
  }
}

std::uint64_t GearSad::sad(std::span<const std::uint8_t> a,
                           std::span<const std::uint8_t> b) const {
  AXC_REQUIRE(a.size() == block_pixels_ && b.size() == a.size(),
              "GearSad::sad: block size mismatch");
  return accel::detail::sad_tree<arith::GeArAdder>(a, b, subtractor_,
                                                   tree_adders_);
}

std::string GearSad::name() const {
  const unsigned side =
      1u << (static_cast<unsigned>(std::bit_width(block_pixels_) - 1) / 2);
  std::string label = "GeArSAD<" + base_.name();
  if (corrections_ > 0) label += "+CEC" + std::to_string(corrections_);
  label += "," + std::to_string(side) + "x" + std::to_string(side) + ">";
  return label;
}

bool GearSad::is_exact() const {
  if (!subtractor_.is_exact()) return false;
  for (const arith::GeArAdder& adder : tree_adders_) {
    if (!adder.is_exact()) return false;
  }
  return true;
}

}  // namespace axc::resilience
