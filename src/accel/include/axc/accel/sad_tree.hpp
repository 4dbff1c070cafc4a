/// \file sad_tree.hpp
/// The Sec. 6 SAD datapath shared by the behavioural engines
/// (accel::SadAccelerator on ripple adders, resilience::GearSad on GeAr
/// adders): one absolute-difference stage per pixel pair, then a binary
/// adder tree whose width grows by one bit per level.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "axc/arith/adder.hpp"

namespace axc::accel {

/// Largest block a SAD engine accepts (64x64 pixels).
inline constexpr unsigned kMaxBlockPixels = 4096;

namespace detail {

/// SAD of two blocks of equal, power-of-two size in [2, kMaxBlockPixels]:
/// abs_diff_via(subtractor) per pixel, then tree[i] sums the pairs of
/// level i. Tree level 0 is fused with the abs-diff stage and the
/// reduction runs in place in fixed stack scratch, so a call makes no heap
/// allocation. \p AdderT is the concrete (final) adder type, so every add
/// is a direct call. Sizes are the caller's to check.
template <class AdderT>
std::uint64_t sad_tree(std::span<const std::uint8_t> a,
                       std::span<const std::uint8_t> b,
                       const AdderT& subtractor,
                       std::span<const AdderT> tree) {
  // Left uninitialised on purpose: every entry is written before it is
  // read, and zeroing 16 KiB per call would cost more than a 64-pixel SAD.
  std::array<std::uint64_t, kMaxBlockPixels / 2> values;
  std::size_t count = a.size() / 2;
  for (std::size_t i = 0; i < count; ++i) {
    values[i] = tree[0].add(
        arith::abs_diff_via(subtractor, a[2 * i], b[2 * i]),
        arith::abs_diff_via(subtractor, a[2 * i + 1], b[2 * i + 1]), 0);
  }
  for (std::size_t level = 1; level < tree.size(); ++level) {
    count /= 2;
    for (std::size_t i = 0; i < count; ++i) {
      values[i] = tree[level].add(values[2 * i], values[2 * i + 1], 0);
    }
  }
  return values[0];
}

}  // namespace detail

}  // namespace axc::accel
