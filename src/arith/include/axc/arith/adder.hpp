/// \file adder.hpp
/// Multi-bit adder interface and the LSB-approximate ripple-carry adder.
///
/// Everything downstream (multipliers, SAD accelerators, filters) consumes
/// adders through the `Adder` interface so that any mix of accurate,
/// IMPACT-chain and GeAr adders can be dropped into a datapath — this is
/// the composability the paper's Fig. 7 methodology relies on.
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "axc/arith/full_adder.hpp"
#include "axc/common/bits.hpp"

namespace axc::arith {

/// Abstract N-bit unsigned adder. Operands are the low width() bits of the
/// arguments; the result carries width()+1 significant bits (carry-out is
/// bit width()).
class Adder {
 public:
  virtual ~Adder() = default;

  /// Bit-width of each operand.
  virtual unsigned width() const = 0;

  /// Adds the low width() bits of a and b (plus optional carry-in) and
  /// returns the (width()+1)-bit result of this adder's behaviour.
  virtual std::uint64_t add(std::uint64_t a, std::uint64_t b,
                            unsigned carry_in = 0) const = 0;

  /// Human-readable identity, e.g. "Ripple<ApxFA3 x4/8>" or "GeAr(8,2,2)".
  virtual std::string name() const = 0;

  /// True if add() is bit-exact for all inputs (used by the design-space
  /// explorer to short-circuit error analysis).
  virtual bool is_exact() const { return false; }
};

/// Factory signature: builds an adder of the requested width. Used by the
/// multiplier generator and accelerator builder, which need adders of
/// several widths from one family.
using AdderFactory = std::function<std::unique_ptr<Adder>(unsigned width)>;

/// Ready-made factory: ripple adders whose \p approx_lsbs low positions
/// use the \p kind approximate cell (clamped to the requested width).
AdderFactory ripple_adder_factory(FullAdderKind kind, unsigned approx_lsbs);

/// Exact two's-complement ripple adder (the baseline in every experiment).
class ExactAdder final : public Adder {
 public:
  explicit ExactAdder(unsigned width);

  unsigned width() const override { return width_; }
  std::uint64_t add(std::uint64_t a, std::uint64_t b,
                    unsigned carry_in) const override;
  std::string name() const override;
  bool is_exact() const override { return true; }

 private:
  unsigned width_;
};

/// Positions up to and including the highest non-accurate cell (0 when
/// every cell is accurate): the low part of a ripple adder that can err.
/// The cells above it form an exact add of the low part's carry.
unsigned low_part_width(std::span<const FullAdderKind> cells);

/// The per-bit ripple-carry loop: cells[i] is evaluated through full_add()
/// at bit position i, LSB first, and the final carry lands at bit
/// cells.size(). Operand bits at or above cells.size() are ignored and
/// only bit 0 of \p carry_in is used. This is the definition of a ripple
/// adder's behaviour; RippleAdder::add is a compiled form of it, and the
/// loop is kept as the test oracle and the bench baseline.
std::uint64_t ripple_add_reference(std::span<const FullAdderKind> cells,
                                   std::uint64_t a, std::uint64_t b,
                                   unsigned carry_in);

/// Ripple-carry adder with a per-bit choice of full-adder cell.
///
/// The canonical use — the one evaluated in the paper's Figs. 6, 8, 9 —
/// approximates the low `k` bit positions with one of the ApxFA cells and
/// keeps the upper positions accurate ("approximating k LSBs").
/// The lower-part cells make the LOA, LOAWA, HEAA and truncated adders
/// instances of the same class (designspace::static_adder_cells).
///
/// Construction compiles the cells into two parts. Every position up to
/// the highest non-accurate cell is covered by 4-bit chunks, each a
/// 512-entry table (a_lo, b_lo, cin) -> (sum_lo, carry) built from
/// ripple_add_reference and interned process-wide by the chunk's cell
/// pattern. The accurate positions above them are one native add with the
/// last chunk's carry fed in. add() is therefore a few table lookups plus
/// one add, for any cell layout, and equals ripple_add_reference bit for
/// bit.
class RippleAdder final : public Adder {
 public:
  /// Cells per compiled table chunk.
  static constexpr unsigned kChunkBits = 4;

  /// \p cells[i] is the full-adder used at bit position i (i = 0 is LSB).
  explicit RippleAdder(std::vector<FullAdderKind> cells);

  /// Convenience: \p approx_lsbs positions of \p kind, the rest accurate.
  static RippleAdder lsb_approximated(unsigned width, FullAdderKind kind,
                                      unsigned approx_lsbs);

  unsigned width() const override {
    return static_cast<unsigned>(cells_.size());
  }
  std::uint64_t add(std::uint64_t a, std::uint64_t b,
                    unsigned carry_in) const override {
    a &= mask_;
    b &= mask_;
    std::uint64_t sum = 0;
    std::uint64_t carry = carry_in & 1u;
    for (unsigned c = 0; c < chunk_count_; ++c) {
      const unsigned shift = c * kChunkBits;
      const std::uint64_t index = ((a >> shift) & kChunkMask)
                                      << (kChunkBits + 1) |
                                  ((b >> shift) & kChunkMask) << 1 | carry;
      const std::uint8_t out = chunks_[c][index];
      sum |= std::uint64_t{out & kChunkMask} << shift;
      carry = out >> kChunkBits;
    }
    // Chunks may run past the width: their padding cells are accurate
    // with zero operands, so the carry-out already sits at bit width() and
    // the high add below is 0 + 0 + 0. high_shift_ stays <= 63.
    return sum |
           (((a >> high_shift_) + (b >> high_shift_) + carry) << high_shift_);
  }
  std::string name() const override;
  bool is_exact() const override { return chunk_count_ == 0; }

  const std::vector<FullAdderKind>& cells() const { return cells_; }

 private:
  static constexpr unsigned kChunkMask = (1u << kChunkBits) - 1;
  static constexpr unsigned kMaxChunks = (63 + kChunkBits - 1) / kChunkBits;

  std::vector<FullAdderKind> cells_;
  std::uint64_t mask_ = 0;      ///< low width() bits
  unsigned chunk_count_ = 0;    ///< table chunks covering the approx cells
  unsigned high_shift_ = 0;     ///< first bit of the native add (<= 63)
  /// Interned chunk tables, LSB chunk first; entry index is
  /// a_lo << 5 | b_lo << 1 | cin, entry value is sum_lo | carry << 4.
  std::array<const std::uint8_t*, kMaxChunks> chunks_{};
};

/// Computes a - b as an (width+1)-bit two's-complement word using \p adder
/// for the addition a + ~b + 1 (this is how the paper's approximate
/// subtractors are realized from approximate adders). Bit `width` of the
/// result is the sign. A template so a concrete (final) adder type is
/// called without virtual dispatch; `const Adder&` works as before.
template <std::derived_from<Adder> AdderT>
std::uint64_t subtract_via(const AdderT& adder, std::uint64_t a,
                           std::uint64_t b) {
  const std::uint64_t mask = low_mask(adder.width());
  // a - b = a + ~b + 1; the +1 rides in on the carry-in, exactly as a
  // hardware subtractor reuses the adder cell.
  return adder.add(a & mask, (~b) & mask, 1u);
}

/// |a - b| on width-bit operands, built from two subtract_via() paths the
/// way the SAD accelerator's absolute-difference stage is (Sec. 6).
template <std::derived_from<Adder> AdderT>
std::uint64_t abs_diff_via(const AdderT& adder, std::uint64_t a,
                           std::uint64_t b) {
  const unsigned width = adder.width();
  // Both subtractors run; the carry-out of the a + ~b + 1 path is the "no
  // borrow" flag the hardware muxes on. An approximate adder may raise the
  // wrong flag — that is part of its error behaviour and is deliberately
  // modelled, not patched over.
  const std::uint64_t forward = subtract_via(adder, a, b);
  const std::uint64_t backward = subtract_via(adder, b, a);
  return (bit_of(forward, width) != 0 ? forward : backward) &
         low_mask(width);
}

}  // namespace axc::arith
