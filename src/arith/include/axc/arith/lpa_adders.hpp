/// \file lpa_adders.hpp
/// The error-tolerant adder type I (ETA-I, Zhu et al. [8]'s precursor):
/// the one lower-part-approximate adder of the surveyed literature that
/// is not a ripple of 1-bit cells. Its low part is computed MSB to LSB;
/// from the first position where both operand bits are 1, that bit and
/// everything below saturate to 1. No carry enters the upper part.
///
/// The other lower-part adders (LOA, LOAWA, HEAA, truncation) are
/// RippleAdder cell vectors over the lower-part cells of FullAdderKind
/// (see designspace::static_adder_cells); GeArAdder covers the segmented
/// / speculative family. Together they complete the component library's
/// adder taxonomy (Table I's "functional approximation" row at the
/// circuit layer).
#pragma once

#include "axc/arith/adder.hpp"

namespace axc::arith {

/// Error-tolerant adder type I (saturating low part).
class EtaiAdder final : public Adder {
 public:
  /// \p approx_lsbs low positions saturate (0 = exact adder).
  EtaiAdder(unsigned width, unsigned approx_lsbs);

  unsigned width() const override { return width_; }
  std::uint64_t add(std::uint64_t a, std::uint64_t b,
                    unsigned carry_in) const override;
  std::string name() const override;
  bool is_exact() const override { return approx_lsbs_ == 0; }

  unsigned approx_lsbs() const { return approx_lsbs_; }

 private:
  unsigned width_;
  unsigned approx_lsbs_;
};

}  // namespace axc::arith
