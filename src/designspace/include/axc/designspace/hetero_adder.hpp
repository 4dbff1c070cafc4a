/// \file hetero_adder.hpp
/// Heterogeneous block-based approximate adders (Farahmand et al.,
/// arXiv:2106.08800) with a closed-form error model.
///
/// The operand is split into blocks, LSB-first; each block is an accurate
/// ripple sub-adder (forwards its carry), a carry-cut sub-adder (exact sum
/// given its carry-in, carry-out dropped) or fully truncated (reads 0).
/// Because every approximation only ever *drops* nonnegative value, the
/// error D = exact - approx is a sum of independent-enough terms that MED,
/// ER and WCE all have exact closed forms under uniform inputs — which the
/// test suite pins bit-exactly against exhaustive enumeration on the
/// compiled tape engine.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "axc/arith/adder.hpp"
#include "axc/error/metrics.hpp"
#include "axc/logic/adder_netlists.hpp"

namespace axc::designspace {

using logic::HeteroBlockSpec;
using logic::HeteroSubAdder;

/// "accurate" / "carry_cut" / "truncated".
const char* hetero_sub_adder_name(HeteroSubAdder kind);

/// Total operand width of a block list.
unsigned hetero_width(std::span<const HeteroBlockSpec> blocks);

/// Canonical sweep shape: the operand is cut into ceil(width/block_width)
/// blocks of \p block_width bits (the top block takes the remainder); the
/// low \p approx_blocks blocks get \p low_kind, the rest stay Accurate.
std::vector<HeteroBlockSpec> make_hetero_blocks(unsigned width,
                                                unsigned block_width,
                                                HeteroSubAdder low_kind,
                                                unsigned approx_blocks);

/// Behavioral model, bit-equivalent to logic::hetero_adder_netlist (the
/// equivalence is pinned by the 4-engine test). carry_in feeds the lowest
/// block exactly like a carry-in net would: added if that block is
/// Accurate/CarryCut, ignored if it is Truncated.
class HeteroBlockAdder final : public arith::Adder {
 public:
  explicit HeteroBlockAdder(std::vector<HeteroBlockSpec> blocks);

  unsigned width() const override { return width_; }
  std::uint64_t add(std::uint64_t a, std::uint64_t b,
                    unsigned carry_in) const override;
  std::string name() const override;
  bool is_exact() const override;

  const std::vector<HeteroBlockSpec>& blocks() const { return blocks_; }

 private:
  std::vector<HeteroBlockSpec> blocks_;
  unsigned width_ = 0;
};

/// Closed-form error statistics under i.i.d. uniform operands (carry-in 0).
/// All four figures are mathematically exact for this family (the error
/// is deficit-only, and the WCE is attained at all-ones operands); see
/// DESIGN.md §13 for the derivation.
error::AdderErrorModel hetero_error_model(
    std::span<const HeteroBlockSpec> blocks);

}  // namespace axc::designspace
