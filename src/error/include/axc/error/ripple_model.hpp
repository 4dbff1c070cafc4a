/// \file ripple_model.hpp
/// Exact error model of a ripple adder built from the cells of
/// arith::FullAdderKind.
///
/// Let k = arith::low_part_width(cells), the highest non-accurate cell
/// position + 1. The cells above k - 1 are accurate and take the low part's carry exactly, so the
/// adder's error equals the error of its low k cells on the low k operand
/// bits, whatever the upper bits are. Enumerating the 4^k low operand
/// pairs (carry-in 0) through the compiled low-k ripple therefore gives
/// ER, MED and WCE exactly, for every cell layout: the static LOA / LOAWA
/// / HEAA adders, truncation and the Fig. 8/9 ApxFA1-5 layouts alike.
#pragma once

#include <span>

#include "axc/arith/full_adder.hpp"
#include "axc/error/metrics.hpp"

namespace axc::error {

/// Exact error figures of the ripple adder with \p cells (cells[0] is the
/// LSB). Requires 1 <= cells.size() <= 63 and k <= 12 (4^12 pairs).
AdderErrorModel ripple_error_model(std::span<const arith::FullAdderKind> cells);

}  // namespace axc::error
