/// \file static_adder.hpp
/// Gate-level static approximate adders for the low-area corner
/// (LOA / LOAWA / HEAA, per the arXiv:2112.09320 taxonomy).
///
/// All three cut the carry chain at bit k and replace the low k sum bits
/// with single gates: OR (LOA, LOAWA) or XOR (HEAA). LOA and HEAA predict
/// the carry into the exact upper part as a[k-1] & b[k-1]; LOAWA feeds it
/// constant 0. Each is a ripple of arith::FullAdderKind cells, so
/// arith::RippleAdder runs it, logic::ripple_adder_netlist builds it and
/// error::ripple_error_model gives its exact ER/MED/WCE. Like every
/// lower-part cell, the low cells ignore the carry-in.
#pragma once

#include <cstdint>
#include <vector>

#include "axc/arith/full_adder.hpp"

namespace axc::designspace {

/// Which static approximate adder family.
enum class StaticAdderKind : std::uint8_t {
  Loa = 0,    ///< OR low bits, carry recovered as a[k-1] & b[k-1]
  Loawa = 1,  ///< OR low bits, no carry into the upper part
  Heaa = 2,   ///< XOR low bits, carry recovered as a[k-1] & b[k-1]
};

/// "LOA" / "LOAWA" / "HEAA".
const char* static_adder_kind_name(StaticAdderKind kind);

/// The cell vector of a \p width-bit adder of \p kind with \p approx_lsbs
/// approximate low bits, LSB first; accurate cells above them:
///  - LOA:   LowOr x (k-1), LowOrCarry
///  - LOAWA: LowOr x k
///  - HEAA:  LowXor x (k-1), HalfAdd
std::vector<arith::FullAdderKind> static_adder_cells(StaticAdderKind kind,
                                                     unsigned width,
                                                     unsigned approx_lsbs);

}  // namespace axc::designspace
