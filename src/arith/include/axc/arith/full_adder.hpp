/// \file full_adder.hpp
/// The 1-bit approximate full-adder library of Table III.
///
/// The paper implements an accurate full adder (AccuFA) and five
/// approximate variants (ApxFA1..ApxFA5) based on the IMPACT designs of
/// Gupta et al. [11][12]. These 1-bit cells are the elementary blocks from
/// which every multi-bit approximate adder, subtractor, multiplier and
/// accelerator in the library is composed. The truth tables below are
/// byte-for-byte the ones printed in the paper's Table III.
///
/// Five more cells follow the Table III six. They ignore their carry-in
/// and build the lower-part approximate adders of the literature (LOA,
/// LOAWA, HEAA, truncation) as plain ripples of cells: see
/// designspace::static_adder_cells.
#pragma once

#include <cstdint>
#include <string_view>

namespace axc::arith {

/// The six full-adder behaviours of Table III, then the five
/// carry-in-free lower-part cells.
enum class FullAdderKind : std::uint8_t {
  Accurate,  ///< AccuFA — exact sum and carry
  Apx1,      ///< ApxFA1 — IMPACT approximation 1 (2 error cases)
  Apx2,      ///< ApxFA2 — Sum = !Cout with exact Cout (2 error cases)
  Apx3,      ///< ApxFA3 — Sum = !Cout with approximate Cout (3 error cases)
  Apx4,      ///< ApxFA4 — Cout = A (3 error cases)
  Apx5,      ///< ApxFA5 — pure wiring: Sum = B, Cout = A (4 error cases)
  LowOr,       ///< Sum = A | B, Cout = 0 (LOA / LOAWA low bits)
  LowOrCarry,  ///< Sum = A | B, Cout = A & B (LOA's top low bit)
  LowXor,      ///< Sum = A ^ B, Cout = 0 (HEAA low bits)
  HalfAdd,     ///< Sum = A ^ B, Cout = A & B (HEAA's top low bit)
  Zero,        ///< Sum = 0, Cout = 0 (truncation)
};

/// The Table III cells: the ones the paper characterizes and the service
/// accepts on the wire.
inline constexpr int kFullAdderKindCount = 6;

/// All Table III kinds, in column order — handy for sweeps.
inline constexpr FullAdderKind kAllFullAdderKinds[kFullAdderKindCount] = {
    FullAdderKind::Accurate, FullAdderKind::Apx1, FullAdderKind::Apx2,
    FullAdderKind::Apx3,     FullAdderKind::Apx4, FullAdderKind::Apx5,
};

/// Every cell a ripple adder can be built from: Table III plus the five
/// lower-part cells.
inline constexpr int kCellKindCount = 11;

inline constexpr FullAdderKind kAllCellKinds[kCellKindCount] = {
    FullAdderKind::Accurate, FullAdderKind::Apx1,       FullAdderKind::Apx2,
    FullAdderKind::Apx3,     FullAdderKind::Apx4,       FullAdderKind::Apx5,
    FullAdderKind::LowOr,    FullAdderKind::LowOrCarry, FullAdderKind::LowXor,
    FullAdderKind::HalfAdd,  FullAdderKind::Zero,
};

/// One-bit addition result.
struct FullAdderOut {
  unsigned sum = 0;
  unsigned carry = 0;
};

/// Evaluates the full adder \p kind on single-bit inputs (values 0/1).
FullAdderOut full_add(FullAdderKind kind, unsigned a, unsigned b,
                      unsigned cin);

/// The paper's name for the kind ("AccuFA", "ApxFA1", ...); the
/// lower-part cells are named after their enumerators ("LowOr", ...).
std::string_view full_adder_name(FullAdderKind kind);

/// Number of truth-table rows (out of 8) on which \p kind differs from the
/// accurate adder in Sum or Cout — the "#Error Cases" row of Table III.
int full_adder_error_cases(FullAdderKind kind);

/// Reference characterization data published in the paper's Table III, for
/// side-by-side comparison with the values this repo measures on its own
/// gate-level substrate (see axc::logic::characterize_full_adder).
struct PaperFullAdderData {
  double area_ge = 0.0;
  double power_nw = 0.0;
  int error_cases = 0;
};
/// Defined for the Table III kinds only.
PaperFullAdderData paper_full_adder_data(FullAdderKind kind);

}  // namespace axc::arith
