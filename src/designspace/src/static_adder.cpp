#include "axc/designspace/static_adder.hpp"

#include <algorithm>

#include "axc/common/require.hpp"

namespace axc::designspace {

using arith::FullAdderKind;

const char* static_adder_kind_name(StaticAdderKind kind) {
  switch (kind) {
    case StaticAdderKind::Loa:
      return "LOA";
    case StaticAdderKind::Loawa:
      return "LOAWA";
    case StaticAdderKind::Heaa:
      return "HEAA";
  }
  return "?";
}

std::vector<FullAdderKind> static_adder_cells(StaticAdderKind kind,
                                              unsigned width,
                                              unsigned approx_lsbs) {
  require(width >= 1 && width <= 63 && approx_lsbs <= width,
          "static_adder_cells: invalid shape");
  std::vector<FullAdderKind> cells(width, FullAdderKind::Accurate);
  if (approx_lsbs == 0) return cells;
  const bool xor_sum = kind == StaticAdderKind::Heaa;
  std::fill_n(cells.begin(), approx_lsbs,
              xor_sum ? FullAdderKind::LowXor : FullAdderKind::LowOr);
  // The top low cell recovers the carry into the exact part, except LOAWA.
  if (kind != StaticAdderKind::Loawa) {
    cells[approx_lsbs - 1] =
        xor_sum ? FullAdderKind::HalfAdd : FullAdderKind::LowOrCarry;
  }
  return cells;
}

}  // namespace axc::designspace
