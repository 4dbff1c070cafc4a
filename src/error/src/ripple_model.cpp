#include "axc/error/ripple_model.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "axc/arith/adder.hpp"
#include "axc/common/require.hpp"

namespace axc::error {

using arith::FullAdderKind;

AdderErrorModel ripple_error_model(std::span<const FullAdderKind> cells) {
  require(!cells.empty() && cells.size() <= 63,
          "ripple_error_model: width must be in [1, 63]");
  const unsigned k = arith::low_part_width(cells);
  require(k <= 12, "ripple_error_model: enumeration capped at 12 low cells");
  AdderErrorModel model;
  if (k == 0) {
    model.exact = true;
    return model;
  }
  // The low ripple's result carries its carry-out at bit k, which is what
  // the exact upper part adds in; so approx - exact is low(al, bl) -
  // (al + bl) for every setting of the upper bits. It is signed (a kept
  // carry can overshoot), so accumulate |D|.
  const arith::RippleAdder low(
      std::vector<FullAdderKind>(cells.begin(), cells.begin() + k));
  std::uint64_t err_count = 0;
  std::uint64_t abs_sum = 0;
  const std::uint64_t span = std::uint64_t{1} << k;
  for (std::uint64_t al = 0; al < span; ++al) {
    for (std::uint64_t bl = 0; bl < span; ++bl) {
      const std::uint64_t approx = low.add(al, bl, 0);
      const std::uint64_t exact = al + bl;
      const std::uint64_t dist =
          approx > exact ? approx - exact : exact - approx;
      err_count += dist != 0;
      abs_sum += dist;
      model.wce = std::max(model.wce, dist);
    }
  }
  const double pairs = std::ldexp(1.0, 2 * static_cast<int>(k));
  model.error_rate = static_cast<double>(err_count) / pairs;
  model.med = static_cast<double>(abs_sum) / pairs;
  const int width = static_cast<int>(cells.size());
  model.nmed = model.med / (std::ldexp(1.0, width + 1) - 2.0);
  model.exact = err_count == 0;
  return model;
}

}  // namespace axc::error
