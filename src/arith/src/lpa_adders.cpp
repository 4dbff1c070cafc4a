#include "axc/arith/lpa_adders.hpp"

#include "axc/common/bits.hpp"
#include "axc/common/require.hpp"

namespace axc::arith {

EtaiAdder::EtaiAdder(unsigned width, unsigned approx_lsbs)
    : width_(width), approx_lsbs_(approx_lsbs) {
  require(width >= 1 && width <= 63, "EtaiAdder: width must be in [1, 63]");
  require(approx_lsbs <= width,
          "EtaiAdder: approximate part exceeds the width");
}

std::uint64_t EtaiAdder::add(std::uint64_t a, std::uint64_t b,
                             unsigned carry_in) const {
  a &= low_mask(width_);
  b &= low_mask(width_);
  const unsigned k = approx_lsbs_;
  if (k == 0) return a + b + (carry_in & 1u);
  // Low part, MSB -> LSB: XOR until the first (1, 1) pair, then saturate
  // everything from that position downward to 1.
  std::uint64_t low = 0;
  bool saturate = false;
  for (unsigned i = k; i-- > 0;) {
    if (saturate) {
      low |= std::uint64_t{1} << i;
      continue;
    }
    const unsigned ai = bit_of(a, i);
    const unsigned bi = bit_of(b, i);
    if (ai & bi) {
      saturate = true;
      low |= std::uint64_t{1} << i;
    } else {
      low |= static_cast<std::uint64_t>(ai ^ bi) << i;
    }
  }
  const std::uint64_t high = (a >> k) + (b >> k);  // no carry crosses
  return (high << k) | low;
}

std::string EtaiAdder::name() const {
  return "ETAI(" + std::to_string(width_) + "," +
         std::to_string(approx_lsbs_) + ")";
}

}  // namespace axc::arith
