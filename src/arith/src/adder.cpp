#include "axc/arith/adder.hpp"

#include <algorithm>
#include <iterator>
#include <mutex>

#include "axc/common/bits.hpp"
#include "axc/common/require.hpp"

namespace axc::arith {

ExactAdder::ExactAdder(unsigned width) : width_(width) {
  require(width >= 1 && width <= 63, "ExactAdder: width must be in [1, 63]");
}

std::uint64_t ExactAdder::add(std::uint64_t a, std::uint64_t b,
                              unsigned carry_in) const {
  const std::uint64_t mask = low_mask(width_);
  return ((a & mask) + (b & mask) + (carry_in & 1u)) & low_mask(width_ + 1);
}

std::string ExactAdder::name() const {
  return "Exact" + std::to_string(width_);
}

namespace {

constexpr unsigned kChunkBits = RippleAdder::kChunkBits;
constexpr std::size_t kChunkTableSize = std::size_t{1}
                                        << (2 * kChunkBits + 1);
constexpr std::size_t kChunkPatterns = 11 * 11 * 11 * 11;  // 11^kChunkBits
static_assert(kCellKindCount == 11 && kChunkBits == 4);
using ChunkTable = std::array<std::uint8_t, kChunkTableSize>;

/// The table of one 4-cell chunk, shared by every adder with the same cell
/// pattern. The intern is bounded by construction (11^4 patterns x 512 B)
/// and never frees, so the pointers adders hold stay valid.
const std::uint8_t* interned_chunk_table(
    const std::array<FullAdderKind, kChunkBits>& cells) {
  std::size_t key = 0;
  for (const FullAdderKind kind : cells) {
    key = key * kCellKindCount + static_cast<std::size_t>(kind);
  }
  static std::mutex mutex;
  static std::array<std::unique_ptr<const ChunkTable>, kChunkPatterns> tables;
  const std::lock_guard<std::mutex> lock(mutex);
  std::unique_ptr<const ChunkTable>& slot = tables[key];
  if (!slot) {
    auto table = std::make_unique<ChunkTable>();
    for (std::size_t index = 0; index < kChunkTableSize; ++index) {
      const std::uint64_t a = index >> (kChunkBits + 1);
      const std::uint64_t b = (index >> 1) & low_mask(kChunkBits);
      (*table)[index] = static_cast<std::uint8_t>(ripple_add_reference(
          cells, a, b, static_cast<unsigned>(index & 1u)));
    }
    slot = std::move(table);
  }
  return slot->data();
}

}  // namespace

unsigned low_part_width(std::span<const FullAdderKind> cells) {
  const auto top = std::find_if(
      cells.rbegin(), cells.rend(),
      [](FullAdderKind k) { return k != FullAdderKind::Accurate; });
  return static_cast<unsigned>(std::distance(top, cells.rend()));
}

std::uint64_t ripple_add_reference(std::span<const FullAdderKind> cells,
                                   std::uint64_t a, std::uint64_t b,
                                   unsigned carry_in) {
  std::uint64_t sum = 0;
  unsigned carry = carry_in & 1u;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const FullAdderOut out =
        full_add(cells[i], bit_of(a, static_cast<unsigned>(i)),
                 bit_of(b, static_cast<unsigned>(i)), carry);
    sum |= static_cast<std::uint64_t>(out.sum) << i;
    carry = out.carry;
  }
  sum |= static_cast<std::uint64_t>(carry) << cells.size();
  return sum;
}

RippleAdder::RippleAdder(std::vector<FullAdderKind> cells)
    : cells_(std::move(cells)) {
  require(!cells_.empty() && cells_.size() <= 63,
          "RippleAdder: width must be in [1, 63]");
  mask_ = low_mask(width());
  // Table chunks cover every cell up to the highest non-accurate one; the
  // rest is exact and becomes one native add.
  chunk_count_ = (low_part_width(cells_) + kChunkBits - 1) / kChunkBits;
  high_shift_ = std::min(chunk_count_ * kChunkBits, 63u);
  for (unsigned c = 0; c < chunk_count_; ++c) {
    // Positions past the width are padded with accurate cells; their
    // operand bits are masked to zero, so the padding only carries the
    // carry-out up to bit width().
    std::array<FullAdderKind, kChunkBits> pattern{};
    pattern.fill(FullAdderKind::Accurate);
    for (unsigned i = 0; i < kChunkBits; ++i) {
      const unsigned bit = c * kChunkBits + i;
      if (bit < width()) pattern[i] = cells_[bit];
    }
    chunks_[c] = interned_chunk_table(pattern);
  }
}

RippleAdder RippleAdder::lsb_approximated(unsigned width, FullAdderKind kind,
                                          unsigned approx_lsbs) {
  require(width >= 1 && width <= 63,
          "RippleAdder: width must be in [1, 63]");
  require(approx_lsbs <= width,
          "RippleAdder: cannot approximate more LSBs than the width");
  std::vector<FullAdderKind> cells(width, FullAdderKind::Accurate);
  std::fill(cells.begin(), cells.begin() + approx_lsbs, kind);
  return RippleAdder(std::move(cells));
}

std::string RippleAdder::name() const {
  // Run-length summary of the cells, LSB first, without the accurate run
  // at the top: "Ripple<ApxFA3 x4/8>", "Ripple<LowOr x3+LowOrCarry x1/16>".
  const auto end = cells_.begin() + low_part_width(cells_);
  if (end == cells_.begin()) {
    return "Ripple<AccuFA/" + std::to_string(width()) + ">";
  }
  std::string runs;
  for (auto run = cells_.begin(); run != end;) {
    const auto next = std::find_if(
        run, end, [&](FullAdderKind k) { return k != *run; });
    if (!runs.empty()) runs += '+';
    runs += std::string(full_adder_name(*run)) + " x" +
            std::to_string(next - run);
    run = next;
  }
  return "Ripple<" + runs + "/" + std::to_string(width()) + ">";
}

AdderFactory ripple_adder_factory(FullAdderKind kind, unsigned approx_lsbs) {
  return [kind, approx_lsbs](unsigned width) -> std::unique_ptr<Adder> {
    const unsigned k = std::min(approx_lsbs, width);
    return std::make_unique<RippleAdder>(
        RippleAdder::lsb_approximated(width, kind, k));
  };
}

}  // namespace axc::arith
