#include "axc/arith/full_adder.hpp"

#include <array>

#include "axc/common/require.hpp"

namespace axc::arith {
namespace {

/// Table III and the lower-part cells encoded as two bytes per kind: bit r
/// of `sum`/`carry` is the output for input row r, with the row index
/// r = A*4 + B*2 + Cin.
struct FaTruth {
  std::uint8_t sum;
  std::uint8_t carry;
};

// Row order (LSB first): 000, 001, 010, 011, 100, 101, 110, 111.
constexpr std::array<FaTruth, kCellKindCount> kTruth = {{
    // AccuFA:  S = A^B^Cin, C = maj(A,B,Cin)
    {0b10010110, 0b11101000},
    // ApxFA1:  S rows 001,111 ; C rows 010,011,101,110,111
    {0b10000010, 0b11101100},
    // ApxFA2:  S = !Cacc     ; C = Cacc
    {0b00010111, 0b11101000},
    // ApxFA3:  S = !Capx     ; C rows 010,011,101,110,111
    {0b00010011, 0b11101100},
    // ApxFA4:  S rows 001,011,111 ; C = A
    {0b10001010, 0b11110000},
    // ApxFA5:  S = B         ; C = A
    {0b11001100, 0b11110000},
    // LowOr:      S = A|B ; C = 0
    {0b11111100, 0b00000000},
    // LowOrCarry: S = A|B ; C = A&B
    {0b11111100, 0b11000000},
    // LowXor:     S = A^B ; C = 0
    {0b00111100, 0b00000000},
    // HalfAdd:    S = A^B ; C = A&B
    {0b00111100, 0b11000000},
    // Zero:       S = 0   ; C = 0
    {0b00000000, 0b00000000},
}};

constexpr std::array<std::string_view, kCellKindCount> kNames = {
    "AccuFA", "ApxFA1",     "ApxFA2", "ApxFA3",  "ApxFA4", "ApxFA5",
    "LowOr",  "LowOrCarry", "LowXor", "HalfAdd", "Zero"};

// Last three rows of Table III as printed in the paper.
constexpr std::array<PaperFullAdderData, kFullAdderKindCount> kPaperData = {{
    {4.41, 1130.0, 0},
    {4.23, 771.0, 2},
    {1.94, 294.0, 2},
    {1.59, 198.0, 3},
    {1.76, 416.0, 3},
    {0.00, 0.0, 4},
}};

}  // namespace

FullAdderOut full_add(FullAdderKind kind, unsigned a, unsigned b,
                      unsigned cin) {
  require((a | b | cin) <= 1, "full_add: inputs must be single bits");
  const FaTruth& truth = kTruth[static_cast<int>(kind)];
  const unsigned row = a * 4 + b * 2 + cin;
  return {(truth.sum >> row) & 1u, (truth.carry >> row) & 1u};
}

std::string_view full_adder_name(FullAdderKind kind) {
  return kNames[static_cast<int>(kind)];
}

int full_adder_error_cases(FullAdderKind kind) {
  const FaTruth& truth = kTruth[static_cast<int>(kind)];
  const FaTruth& exact = kTruth[0];
  int errors = 0;
  for (unsigned row = 0; row < 8; ++row) {
    const bool sum_ok = ((truth.sum ^ exact.sum) >> row & 1u) == 0;
    const bool carry_ok = ((truth.carry ^ exact.carry) >> row & 1u) == 0;
    if (!sum_ok || !carry_ok) ++errors;
  }
  return errors;
}

PaperFullAdderData paper_full_adder_data(FullAdderKind kind) {
  require(static_cast<int>(kind) < kFullAdderKindCount,
          "paper_full_adder_data: not a Table III cell");
  return kPaperData[static_cast<int>(kind)];
}

}  // namespace axc::arith
