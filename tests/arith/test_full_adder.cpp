#include "axc/arith/full_adder.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace axc::arith {
namespace {

TEST(FullAdder, AccurateMatchesArithmetic) {
  for (unsigned a = 0; a <= 1; ++a) {
    for (unsigned b = 0; b <= 1; ++b) {
      for (unsigned c = 0; c <= 1; ++c) {
        const auto out = full_add(FullAdderKind::Accurate, a, b, c);
        EXPECT_EQ(out.sum + 2 * out.carry, a + b + c);
      }
    }
  }
}

// Table III, verbatim rows for each approximate variant. Row order is
// (A, B, Cin) and each entry is {sum, carry}.
//
// gtest registers each instance under a dump of the parameter's raw bytes,
// so the kind is held at full word width: a one-byte enum here would leave
// three uninitialised padding bytes in that dump, and the registered test
// names would differ from one build to the next.
struct TableIiiCase {
  std::uint32_t kind;  // a FullAdderKind
  // Indexed by A*4 + B*2 + Cin.
  unsigned sum[8];
  unsigned carry[8];

  FullAdderKind adder() const { return static_cast<FullAdderKind>(kind); }
};

constexpr std::uint32_t code(FullAdderKind kind) {
  return static_cast<std::uint32_t>(kind);
}

class TableIii : public ::testing::TestWithParam<TableIiiCase> {};

TEST_P(TableIii, TruthTableMatchesPaper) {
  const auto& c = GetParam();
  for (unsigned row = 0; row < 8; ++row) {
    const unsigned a = (row >> 2) & 1u;
    const unsigned b = (row >> 1) & 1u;
    const unsigned cin = row & 1u;
    const auto out = full_add(c.adder(), a, b, cin);
    EXPECT_EQ(out.sum, c.sum[row]) << "row " << row;
    EXPECT_EQ(out.carry, c.carry[row]) << "row " << row;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, TableIii,
    ::testing::Values(
        TableIiiCase{code(FullAdderKind::Accurate),
                     {0, 1, 1, 0, 1, 0, 0, 1},
                     {0, 0, 0, 1, 0, 1, 1, 1}},
        TableIiiCase{code(FullAdderKind::Apx1),
                     {0, 1, 0, 0, 0, 0, 0, 1},
                     {0, 0, 1, 1, 0, 1, 1, 1}},
        TableIiiCase{code(FullAdderKind::Apx2),
                     {1, 1, 1, 0, 1, 0, 0, 0},
                     {0, 0, 0, 1, 0, 1, 1, 1}},
        TableIiiCase{code(FullAdderKind::Apx3),
                     {1, 1, 0, 0, 1, 0, 0, 0},
                     {0, 0, 1, 1, 0, 1, 1, 1}},
        TableIiiCase{code(FullAdderKind::Apx4),
                     {0, 1, 0, 1, 0, 0, 0, 1},
                     {0, 0, 0, 0, 1, 1, 1, 1}},
        TableIiiCase{code(FullAdderKind::Apx5),
                     {0, 0, 1, 1, 0, 0, 1, 1},
                     {0, 0, 0, 0, 1, 1, 1, 1}}),
    [](const auto& info) {
      return std::string(full_adder_name(info.param.adder()));
    });

TEST(FullAdder, ErrorCasesMatchTableIii) {
  EXPECT_EQ(full_adder_error_cases(FullAdderKind::Accurate), 0);
  EXPECT_EQ(full_adder_error_cases(FullAdderKind::Apx1), 2);
  EXPECT_EQ(full_adder_error_cases(FullAdderKind::Apx2), 2);
  EXPECT_EQ(full_adder_error_cases(FullAdderKind::Apx3), 3);
  EXPECT_EQ(full_adder_error_cases(FullAdderKind::Apx4), 3);
  EXPECT_EQ(full_adder_error_cases(FullAdderKind::Apx5), 4);
}

TEST(FullAdder, PaperDataMatchesErrorCases) {
  for (const FullAdderKind kind : kAllFullAdderKinds) {
    EXPECT_EQ(paper_full_adder_data(kind).error_cases,
              full_adder_error_cases(kind))
        << full_adder_name(kind);
  }
}

TEST(FullAdder, ApxFa2SumIsInvertedCarry) {
  for (unsigned row = 0; row < 8; ++row) {
    const auto out = full_add(FullAdderKind::Apx2, (row >> 2) & 1u,
                              (row >> 1) & 1u, row & 1u);
    EXPECT_EQ(out.sum, out.carry ^ 1u);
  }
}

TEST(FullAdder, ApxFa3SumIsInvertedCarry) {
  for (unsigned row = 0; row < 8; ++row) {
    const auto out = full_add(FullAdderKind::Apx3, (row >> 2) & 1u,
                              (row >> 1) & 1u, row & 1u);
    EXPECT_EQ(out.sum, out.carry ^ 1u);
  }
}

TEST(FullAdder, ApxFa5IsPureWiring) {
  for (unsigned row = 0; row < 8; ++row) {
    const unsigned a = (row >> 2) & 1u;
    const unsigned b = (row >> 1) & 1u;
    const auto out = full_add(FullAdderKind::Apx5, a, b, row & 1u);
    EXPECT_EQ(out.sum, b);
    EXPECT_EQ(out.carry, a);
  }
}

TEST(FullAdder, LowerPartCellsIgnoreCarryIn) {
  struct Cell {
    FullAdderKind kind;
    bool xor_sum;     // sum = a ^ b, else a | b
    bool keep_carry;  // carry = a & b, else 0
  };
  const Cell cells[] = {{FullAdderKind::LowOr, false, false},
                        {FullAdderKind::LowOrCarry, false, true},
                        {FullAdderKind::LowXor, true, false},
                        {FullAdderKind::HalfAdd, true, true}};
  for (unsigned row = 0; row < 8; ++row) {
    const unsigned a = (row >> 2) & 1u;
    const unsigned b = (row >> 1) & 1u;
    for (const Cell& cell : cells) {
      const auto out = full_add(cell.kind, a, b, row & 1u);
      EXPECT_EQ(out.sum, cell.xor_sum ? a ^ b : a | b)
          << full_adder_name(cell.kind) << " row " << row;
      EXPECT_EQ(out.carry, cell.keep_carry ? a & b : 0u)
          << full_adder_name(cell.kind) << " row " << row;
    }
    const auto zero = full_add(FullAdderKind::Zero, a, b, row & 1u);
    EXPECT_EQ(zero.sum, 0u);
    EXPECT_EQ(zero.carry, 0u);
  }
  EXPECT_THROW(paper_full_adder_data(FullAdderKind::LowOr),
               std::invalid_argument);
}

TEST(FullAdder, NonBitInputRejected) {
  EXPECT_THROW(full_add(FullAdderKind::Accurate, 2, 0, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace axc::arith
