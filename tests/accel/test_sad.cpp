#include "axc/accel/sad.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "axc/common/rng.hpp"

namespace axc::accel {
namespace {

using arith::FullAdderKind;

std::uint64_t reference_sad(std::span<const std::uint8_t> a,
                            std::span<const std::uint8_t> b) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum += a[i] > b[i] ? a[i] - b[i] : b[i] - a[i];
  }
  return sum;
}

TEST(SadAccelerator, AccurateMatchesReference) {
  const SadAccelerator sad(accu_sad(64));
  EXPECT_TRUE(sad.is_exact());
  axc::Rng rng(1);
  std::vector<std::uint8_t> a(64), b(64);
  for (int trial = 0; trial < 500; ++trial) {
    for (auto& px : a) px = static_cast<std::uint8_t>(rng.bits(8));
    for (auto& px : b) px = static_cast<std::uint8_t>(rng.bits(8));
    ASSERT_EQ(sad.sad(a, b), reference_sad(a, b));
  }
}

TEST(SadAccelerator, ZeroForIdenticalBlocks) {
  const SadAccelerator sad(accu_sad(256));
  std::vector<std::uint8_t> block(256);
  std::iota(block.begin(), block.end(), 0);
  EXPECT_EQ(sad.sad(block, block), 0u);
}

TEST(SadAccelerator, MaxSadValue) {
  const SadAccelerator sad(accu_sad(64));
  const std::vector<std::uint8_t> zeros(64, 0);
  const std::vector<std::uint8_t> maxed(64, 255);
  EXPECT_EQ(sad.sad(zeros, maxed), 64u * 255u);
}

// Approximate variants must stay *close* to the reference: the error
// surface shift of Fig. 8 is bounded, not wild.
class SadVariants
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(SadVariants, ErrorBoundedRelativeToReference) {
  const auto [variant, lsbs] = GetParam();
  const SadAccelerator sad(apx_sad_variant(variant, lsbs, 64));
  EXPECT_FALSE(sad.is_exact());
  axc::Rng rng(variant * 100 + lsbs);
  std::vector<std::uint8_t> a(64), b(64);
  double total_rel = 0.0;
  constexpr int kTrials = 300;
  for (int trial = 0; trial < kTrials; ++trial) {
    for (auto& px : a) px = static_cast<std::uint8_t>(rng.bits(8));
    for (auto& px : b) px = static_cast<std::uint8_t>(rng.bits(8));
    const double exact = static_cast<double>(reference_sad(a, b));
    const double approx = static_cast<double>(sad.sad(a, b));
    total_rel += std::abs(approx - exact) / std::max(exact, 1.0);
  }
  // 2-4 approximated LSBs keep the mean relative deviation modest.
  EXPECT_LT(total_rel / kTrials, lsbs >= 6 ? 0.5 : 0.15)
      << "variant " << variant << " lsbs " << lsbs;
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndLsbs, SadVariants,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(2u, 4u)));

TEST(SadAccelerator, NamesFollowPaperConvention) {
  EXPECT_EQ(accu_sad(64).name(), "AccuSAD<8x8>");
  EXPECT_EQ(apx_sad_variant(3, 4, 64).name(), "ApxSAD3<4lsb,8x8>");
  EXPECT_EQ(apx_sad_variant(1, 2, 256).name(), "ApxSAD1<2lsb,16x16>");
}

TEST(SadAccelerator, BlockSizeValidation) {
  SadConfig config;
  config.block_pixels = 48;  // not a power of two
  EXPECT_THROW(SadAccelerator{config}, std::invalid_argument);
  EXPECT_THROW(apx_sad_variant(0, 2), std::invalid_argument);
  EXPECT_THROW(apx_sad_variant(6, 2), std::invalid_argument);
}

TEST(SadAccelerator, BlockSizeMismatchRejected) {
  const SadAccelerator sad(accu_sad(64));
  const std::vector<std::uint8_t> wrong(32, 0);
  const std::vector<std::uint8_t> right(64, 0);
  EXPECT_THROW(sad.sad(wrong, right), std::invalid_argument);
}

/// SAD through arith::ripple_add_reference alone: the Sec. 6 structure (two
/// subtracts and the borrow mux per pixel, then a binary adder tree one bit
/// wider per level) written out independently of SadAccelerator.
std::uint64_t reference_ripple_sad(const SadConfig& config,
                                   std::span<const std::uint8_t> a,
                                   std::span<const std::uint8_t> b) {
  const auto cells = [&](unsigned width) {
    std::vector<FullAdderKind> layout(width, FullAdderKind::Accurate);
    std::fill_n(layout.begin(), std::min(config.approx_lsbs, width),
                config.cell);
    return layout;
  };
  const std::vector<FullAdderKind> subtractor = cells(8);
  std::vector<std::uint64_t> values;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::uint64_t forward =
        arith::ripple_add_reference(subtractor, a[i], ~b[i] & 0xFFu, 1);
    const std::uint64_t backward =
        arith::ripple_add_reference(subtractor, b[i], ~a[i] & 0xFFu, 1);
    values.push_back(((forward >> 8) & 1u ? forward : backward) & 0xFFu);
  }
  for (unsigned width = 8; values.size() > 1; ++width) {
    const std::vector<FullAdderKind> level = cells(width);
    std::vector<std::uint64_t> next;
    for (std::size_t i = 0; i + 1 < values.size(); i += 2) {
      next.push_back(
          arith::ripple_add_reference(level, values[i], values[i + 1], 0));
    }
    values = std::move(next);
  }
  return values.front();
}

class SadAgainstRippleReference
    : public ::testing::TestWithParam<unsigned> {};

TEST_P(SadAgainstRippleReference, EveryFig9ConfigMatches) {
  const unsigned block = GetParam();
  std::vector<SadConfig> configs = {accu_sad(block)};
  for (int variant = 1; variant <= 5; ++variant) {
    for (const unsigned lsbs : {2u, 4u, 6u}) {
      configs.push_back(apx_sad_variant(variant, lsbs, block));
    }
  }
  ASSERT_EQ(configs.size(), 16u);
  constexpr std::size_t kCandidates = 3;
  axc::Rng rng(block);
  std::vector<std::uint8_t> a(block);
  std::vector<std::uint8_t> candidates(kCandidates * block);
  for (const SadConfig& config : configs) {
    const SadAccelerator sad(config);
    for (auto& px : a) px = static_cast<std::uint8_t>(rng.bits(8));
    for (auto& px : candidates) px = static_cast<std::uint8_t>(rng.bits(8));
    std::vector<std::uint64_t> batch(kCandidates);
    sad.sad_batch(a, candidates, batch);
    for (std::size_t c = 0; c < kCandidates; ++c) {
      const std::span<const std::uint8_t> b(candidates.data() + c * block,
                                            block);
      const std::uint64_t want = reference_ripple_sad(config, a, b);
      EXPECT_EQ(sad.sad(a, b), want) << config.name();
      EXPECT_EQ(batch[c], want) << config.name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, SadAgainstRippleReference,
                         ::testing::Values(4u, 16u, 64u, 256u, 4096u));

}  // namespace
}  // namespace axc::accel
