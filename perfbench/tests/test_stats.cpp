// Tests of the benchmark's statistics helpers (perfbench/src/stats.hpp).
// Build and run (ctest also runs tests/test_compare.py):
//   cmake -S perfbench -B .bench_build/perfbench && \
//   cmake --build .bench_build/perfbench -j4 --target perfbench_tests && \
//   ctest --test-dir .bench_build/perfbench
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({7}), 7.0);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 50);
  EXPECT_DOUBLE_EQ(percentile(v, 99), 99);
  EXPECT_DOUBLE_EQ(percentile(v, 99.5), 100);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 100);
  EXPECT_DOUBLE_EQ(percentile({5, 1, 3}, 1), 1);
  EXPECT_THROW(percentile(v, 0), std::invalid_argument);
}

TEST(TailPercentile, TenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);  // rank ceil(989.01) = 990
  EXPECT_EQ(samples_beyond(200, 95), 10u);
  EXPECT_EQ(samples_beyond(10, 100), 0u);

  const std::vector<double> ladder = {50, 90, 95, 99, 99.9};
  EXPECT_DOUBLE_EQ(highest_percentile_with_tail(10000, ladder), 99.9);
  EXPECT_DOUBLE_EQ(highest_percentile_with_tail(9999, ladder), 99);
  EXPECT_DOUBLE_EQ(highest_percentile_with_tail(1000, ladder), 99);
  EXPECT_DOUBLE_EQ(highest_percentile_with_tail(999, ladder), 95);
  EXPECT_DOUBLE_EQ(highest_percentile_with_tail(200, ladder), 95);
  EXPECT_DOUBLE_EQ(highest_percentile_with_tail(100, ladder), 90);
  EXPECT_DOUBLE_EQ(highest_percentile_with_tail(19, ladder), 0);
  EXPECT_DOUBLE_EQ(highest_percentile_with_tail(20, ladder), 50);
}

// Windows of 100 samples over a 1 ms-per-sample stream: a 50 ms stall on
// one sample slows the second window and raises its percentiles, but not
// the medians over windows; the partial fourth window is dropped.
TEST(WindowedStats, MediansOverCompleteWindows) {
  const std::int64_t ms = 1'000'000;
  WindowedStats w(100, 90, 0);
  std::int64_t now = 0;
  for (int i = 0; i < 350; ++i) {
    const std::int64_t latency = i == 150 ? 50 * ms : (1 + i % 10) * ms / 10;
    now += i == 150 ? 50 * ms : ms;
    w.record(now, latency);
  }
  EXPECT_EQ(w.windows(), 3u);
  EXPECT_NEAR(w.per_s(), 1000.0, 1e-9);  // windows of 100, 149 and 100 ms
  EXPECT_DOUBLE_EQ(w.p50_ms(), 0.5);
  EXPECT_DOUBLE_EQ(w.tail_ms(), 0.9);  // 10 samples beyond p90 per window
  EXPECT_THROW(WindowedStats(99, 90, 0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(WindowedStats(100, 90, 0).per_s(), 0.0);
}

// frame [0, 100) holds two sad_batch children [10, 30) and [25, 50) that
// overlap, plus a grandchild [12, 14) inside the first; a child outside
// the parent is clipped to it.
TEST(SelfTime, NestedSpansSubtractTheUnionOfDirectChildren) {
  const std::vector<SpanInterval> spans = {
      {1, 0, 0, 100},    // frame
      {2, 1, 10, 30},    // child
      {3, 1, 25, 50},    // overlapping child
      {4, 2, 12, 14},    // grandchild of 1, child of 2
      {5, 1, 90, 120},   // child running past the parent's end
      {6, 99, 0, 7},     // parent not recorded: a root
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 100 - (50 - 10) - (100 - 90));
  EXPECT_EQ(self[1], 20 - 2);
  EXPECT_EQ(self[2], 25);
  EXPECT_EQ(self[3], 2);
  EXPECT_EQ(self[4], 30);
  EXPECT_EQ(self[5], 7);
}

}  // namespace
}  // namespace perfbench
