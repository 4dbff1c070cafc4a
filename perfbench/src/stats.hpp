// Statistics helpers of the benchmark: order statistics over timing
// samples, per-window medians and span self time. Everything here is
// pure so perfbench/tests can pin it on synthetic inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of \p values (mean of the two middle values for an even count).
/// Requires a non-empty input.
double median(std::vector<double> values);

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. Requires a non-empty input and p in (0, 100].
double percentile(std::vector<double> values, double p);

/// Samples strictly beyond the nearest-rank percentile \p p of \p n
/// samples (n - ceil(p/100 * n)).
std::size_t samples_beyond(std::size_t n, double p);

/// The highest percentile from \p ladder (any order) that leaves at least
/// \p min_beyond samples beyond it among \p n samples; 0 when none does.
double highest_percentile_with_tail(std::size_t n,
                                    const std::vector<double>& ladder,
                                    std::size_t min_beyond = 10);

/// Statistics of a timed phase taken per window: the samples, in the
/// order they complete, are cut into consecutive windows of a fixed count,
/// and each statistic is the median, over the complete windows, of that
/// window's value. A host stall that hits a minority of windows does not
/// move it. A trailing partial window is dropped. Memory is one window's
/// samples, whatever the run length.
class WindowedStats {
 public:
  /// Windows of \p window samples; each must leave at least 10 samples
  /// beyond the nearest-rank percentile \p tail_p. The first window opens
  /// at \p start_ns.
  WindowedStats(std::size_t window, double tail_p, std::int64_t start_ns);

  /// A sample that completed at \p done_ns, \p latency_ns after it began.
  /// Samples must come in completion order.
  void record(std::int64_t done_ns, std::int64_t latency_ns);

  std::size_t windows() const { return per_s_.size(); }
  /// Medians over the complete windows (0 when there is none): samples
  /// per second from a window's opening to its last completion, and the
  /// window's median and tail latency.
  double per_s() const;
  double p50_ms() const;
  double tail_ms() const;

 private:
  std::size_t window_;
  double tail_p_;
  std::int64_t open_ns_;
  std::vector<double> current_ms_;
  std::vector<double> per_s_;
  std::vector<double> p50_ms_;
  std::vector<double> tail_ms_;
};

/// One recorded span: [start_ns, end_ns) with the id of the span that
/// caused it (0 = root).
struct SpanInterval {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span, positionally aligned with \p spans: its
/// duration minus the part of its interval covered by its direct
/// children (children clipped to the parent; overlapping children count
/// once). Spans whose parent is not in the list are roots.
std::vector<std::int64_t> self_times_ns(const std::vector<SpanInterval>& spans);

}  // namespace perfbench
