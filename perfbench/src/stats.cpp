#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median: no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::size_t samples_beyond(std::size_t n, double p) {
  // The epsilon keeps decimal percentiles exact: 99.9% of 10000 is 9990,
  // not the 9990.000000000002 binary arithmetic gives.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return rank >= n ? 0 : n - rank;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile: no samples");
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile: p must be in (0, 100]");
  }
  std::sort(values.begin(), values.end());
  const std::size_t rank = std::max<std::size_t>(
      1, values.size() - samples_beyond(values.size(), p));
  return values[rank - 1];
}

double highest_percentile_with_tail(std::size_t n,
                                    const std::vector<double>& ladder,
                                    std::size_t min_beyond) {
  double best = 0.0;
  for (const double p : ladder) {
    if (samples_beyond(n, p) >= min_beyond) best = std::max(best, p);
  }
  return best;
}

WindowedStats::WindowedStats(std::size_t window, double tail_p,
                             std::int64_t start_ns)
    : window_(window), tail_p_(tail_p), open_ns_(start_ns) {
  if (samples_beyond(window, tail_p) < 10) {
    throw std::invalid_argument("WindowedStats: window too small for p");
  }
  current_ms_.reserve(window);
}

void WindowedStats::record(std::int64_t done_ns, std::int64_t latency_ns) {
  current_ms_.push_back(static_cast<double>(latency_ns) / 1e6);
  if (current_ms_.size() < window_) return;
  const double seconds =
      static_cast<double>(std::max<std::int64_t>(done_ns - open_ns_, 1)) / 1e9;
  per_s_.push_back(static_cast<double>(window_) / seconds);
  // Nearest-rank positions, found by partial sorts: a full sort of every
  // window would cost the generator measurable time.
  const auto rank = [&](double p) {
    return std::max<std::size_t>(1, window_ - samples_beyond(window_, p)) - 1;
  };
  const auto begin = current_ms_.begin();
  const auto tail = begin + static_cast<std::ptrdiff_t>(rank(tail_p_));
  const auto mid = begin + static_cast<std::ptrdiff_t>(rank(50));
  std::nth_element(begin, tail, current_ms_.end());
  std::nth_element(begin, mid, tail);
  p50_ms_.push_back(*mid);
  tail_ms_.push_back(*tail);
  current_ms_.clear();
  open_ns_ = done_ns;
}

double WindowedStats::per_s() const {
  return per_s_.empty() ? 0.0 : median(per_s_);
}
double WindowedStats::p50_ms() const {
  return p50_ms_.empty() ? 0.0 : median(p50_ms_);
}
double WindowedStats::tail_ms() const {
  return tail_ms_.empty() ? 0.0 : median(tail_ms_);
}

std::vector<std::int64_t> self_times_ns(
    const std::vector<SpanInterval>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  // Child intervals per parent, clipped to the parent's interval.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const SpanInterval& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const SpanInterval& p = spans[it->second];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[it->second].emplace_back(lo, hi);
  }

  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : kids) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

}  // namespace perfbench
